"""Tests for the shared PARSEC-sweep runner and the one store behind it."""

import contextlib
import io

import pytest

from repro import cli
from repro.campaign import iter_events
from repro.experiments import parsec_suite
from repro.experiments.parsec_suite import run_suite


class TestRunSuite:
    def test_small_suite_runs(self):
        records = run_suite(
            benchmarks=["swaptions"],
            schemes=["No-PG", "PowerPunch-PG"],
            instructions=200,
            verbose=False,
        )
        assert len(records) == 2
        assert {r.scheme for r in records} == {"No-PG", "PowerPunch-PG"}
        assert all(r.workload == "swaptions" for r in records)
        # Fig. 11's components: dynamic and static energy under every
        # scheme, power-gating overhead only where routers are gated.
        for r in records:
            assert r.dynamic_energy > 0 and r.static_energy > 0
            assert (r.overhead_energy > 0) == (r.scheme != "No-PG"), r

    def test_records_ordered_by_benchmark_then_scheme(self):
        records = run_suite(
            benchmarks=["swaptions", "blackscholes"],
            schemes=["No-PG"],
            instructions=150,
            verbose=False,
        )
        assert [r.workload for r in records] == ["swaptions", "blackscholes"]


FAULTS = "punch_drop,rate=0.9;seed=7"


class TestFiguresReadTheCellCache:
    """What ``report`` prints is looked up in the content-addressed
    cell cache and nowhere else, so anything that changes a result
    changes what it prints.  Driven the way ``repro.cli all`` feeds
    it, on a one-benchmark suite (4 cells a seed, 20 for the report)."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """Four ``all`` calls, in order, over one output directory:
        ``{label: (report, hits)}``, the hits being those of the suite's
        campaign and then the report's."""
        out = tmp_path_factory.mktemp("all")
        logs = [out / "cellcache" / f"{name}.events.jsonl" for name in ("parsec-suite", "report")]

        def ends(log):
            return [e for e in iter_events(log) if e["event"] == "campaign-end"]

        def run(*flags):
            before = [len(ends(log)) for log in logs]
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                cli.main(["all", "--out", str(out), *flags])
            report = stdout.getvalue().split("\n==== report ====\n")[1].split("\n==== ")[0]
            hits = [end["hits"] for log, seen in zip(logs, before) for end in ends(log)[seen:]]
            return report, hits

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(parsec_suite, "PARSEC_BENCHMARKS", ["swaptions"])
            for name in set(cli.EXPERIMENTS) - {"parsec-suite", "report"}:
                patch.setattr(cli.EXPERIMENTS[name], "run", lambda args, engine: None)
            return {
                "first": run("--instructions", "100"),
                "longer": run("--instructions", "150"),
                "faulted": run("--instructions", "100", "--faults", FAULTS),
                "again": run("--instructions", "100"),
            }

    def test_other_instruction_count_is_a_miss(self, runs):
        longer, hits = runs["longer"]
        assert longer != runs["first"][0]
        # The suite finds nothing of the first run; the report then
        # reads seed 1 where the suite just stored it.
        assert runs["first"][1] == hits == [0, 4]

    def test_fault_schedule_is_a_miss(self, runs):
        faulted, hits = runs["faulted"]
        assert faulted != runs["first"][0]
        assert hits == [0, 4]

    def test_same_call_twice_is_all_hits(self, runs):
        again, hits = runs["again"]
        assert hits == [4, 20]
        assert again == runs["first"][0]

    def test_records_file_is_not_an_input(self, tmp_path):
        with pytest.raises(SystemExit) as refused:
            cli.main(["report", "--cache", str(tmp_path / "x.json")])
        assert refused.value.code == 2


class TestParallelSuite:
    def test_parallel_matches_sequential(self):
        seq = run_suite(
            benchmarks=["swaptions"],
            schemes=["No-PG", "PowerPunch-PG"],
            instructions=200,
            verbose=False,
        )
        par = run_suite(
            benchmarks=["swaptions"],
            schemes=["No-PG", "PowerPunch-PG"],
            instructions=200,
            verbose=False,
            workers=2,
        )
        assert par == seq
