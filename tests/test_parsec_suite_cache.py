"""Tests for the shared PARSEC-sweep runner and the one store behind it."""

import re

import pytest

from repro import cli
from repro.campaign import iter_events
from repro.experiments import fig7_fig8, parsec_suite
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

    def test_records_ordered_by_benchmark_then_scheme(self):
        records = run_suite(
            benchmarks=["swaptions", "blackscholes"],
            schemes=["No-PG"],
            instructions=150,
            verbose=False,
        )
        assert [r.workload for r in records] == ["swaptions", "blackscholes"]


FIGURES = ("fig7-fig8", "fig9-fig10", "fig11", "headline")
FAULTS = "punch_drop,rate=0.9;seed=7"


class TestFiguresReadTheCellCache:
    """What Figs 7-11 and ``headline`` print is looked up in the
    content-addressed cell cache and nowhere else, so anything that
    changes a result changes what they print.  Driven the way
    ``repro.cli all`` feeds them, on a one-benchmark suite."""

    @pytest.fixture
    def run_all(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(parsec_suite, "PARSEC_BENCHMARKS", ["swaptions"])
        for name in set(cli._COMMANDS) - {"parsec-suite", *FIGURES}:
            monkeypatch.setitem(cli._COMMANDS, name, lambda argv: None)
        log = tmp_path / "cellcache" / "parsec-suite.events.jsonl"

        def run(*flags):
            """One ``all`` over the same output directory: each
            figure's report, and the hit count of every PARSEC
            campaign it ran (the suite's, then one per figure)."""
            before = len(list(iter_events(log)))
            cli.main(["all", "--out", str(tmp_path), *flags])
            parts = re.split(r"\n==== (\S+) ====\n", capsys.readouterr().out)
            reports = {
                name: "\n".join(
                    line for line in body.splitlines()
                    if not line.startswith("[suite]")
                )
                for name, body in zip(parts[1::2], parts[2::2])
                if name in FIGURES
            }
            assert set(reports) == set(FIGURES)
            hits = [
                event["hits"]
                for event in list(iter_events(log))[before:]
                if event["event"] == "campaign-end"
            ]
            return reports, hits

        return run

    def test_other_instruction_count_is_a_miss(self, run_all):
        short, _ = run_all("--instructions", "150")
        longer, hits = run_all("--instructions", "300")
        for name in FIGURES:
            assert longer[name] != short[name], name
        # The suite finds nothing of the first run; every figure then
        # reads what the suite just stored.
        assert hits == [0, 4, 4, 4, 4]

    def test_fault_schedule_is_a_miss(self, run_all):
        clean, _ = run_all("--instructions", "150")
        faulted, hits = run_all("--instructions", "150", "--faults", FAULTS)
        for name in FIGURES:
            assert faulted[name] != clean[name], name
        assert hits == [0, 4, 4, 4, 4]

    def test_same_call_twice_is_all_hits(self, run_all):
        first, _ = run_all("--instructions", "150")
        second, hits = run_all("--instructions", "150")
        assert hits == [4, 4, 4, 4, 4]
        assert second == first

    def test_records_file_is_not_an_input(self, tmp_path):
        with pytest.raises(SystemExit) as refused:
            fig7_fig8.main(["--cache", str(tmp_path / "x.json")])
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
