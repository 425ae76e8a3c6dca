"""Tests for the experiment plumbing (records, tables, runners)."""

import json

import pytest

from repro.campaign import run_synthetic
from repro.experiments.common import (
    CANONICAL_INSTRUCTIONS,
    SCHEME_ORDER,
    RunRecord,
    format_table,
    make_scheme,
    mean,
    save_records,
)


def read_records(path):
    """The export product read back: a JSON list of record fields."""
    with open(path) as fh:
        return [RunRecord(**row) for row in json.load(fh)]


def record(scheme="No-PG", latency=30.0, static=1.0, overhead=0.0):
    return RunRecord(
        workload="w",
        scheme=scheme,
        execution_time=1000,
        avg_packet_latency=latency,
        avg_total_latency=latency + 3,
        avg_blocked_routers=0.5,
        avg_wakeup_wait=1.0,
        injection_rate=0.01,
        dynamic_energy=0.2,
        static_energy=static,
        overhead_energy=overhead,
        cycles=1000,
    )


class TestRunRecord:
    def test_energy_helpers(self):
        r = record(static=1.0, overhead=0.25)
        assert r.net_static_energy == pytest.approx(1.25)
        assert r.total_energy == pytest.approx(1.45)

    def test_static_power_is_a_method_of_the_record(self):
        """Not an attribute ``repro.experiments.fig12`` patches on at import."""
        from repro.power import DEFAULT_CONSTANTS

        assert RunRecord.static_power_w.__qualname__ == "RunRecord.static_power_w"
        r = record(static=1.0, overhead=0.25)
        seconds = r.cycles / DEFAULT_CONSTANTS.frequency
        assert r.static_power_w() == pytest.approx(1.25 / seconds)
        r.cycles = 0
        assert r.static_power_w() == 0.0

    def test_json_roundtrip(self, tmp_path):
        path = str(tmp_path / "records.json")
        records = [record(), record(scheme="ConvOpt-PG", latency=50.0)]
        save_records(records, path)
        loaded = read_records(path)
        assert loaded == records

    def test_json_roundtrip_preserves_derived_fields(self, tmp_path):
        path = str(tmp_path / "records.json")
        original = record(static=2.0, overhead=0.5)
        save_records([original], path)
        (loaded,) = read_records(path)
        assert loaded.net_static_energy == pytest.approx(original.net_static_energy)
        assert loaded.total_energy == pytest.approx(original.total_energy)


class TestSchemeRegistry:
    def test_four_schemes_in_paper_order(self):
        assert SCHEME_ORDER == [
            "No-PG",
            "ConvOpt-PG",
            "PowerPunch-Signal",
            "PowerPunch-PG",
        ]

    def test_make_scheme_passes_kwargs(self):
        scheme = make_scheme("PowerPunch-PG", wakeup_latency=12)
        assert scheme.wakeup_latency == 12

    def test_make_scheme_nopg_plain(self):
        scheme = make_scheme("No-PG")
        assert scheme.name == "No-PG"

    def test_make_scheme_nopg_rejects_kwargs(self):
        with pytest.raises(TypeError, match="No-PG"):
            make_scheme("No-PG", wakeup_latency=12)

    def test_unknown_scheme_raises(self):
        with pytest.raises(KeyError):
            make_scheme("Magic-PG")

    def test_canonical_instructions_matches_experiments_md(self):
        assert CANONICAL_INSTRUCTIONS == 2000


class TestFormatting:
    def test_format_table_alignment(self):
        out = format_table(["a", "bb"], [[1, 2.5], [30, 4.0]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert "2.500" in lines[3]

    def test_format_table_empty_rows(self):
        out = format_table(["x"], [])
        assert "x" in out

    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert mean([]) == 0.0


class TestRunSynthetic:
    def test_returns_populated_record(self):
        rec = run_synthetic(
            "uniform_random", 0.02, "No-PG", warmup=200, measurement=800
        )
        assert rec.scheme == "No-PG"
        assert rec.avg_packet_latency > 0
        assert rec.injection_rate > 0
        assert rec.static_energy > 0
        assert rec.overhead_energy == 0

    def test_pg_record_has_overhead(self):
        rec = run_synthetic(
            "uniform_random", 0.02, "ConvOpt-PG", warmup=200, measurement=800
        )
        assert rec.overhead_energy > 0
        assert rec.avg_blocked_routers > 0


class TestCsvExport:
    def test_save_csv_roundtrip(self, tmp_path):
        import csv

        from repro.experiments.common import save_csv

        path = str(tmp_path / "out.csv")
        save_csv([record(), record(scheme="ConvOpt-PG")], path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[1]["scheme"] == "ConvOpt-PG"
        assert float(rows[0]["avg_packet_latency"]) == 30.0
        # Derived fields are reconstructible from the persisted columns.
        rebuilt = RunRecord(
            **{
                k: type(getattr(record(), k))(v)
                for k, v in rows[0].items()
            }
        )
        assert rebuilt.net_static_energy == pytest.approx(
            record().net_static_energy
        )
        assert rebuilt.total_energy == pytest.approx(record().total_energy)

    def test_save_csv_empty(self, tmp_path):
        from repro.experiments.common import save_csv

        path = str(tmp_path / "empty.csv")
        save_csv([], path)
        assert open(path).read() == ""
