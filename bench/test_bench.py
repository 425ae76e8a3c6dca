"""Smoke tests of the benchmark itself: ``python -m pytest bench -q`` (< 20 s).

Not part of tier-1 (``testpaths = ["tests"]``); run it when the
benchmark's own files change.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from bench import compare, harness, spec

UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SIMULATED = [m.name for m in spec.PER_LAYER if m.simulated]


def run_quick(workload: str, trace: int, cwd=spec.ROOT, seed: int = spec.DEFAULT_SEED):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def last_line(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_is_the_spec_written_out():
    on_disk = json.loads(spec.BENCHMARK_JSON.read_text())
    assert on_disk == spec.benchmark_json()
    assert list(on_disk) == ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    assert spec.BENCHMARK_JSON.stat().st_size <= 64 * 1024


def test_contract_limits():
    doc = spec.benchmark_json()
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    # 4 + 22 x workloads runs must fit 3420 s; a run is set-up + run_seconds + checks.
    assert (4 + 22 * len(doc["workloads"])) * (doc["run_seconds"] + 8) <= 3420
    names = [w["name"] for w in doc["workloads"]] + [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(spec.NAME_RE.match(name) for name in names)
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT_RE.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert doc["paths"] == ["bench"] and (spec.ROOT / "bench").is_dir()
    assert len(doc["command"]) <= 32 and all(len(part) <= 200 for part in doc["command"])


def test_every_layer_metric_names_an_existing_end_to_end_metric_and_workload():
    for metric in spec.PER_LAYER:
        assert metric.moves in spec.E2E_NAMES, metric.name
        assert metric.on and set(metric.on) <= set(spec.WORKLOAD_NAMES), metric.name


def test_untraced_run_prints_exactly_the_end_to_end_metrics():
    result = last_line(run_quick("mesh8_lowload", 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(spec.E2E_NAMES)
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
        assert metric["unit"] == next(m.unit for m in spec.END_TO_END if m.name == name)


@pytest.mark.parametrize("workload", spec.WORKLOAD_NAMES)
def test_traced_run_prints_every_layer_metric_and_spans(workload):
    result = last_line(run_quick(workload, 1))
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(spec.PER_LAYER_NAMES)
    for metric in spec.PER_LAYER:
        value = result["metrics"][metric.name]["value"]
        if workload not in metric.on:
            assert value == 0.0, metric.name
    spans = json.loads((harness.OUT / f"trace.{workload}.json").read_text())["spans"]
    assert spans and all({"id", "name", "start", "end", "parent", "op"} <= set(s) for s in spans)
    ids = {s["id"] for s in spans}
    assert all(s["parent"] is None or s["parent"] in ids for s in spans)


def test_simulated_counts_repeat_exactly():
    first = last_line(run_quick("mesh8_lowload", 1))["metrics"]
    second = last_line(run_quick("mesh8_lowload", 1))["metrics"]
    assert {n: first[n]["value"] for n in SIMULATED} == {n: second[n]["value"] for n in SIMULATED}
    assert first["noc.delivered_packets"]["value"] > 0


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(spec.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(spec.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_quick("mesh8_lowload", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_refuses_more_workers_than_cores():
    with pytest.raises(SystemExit):
        harness.require_parallelism((os.cpu_count() or 1) + 1)


def _report(workload, seed, value, digest="d"):
    return json.dumps({
        "workload": workload, "seed": seed, "trace": 0, "quick": False, "output_digest": digest,
        "result": {"metrics": {"cells_per_s": {"value": value, "unit": "1/s"}}},
    })


def test_compare_verdicts(tmp_path, capsys):
    steady = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    sets = {
        "a": [_report("w", i, v) for i, v in enumerate(steady)],
        "same": [_report("w", i, v + 1) for i, v in enumerate(steady)],
        "slow": [_report("w", i, v * 0.7) for i, v in enumerate(steady)],
        "wild": [_report("w", i, v * (0.5 + 0.1 * i)) for i, v in enumerate(steady)],
        "drift": [_report("w", i, v, digest="other") for i, v in enumerate(steady)],
    }
    for name, lines in sets.items():
        (tmp_path / name).write_text("\n".join(lines) + "\n")

    def verdict(*names):
        loaded = [compare.load(str(tmp_path / n))[0] for n in names]
        return compare.rows(*loaded, *([None] * (2 - len(loaded))))[0]["verdict"]

    assert verdict("a") == "steady"
    assert verdict("wild") == "noisy"
    assert verdict("a", "same") == "ok"
    assert verdict("a", "slow") == "worse"
    assert verdict("a", "wild") == "unresolved"
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "same")]) == 0
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "drift")]) == 1
    assert "simulated outputs differ" in capsys.readouterr().out
