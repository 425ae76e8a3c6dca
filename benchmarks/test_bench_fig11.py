"""Benchmark: Figure 11 — router energy breakdown.

Paper shape: all three PG schemes save a similar, large fraction of
router static energy; counting performance-induced runtime, Power
Punch saves at least as much total router energy as ConvOpt-PG
(paper: 50.3% / 52.9% / 54.1% savings vs No-PG).
"""

from repro.experiments.common import pivot
from repro.experiments.parsec_suite import run_suite

BENCHMARKS = ["blackscholes", "dedup"]


def run():
    return run_suite(benchmarks=BENCHMARKS, instructions=800, verbose=False)


def _table(records):
    return pivot(((r.workload, r.scheme), r) for r in records)


def test_bench_fig11_static_savings(once):
    table = _table(once(run))
    for bench, per in table.items():
        base_static = per["No-PG"].static_energy
        for scheme in ("ConvOpt-PG", "PowerPunch-Signal", "PowerPunch-PG"):
            net = per[scheme].net_static_energy
            saved = 1 - net / base_static
            # Every PG scheme must save a substantial static fraction
            # at PARSEC loads (paper: ~83%).
            assert saved > 0.35, (bench, scheme, saved)


def test_bench_fig11_powerpunch_total_energy_wins(once):
    table = _table(once(run))
    for bench, per in table.items():
        base = per["No-PG"].total_energy
        conv = per["ConvOpt-PG"].total_energy / base
        ppg = per["PowerPunch-PG"].total_energy / base
        # Paper Sec. 6.3: Power Punch is better in both performance and
        # energy than optimized conventional power-gating.
        assert ppg <= conv * 1.02, (bench, conv, ppg)
        assert ppg < 1.0, bench


def test_bench_fig11_breakdown_components_positive(once):
    records = once(run)
    for r in records:
        assert r.dynamic_energy > 0
        assert r.static_energy > 0
        if r.scheme == "No-PG":
            assert r.overhead_energy == 0
        else:
            assert r.overhead_energy > 0
