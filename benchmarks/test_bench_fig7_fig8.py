"""Benchmark: Figures 7 and 8 — PARSEC latency and execution time.

Scaled-down regeneration (two benchmarks, reduced instruction quota).
The asserted shape, from the paper:

* latency: No-PG < PowerPunch-PG < PowerPunch-Signal << ConvOpt-PG
  (paper: +7.9% / +12.6% / +69.1% over No-PG);
* execution time: PowerPunch-PG within ~2% of No-PG (paper: +0.4%),
  ConvOpt-PG clearly worse.
"""

from repro.experiments.common import pivot
from repro.experiments.parsec_suite import run_suite

BENCHMARKS = ["blackscholes", "ferret"]


def run():
    return run_suite(benchmarks=BENCHMARKS, instructions=800, verbose=False)


def _by(records):
    return pivot(((r.workload, r.scheme), r) for r in records)


def test_bench_fig7_latency_ordering(once):
    table = _by(once(run))
    for bench, per in table.items():
        nopg = per["No-PG"].avg_total_latency
        ppg = per["PowerPunch-PG"].avg_total_latency
        pps = per["PowerPunch-Signal"].avg_total_latency
        conv = per["ConvOpt-PG"].avg_total_latency
        assert nopg <= ppg + 1e-9, bench
        assert ppg < conv, bench
        assert pps < conv, bench
        # ConvOpt-PG pays a large penalty; Power Punch stays close.
        assert conv > 1.2 * nopg, bench
        assert ppg < 1.15 * nopg, bench


def test_bench_fig8_execution_time(once):
    table = _by(once(run))
    for bench, per in table.items():
        base = per["No-PG"].execution_time
        assert per["PowerPunch-PG"].execution_time <= 1.03 * base, bench
        # >= because an almost-miss-free benchmark (blackscholes at a
        # short quota) can finish compute-bound under every scheme.
        assert (
            per["ConvOpt-PG"].execution_time
            >= per["PowerPunch-PG"].execution_time
        ), bench
    # At least one benchmark must show ConvOpt-PG's real penalty.
    assert any(
        per["ConvOpt-PG"].execution_time > 1.02 * per["No-PG"].execution_time
        for per in table.values()
    )
