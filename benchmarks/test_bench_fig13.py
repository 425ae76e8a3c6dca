"""Benchmark: Figure 13 — wakeup latency / pipeline-depth sensitivity.

Paper shape: ConvOpt-PG pays 1.5x-2x latency at every design point;
PowerPunch-PG stays within a few percent except where the 3-hop punch
cannot cover the wakeup latency (Twakeup=10 on a 3-stage router, paper
9.2%) — that point must be the worst of the 3-stage set.
"""

from repro.experiments.common import pivot, run_keyed
from repro.experiments.fig13 import sensitivity_cells

POINTS = [(3, 6), (3, 8), (3, 10)]


def run():
    return run_keyed("bench", sensitivity_cells(points=POINTS, measurement=2500))


def test_bench_fig13_sensitivity(once):
    per_point = pivot(once(run))

    penalties = {}
    for point, per in per_point.items():
        base = per["No-PG"].avg_total_latency
        conv = per["ConvOpt-PG"].avg_total_latency
        ppg = per["PowerPunch-PG"].avg_total_latency
        assert conv > 1.3 * base, point  # paper: 1.5x-2x
        penalties[point] = ppg / base - 1.0

    # The uncovered point (Twakeup=10, Trouter=3) is the worst case.
    assert penalties[(3, 10)] == max(penalties.values())
    # The covered points stay within a few percent (paper: 2.4%-9.2%).
    assert penalties[(3, 6)] < 0.10
    assert penalties[(3, 8)] < 0.12
