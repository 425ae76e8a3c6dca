"""Benchmark: Figure 12 — latency and static power across load.

Paper shape per traffic pattern: ConvOpt-PG shows the "power-gating
curve" (large latency penalty at low load); PowerPunch-PG is almost
identical to No-PG across the range; both PG schemes save most static
power at low load, converging toward No-PG as load rises.
"""

import pytest

from repro.experiments.common import pivot, run_keyed
from repro.experiments.fig12 import sweep_cells

LOADS = [0.01, 0.05, 0.12]


def sweep(pattern):
    return run_keyed("bench", sweep_cells(pattern, LOADS, warmup=600, measurement=2500))


@pytest.mark.parametrize("pattern", ["uniform_random", "bit_complement", "transpose"])
def test_bench_fig12_pattern(pattern, once):
    table = pivot(once(sweep, pattern))
    low = min(table)
    for load, per in table.items():
        nopg = per["No-PG"].avg_total_latency
        conv = per["ConvOpt-PG"].avg_total_latency
        ppg = per["PowerPunch-PG"].avg_total_latency
        # PowerPunch-PG tracks No-PG across the whole load range.
        assert ppg < 1.2 * nopg, (pattern, load)
        assert conv >= ppg, (pattern, load)
    # The ConvOpt gap is most dramatic at the lowest load.
    lowest = table[low]
    assert (
        lowest["ConvOpt-PG"].avg_total_latency
        > 1.3 * lowest["No-PG"].avg_total_latency
    )
    # Static power: PG schemes save the most at low load.
    low_static = lowest["PowerPunch-PG"].static_power_w()
    nopg_static = lowest["No-PG"].static_power_w()
    assert low_static < 0.7 * nopg_static
