"""Benchmark: Sec. 6.6(2) — scalability with network size.

Paper shape: PowerPunch-PG's latency reduction vs ConvOpt-PG at 0.01
flits/node/cycle grows with mesh size (43.4% / 54.9% / 69.1% for
4x4 / 8x8 / 16x16): conventional power-gating accumulates wakeup
latency per hop while punch signals keep it hidden.
"""

from repro.experiments.common import pivot, run_keyed
from repro.experiments.scalability import scalability_cells

SIZES = (4, 8)


def run():
    return run_keyed("bench", scalability_cells(sizes=SIZES, load=0.01, measurement=2500))


def test_bench_scalability(once):
    per_size = pivot(once(run))
    reductions = {}
    for size, per in per_size.items():
        conv = per["ConvOpt-PG"].avg_total_latency
        ppg = per["PowerPunch-PG"].avg_total_latency
        assert ppg < conv, size
        reductions[size] = 1 - ppg / conv
    # Substantial reduction at every size (paper: >= 43.4%).
    for size, reduction in reductions.items():
        assert reduction > 0.30, (size, reduction)
    # The absolute ConvOpt-PG penalty (cumulative wakeup latency)
    # grows with mesh size.
    conv_penalty = {
        size: per["ConvOpt-PG"].avg_total_latency - per["No-PG"].avg_total_latency
        for size, per in per_size.items()
    }
    assert conv_penalty[8] > conv_penalty[4]
