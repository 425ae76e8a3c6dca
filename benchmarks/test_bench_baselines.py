"""Benchmark: Sec. 6.6(3) — Power Punch vs the NoRD-like detour baseline.

Paper shape: NoRD's detour-based penalty is several times Power
Punch's (paper: 9.3 vs 1.8 cycles on 64 nodes), while both save a
large static fraction.
"""

from repro.experiments.baselines_compare import comparison_cells
from repro.experiments.common import run_keyed


def run():
    return dict(run_keyed("bench", comparison_cells(load=0.01, measurement=2500)))


def test_bench_baselines_comparison(once):
    results = once(run)
    base = results["No-PG"]["latency"]
    pp_penalty = results["PowerPunch-PG"]["latency"] - base
    nord_penalty = results["NoRD-like"]["latency"] - base
    conv_penalty = results["ConvOpt-PG"]["latency"] - base
    # Power Punch ~non-blocking; detour and wakeup-wait baselines pay
    # multiple times more.
    assert pp_penalty < 3.0
    assert nord_penalty > 3 * max(pp_penalty, 0.5)
    assert conv_penalty > 3 * max(pp_penalty, 0.5)
    # Every scheme still delivers all measured traffic.
    delivered = {name: row["delivered"] for name, row in results.items()}
    assert min(delivered.values()) > 0.9 * delivered["No-PG"]
    # All power-gating schemes save static energy.
    for name in ("ConvOpt-PG", "PowerPunch-PG", "NoRD-like"):
        assert results[name]["net_static"] < 0.75 * results["No-PG"]["net_static"]
