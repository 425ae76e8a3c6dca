#!/usr/bin/env python3
"""Wakeup-latency sensitivity (the paper's Fig. 13) plus a 4-hop fix.

Shows that a 3-hop punch hides Twakeup up to 3 x Trouter cycles, what
happens when Twakeup exceeds that budget (Twakeup = 10 on a 3-stage
router), and how a 4-hop punch restores full hiding — the paper's
Sec. 6.5 observation.
"""

from repro.campaign import run_synthetic
from repro.experiments.common import run_keyed
from repro.experiments.fig13 import report, sensitivity_cells
from repro.noc import NoCConfig


def main():
    results = run_keyed("wakeup-sensitivity", sensitivity_cells(measurement=3000))
    print(report(results))

    # The paper: "the performance penalty of Power Punch becomes
    # negligible when a 4-hop punch signal is used" for Twakeup=10.
    print()
    print("Twakeup = 10 on a 3-stage router, punch horizon sweep:")
    config = NoCConfig(router_stages=3)
    base = run_synthetic(
        "uniform_random", 0.006, "No-PG", config=config, measurement=3000, drain=False
    )
    for hops in (3, 4):
        rec = run_synthetic(
            "uniform_random",
            0.006,
            "PowerPunch-PG",
            config=config,
            measurement=3000,
            drain=False,
            wakeup_latency=10,
            punch_hops=hops,
        )
        print(
            f"  {hops}-hop punch: latency {rec.avg_total_latency:6.2f} "
            f"({rec.avg_total_latency / base.avg_total_latency - 1:+.1%} vs No-PG)"
        )


if __name__ == "__main__":
    main()
