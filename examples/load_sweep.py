#!/usr/bin/env python3
"""Load sweep: the "power-gating curve" and how Power Punch flattens it.

Sweeps uniform-random traffic from near-zero load toward saturation
(the paper's Fig. 12) and prints an ASCII chart of average latency for
No-PG, ConvOpt-PG and PowerPunch-PG, plus net static power.

ConvOpt-PG's latency is worst at *low* load — most routers are asleep
and block packets — then dips, then rises again toward saturation.
PowerPunch-PG hugs the No-PG curve across the whole range.
"""

from repro.experiments.common import pivot, run_keyed
from repro.experiments.fig12 import report, sweep_cells

LOADS = [0.005, 0.01, 0.02, 0.05, 0.10, 0.15]


def ascii_chart(results):
    by_load = {
        load: {scheme: record.avg_total_latency for scheme, record in per.items()}
        for load, per in pivot(results).items()
    }
    peak = max(max(per.values()) for per in by_load.values())
    scale = 60.0 / peak
    lines = ["", "latency (each column block ~ cycles):"]
    for load in sorted(by_load):
        per = by_load[load]
        lines.append(f"  load {load:.3f}")
        for scheme in ("No-PG", "ConvOpt-PG", "PowerPunch-PG"):
            bar = "#" * int(per[scheme] * scale)
            lines.append(f"    {scheme:15s} {bar} {per[scheme]:.1f}")
    return "\n".join(lines)


def main():
    cells = sweep_cells("uniform_random", LOADS, measurement=4000)
    results = run_keyed("load-sweep", cells)
    print(report("uniform_random", results))
    print(ascii_chart(results))


if __name__ == "__main__":
    main()
