"""Figures 7 and 8: PARSEC average packet latency and execution time.

Paper reference points (8x8 mesh, Twakeup = 8):

* Fig. 7 — ConvOpt-PG raises average packet latency by 69.1% over
  No-PG; PowerPunch-Signal by 12.6%; PowerPunch-PG by only 7.9%
  (a 61.2% improvement over ConvOpt-PG).
* Fig. 8 — execution-time increase: 2.3% (PowerPunch-Signal) and 0.4%
  (PowerPunch-PG); ConvOpt-PG visibly higher on every benchmark.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional, Sequence

from ..campaign import campaign_argparser, engine_options, require_mesh_topology
from .common import SCHEME_ORDER, format_table, mean
from .parsec_suite import run_suite


def report(records) -> str:
    """Format Figures 7 and 8 plus the headline comparison line."""
    by_bench = defaultdict(dict)
    for r in records:
        by_bench[r.workload][r.scheme] = r
    lines = []

    rows = []
    for bench, per in sorted(by_bench.items()):
        rows.append([bench] + [per[s].avg_total_latency for s in SCHEME_ORDER])
    norm = {
        s: mean(
            [per[s].avg_total_latency / per["No-PG"].avg_total_latency for per in by_bench.values()]
        )
        for s in SCHEME_ORDER
    }
    rows.append(["AVG (norm)"] + [norm[s] for s in SCHEME_ORDER])
    lines.append(
        format_table(
            ["benchmark"] + SCHEME_ORDER,
            rows,
            title="Figure 7: average packet latency (cycles; creation to delivery)",
        )
    )

    rows = []
    for bench, per in sorted(by_bench.items()):
        base = per["No-PG"].execution_time
        rows.append([bench] + [per[s].execution_time / base for s in SCHEME_ORDER])
    avg = {
        s: mean(
            [per[s].execution_time / per["No-PG"].execution_time for per in by_bench.values()]
        )
        for s in SCHEME_ORDER
    }
    rows.append(["AVG"] + [avg[s] for s in SCHEME_ORDER])
    lines.append("")
    lines.append(
        format_table(
            ["benchmark"] + SCHEME_ORDER,
            rows,
            title="Figure 8: execution time (normalized to No-PG)",
        )
    )

    conv = norm["ConvOpt-PG"] - 1.0
    ppg = norm["PowerPunch-PG"] - 1.0
    lines.append("")
    lines.append(
        "Headline: latency penalty No-PG->ConvOpt-PG "
        f"{conv:+.1%} (paper +69.1%), PowerPunch-Signal "
        f"{norm['PowerPunch-Signal']-1.0:+.1%} (paper +12.6%), PowerPunch-PG "
        f"{ppg:+.1%} (paper +7.9%); penalty reduction vs ConvOpt-PG "
        f"{1 - ppg / conv if conv else 0:.1%} (paper 61.2%). "
        f"Execution time: PowerPunch-PG {avg['PowerPunch-PG']-1.0:+.1%} "
        "(paper +0.4%)."
    )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> None:
    """CLI entry point."""
    parser = campaign_argparser(__doc__, instructions=True)
    args = parser.parse_args(argv)
    require_mesh_topology(args, 'the Fig. 7/8 experiment')
    print(report(run_suite(instructions=args.instructions, **engine_options(args))))


if __name__ == "__main__":
    main()
