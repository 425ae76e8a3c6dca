"""Figures 9 and 10: blocking statistics under PARSEC.

Paper reference points:

* Fig. 9 — powered-off routers encountered per packet: 4.21 under
  ConvOpt-PG, 1.09 under PowerPunch-Signal, 0.96 under PowerPunch-PG
  (11.8% improvement from injection-node slack).
* Fig. 10 — cycles per packet waiting for router wakeup: the
  PowerPunch-PG improvement over PowerPunch-Signal is 36.2% — much
  larger than Fig. 9 suggests, because a blocked router counts as one
  even when most of its wakeup latency is hidden by NI slack.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional, Sequence

from ..campaign import campaign_argparser, engine_options, require_mesh_topology
from .common import format_table, mean
from .parsec_suite import run_suite

_PG_SCHEMES = ["ConvOpt-PG", "PowerPunch-Signal", "PowerPunch-PG"]


def report(records) -> str:
    """Format Figures 9 and 10 plus the NI-slack headline."""
    by_bench = defaultdict(dict)
    for r in records:
        by_bench[r.workload][r.scheme] = r
    lines = []

    rows = [
        [bench] + [per[s].avg_blocked_routers for s in _PG_SCHEMES]
        for bench, per in sorted(by_bench.items())
    ]
    avg_blocked = {
        s: mean([per[s].avg_blocked_routers for per in by_bench.values()])
        for s in _PG_SCHEMES
    }
    rows.append(["AVG"] + [avg_blocked[s] for s in _PG_SCHEMES])
    lines.append(
        format_table(
            ["benchmark"] + _PG_SCHEMES,
            rows,
            title="Figure 9: powered-off routers encountered per packet",
        )
    )

    rows = [
        [bench] + [per[s].avg_wakeup_wait for s in _PG_SCHEMES]
        for bench, per in sorted(by_bench.items())
    ]
    avg_wait = {
        s: mean([per[s].avg_wakeup_wait for per in by_bench.values()])
        for s in _PG_SCHEMES
    }
    rows.append(["AVG"] + [avg_wait[s] for s in _PG_SCHEMES])
    lines.append("")
    lines.append(
        format_table(
            ["benchmark"] + _PG_SCHEMES,
            rows,
            title="Figure 10: cycles per packet waiting for router wakeup",
        )
    )

    blocked_gain = 1 - avg_blocked["PowerPunch-PG"] / avg_blocked["PowerPunch-Signal"]
    wait_gain = 1 - avg_wait["PowerPunch-PG"] / avg_wait["PowerPunch-Signal"]
    lines.append("")
    lines.append(
        f"Headline: blocked routers/packet {avg_blocked['ConvOpt-PG']:.2f} -> "
        f"{avg_blocked['PowerPunch-Signal']:.2f} -> "
        f"{avg_blocked['PowerPunch-PG']:.2f} "
        "(paper 4.21 -> 1.09 -> 0.96); NI-slack improvement "
        f"{blocked_gain:.1%} on Fig. 9 (paper 11.8%) but {wait_gain:.1%} on "
        "Fig. 10 wait cycles (paper 36.2%), revealing the hidden wakeup "
        "latency the blocked-router count cannot show."
    )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> None:
    """CLI entry point."""
    parser = campaign_argparser(__doc__, instructions=True)
    args = parser.parse_args(argv)
    require_mesh_topology(args, 'the Fig. 9/10 experiment')
    print(report(run_suite(instructions=args.instructions, **engine_options(args))))


if __name__ == "__main__":
    main()
