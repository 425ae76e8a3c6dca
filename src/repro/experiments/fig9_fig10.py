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

from typing import Optional, Sequence

from .common import PG_SCHEMES
from .paper_targets import PAPER
from .parsec_suite import bench_table, suite_report_main, summarize


def report(records) -> str:
    """Format Figures 9 and 10 plus the NI-slack headline."""
    by_bench, avg = summarize(records)
    blocked, wait = avg["blocked_routers"], avg["wakeup_wait"]
    fig9 = bench_table(
        "Figure 9: powered-off routers encountered per packet",
        by_bench,
        PG_SCHEMES,
        lambda per, scheme: per[scheme].avg_blocked_routers,
        ["AVG"] + [blocked[scheme] for scheme in PG_SCHEMES],
    )
    fig10 = bench_table(
        "Figure 10: cycles per packet waiting for router wakeup",
        by_bench,
        PG_SCHEMES,
        lambda per, scheme: per[scheme].avg_wakeup_wait,
        ["AVG"] + [wait[scheme] for scheme in PG_SCHEMES],
    )
    blocked_gain = 1 - blocked["PowerPunch-PG"] / blocked["PowerPunch-Signal"]
    wait_gain = 1 - wait["PowerPunch-PG"] / wait["PowerPunch-Signal"]
    headline = (
        "Headline: blocked routers/packet "
        + " -> ".join(f"{blocked[scheme]:.2f}" for scheme in PG_SCHEMES)
        + " (paper "
        + " -> ".join(f"{PAPER['blocked_routers'][scheme]:.2f}" for scheme in PG_SCHEMES)
        + f"); NI-slack improvement {blocked_gain:.1%} on Fig. 9 "
        f"(paper {PAPER['blocked_routers_slack_gain']:.1%}) but {wait_gain:.1%} on "
        f"Fig. 10 wait cycles (paper {PAPER['wakeup_wait_slack_gain']:.1%}), "
        "revealing the hidden wakeup "
        "latency the blocked-router count cannot show."
    )
    return "\n".join([fig9, "", fig10, "", headline])


def main(argv: Optional[Sequence[str]] = None) -> None:
    """CLI entry point."""
    suite_report_main(__doc__, "the Fig. 9/10 experiment", report, argv)


if __name__ == "__main__":
    main()
