"""Figures 7 and 8: PARSEC average packet latency and execution time.

Paper reference points (8x8 mesh, Twakeup = 8):

* Fig. 7 — ConvOpt-PG raises average packet latency by 69.1% over
  No-PG; PowerPunch-Signal by 12.6%; PowerPunch-PG by only 7.9%
  (a 61.2% improvement over ConvOpt-PG).
* Fig. 8 — execution-time increase: 2.3% (PowerPunch-Signal) and 0.4%
  (PowerPunch-PG); ConvOpt-PG visibly higher on every benchmark.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .common import SCHEME_ORDER
from .paper_targets import PAPER
from .parsec_suite import bench_table, suite_report_main, summarize


def report(records) -> str:
    """Format Figures 7 and 8 plus the headline comparison line."""
    by_bench, avg = summarize(records)
    latency, execution = avg["latency_penalty"], avg["execution_penalty"]
    fig7 = bench_table(
        "Figure 7: average packet latency (cycles; creation to delivery)",
        by_bench,
        SCHEME_ORDER,
        lambda per, scheme: per[scheme].avg_total_latency,
        ["AVG (norm)"] + [1 + latency[scheme] for scheme in SCHEME_ORDER],
    )
    fig8 = bench_table(
        "Figure 8: execution time (normalized to No-PG)",
        by_bench,
        SCHEME_ORDER,
        lambda per, scheme: per[scheme].execution_time / per["No-PG"].execution_time,
        ["AVG"] + [1 + execution[scheme] for scheme in SCHEME_ORDER],
    )
    paper = PAPER["latency_penalty"]
    conv = latency["ConvOpt-PG"]
    ppg = latency["PowerPunch-PG"]
    headline = (
        "Headline: latency penalty No-PG->ConvOpt-PG "
        f"{conv:+.1%} (paper {paper['ConvOpt-PG']:+.1%}), PowerPunch-Signal "
        f"{latency['PowerPunch-Signal']:+.1%} "
        f"(paper {paper['PowerPunch-Signal']:+.1%}), PowerPunch-PG "
        f"{ppg:+.1%} (paper {paper['PowerPunch-PG']:+.1%}); "
        "penalty reduction vs ConvOpt-PG "
        f"{1 - ppg / conv if conv else 0:.1%} "
        f"(paper {PAPER['penalty_reduction_vs_convopt']:.1%}). "
        f"Execution time: PowerPunch-PG {execution['PowerPunch-PG']:+.1%} "
        f"(paper {PAPER['execution_penalty']['PowerPunch-PG']:+.1%})."
    )
    return "\n".join([fig7, "", fig8, "", headline])


def main(argv: Optional[Sequence[str]] = None) -> None:
    """CLI entry point."""
    suite_report_main(__doc__, "the Fig. 7/8 experiment", report, argv)


if __name__ == "__main__":
    main()
