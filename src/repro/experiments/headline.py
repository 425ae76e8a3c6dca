"""The paper's abstract, as a single reproducible report.

    "Full system evaluation on PARSEC benchmarks shows Power Punch
    saves more than 83% of router static energy while having an
    execution time penalty of less than 0.4%, effectively achieving
    near non-blocking power-gating of on-chip network routers."

Runs the PARSEC suite (out of the cell cache, with ``--cache-dir``) and
prints the four headline quantities with their paper reference values.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .common import PG_SCHEMES
from .paper_targets import PAPER
from .parsec_suite import suite_report_main, summarize


def compute_headline(records) -> dict:
    """Aggregate the abstract's four headline quantities from records."""
    _, avg = summarize(records)
    headline = {
        name: {scheme: avg[name][scheme] for scheme in PG_SCHEMES}
        for name in ("latency_penalty", "execution_penalty", "static_saved", "total_saved")
    }
    conv = headline["latency_penalty"]["ConvOpt-PG"]
    headline["penalty_reduction_vs_convopt"] = (
        1 - headline["latency_penalty"]["PowerPunch-PG"] / conv if conv else 0.0
    )
    return headline


def report(records) -> str:
    """Format the headline report with paper reference values."""
    h = compute_headline(records)
    lines = [
        "Power Punch headline reproduction (8x8 mesh, PARSEC profiles)",
        "",
        f"  router static energy saved (PowerPunch-PG) "
        f"{h['static_saved']['PowerPunch-PG']:.1%}   "
        f"(paper: >{PAPER['static_saved']:.0%})",
        f"  execution-time penalty (PowerPunch-PG)     "
        f"{h['execution_penalty']['PowerPunch-PG']:+.1%}    "
        f"(paper: <{PAPER['execution_penalty']['PowerPunch-PG']:.1%})",
        f"  packet-latency penalty (PowerPunch-PG)     "
        f"{h['latency_penalty']['PowerPunch-PG']:+.1%}    "
        f"(paper: {PAPER['latency_penalty']['PowerPunch-PG']:+.1%})",
        f"  latency-penalty reduction vs ConvOpt-PG    "
        f"{h['penalty_reduction_vs_convopt']:.1%}   "
        f"(paper: {PAPER['penalty_reduction_vs_convopt']:.1%})",
        "",
        "  per scheme:",
    ]
    for scheme in PG_SCHEMES:
        lines.append(
            f"    {scheme:18s} latency {h['latency_penalty'][scheme]:+7.1%}  "
            f"exec {h['execution_penalty'][scheme]:+6.1%}  "
            f"static saved {h['static_saved'][scheme]:6.1%}  "
            f"total energy saved {h['total_saved'][scheme]:6.1%}"
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> None:
    """CLI entry point."""
    suite_report_main(__doc__, "the headline experiment", report, argv)


if __name__ == "__main__":
    main()
