"""Figure 11: breakdown of router energy (normalized to No-PG).

Per benchmark and scheme, router energy splits into dynamic energy,
static energy and power-gating overhead (on/off event energy, sleep
signal distribution, punch-signal generation/propagation, always-on
controllers).  For fair comparison the overhead is charged against the
static component ("net static").

Paper reference points: all three power-gating schemes save a similar
~83% of router static energy; total router energy savings are 50.3%
(ConvOpt-PG), 52.9% (PowerPunch-Signal) and 54.1% (PowerPunch-PG), so
Power Punch wins on energy *and* performance.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .common import PG_SCHEMES, SCHEME_ORDER, format_table
from .paper_targets import PAPER
from .parsec_suite import suite_report_main, summarize


def report(records) -> str:
    """Format the Fig. 11 energy-breakdown table and headline."""
    by_bench, avg = summarize(records)
    rows = []
    for bench, per in by_bench.items():
        base = per["No-PG"].total_energy
        for scheme in SCHEME_ORDER:
            r = per[scheme]
            rows.append(
                [
                    bench,
                    scheme,
                    r.dynamic_energy / base,
                    r.static_energy / base,
                    r.overhead_energy / base,
                    r.total_energy / base,
                ]
            )
    table = format_table(
        ["benchmark", "scheme", "dynamic", "static", "pg-overhead", "total"],
        rows,
        title="Figure 11: router energy breakdown (normalized to No-PG total)",
    )
    headline = (
        "Headline: net router static energy saved "
        + ", ".join(f"{scheme}: {avg['static_saved'][scheme]:.1%}" for scheme in PG_SCHEMES)
        + f" (paper ~{PAPER['static_saved']:.0%} for all three).  "
        "Total router energy saved "
        + ", ".join(f"{scheme}: {avg['total_saved'][scheme]:.1%}" for scheme in PG_SCHEMES)
        + " (paper "
        + " / ".join(f"{PAPER['total_saved'][scheme]:.1%}" for scheme in PG_SCHEMES)
        + ") — Power Punch saves the most."
    )
    return "\n".join([table, "", headline])


def main(argv: Optional[Sequence[str]] = None) -> None:
    """CLI entry point."""
    suite_report_main(__doc__, "the Fig. 11 experiment", report, argv)


if __name__ == "__main__":
    main()
