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

from collections import defaultdict
from typing import Optional, Sequence

from ..campaign import campaign_argparser, engine_options, require_mesh_topology
from .common import SCHEME_ORDER, format_table, mean
from .parsec_suite import run_suite


def report(records) -> str:
    """Format the Fig. 11 energy-breakdown table and headline."""
    by_bench = defaultdict(dict)
    for r in records:
        by_bench[r.workload][r.scheme] = r
    lines = []
    rows = []
    for bench, per in sorted(by_bench.items()):
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
    lines.append(
        format_table(
            ["benchmark", "scheme", "dynamic", "static", "pg-overhead", "total"],
            rows,
            title="Figure 11: router energy breakdown (normalized to No-PG total)",
        )
    )

    static_saved = {}
    total_saved = {}
    for scheme in SCHEME_ORDER[1:]:
        static_saved[scheme] = mean(
            [
                1
                - (per[scheme].net_static_energy / per["No-PG"].static_energy)
                for per in by_bench.values()
            ]
        )
        total_saved[scheme] = mean(
            [
                1 - per[scheme].total_energy / per["No-PG"].total_energy
                for per in by_bench.values()
            ]
        )
    lines.append("")
    lines.append(
        "Headline: net router static energy saved "
        + ", ".join(f"{s}: {static_saved[s]:.1%}" for s in static_saved)
        + " (paper ~83% for all three).  Total router energy saved "
        + ", ".join(f"{s}: {total_saved[s]:.1%}" for s in total_saved)
        + " (paper 50.3% / 52.9% / 54.1%) — Power Punch saves the most."
    )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> None:
    """CLI entry point."""
    parser = campaign_argparser(__doc__, instructions=True)
    args = parser.parse_args(argv)
    require_mesh_topology(args, 'the Fig. 11 experiment')
    print(report(run_suite(instructions=args.instructions, **engine_options(args))))


if __name__ == "__main__":
    main()
