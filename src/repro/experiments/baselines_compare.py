"""Sec. 6.6(3): Power Punch vs other recent power-gating schemes.

The paper argues Power Punch dominates reconfiguration/bypass schemes:
"As NoRD relies on packet detours, its performance overhead is about 5
times that of Power Punch (9.3 cycles of packet latency penalty in
NoRD versus 1.8 cycles in Power Punch for the 64-node system)."

This harness compares No-PG, ConvOpt-PG, PowerPunch-PG and our
NoRD-like baseline (bypass-ring detours, transit never wakes routers —
see ``repro.baselines.nord`` for the simplifications) on uniform-random
traffic at a PARSEC-like load, one ``synthetic_metrics`` campaign cell
per scheme.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..campaign import CellSpec, campaign_argparser, parse_campaign_args
from .common import format_table, run_keyed
from .paper_targets import PAPER

_SCHEMES = ["No-PG", "ConvOpt-PG", "PowerPunch-PG", "NoRD-like"]


def comparison_cells(load: float = 0.01, measurement: int = 5000, seed: int = 7):
    """Declare the four-scheme comparison, keyed by scheme."""
    return [
        (
            scheme,
            CellSpec.synthetic(
                "uniform_random",
                load,
                scheme,
                measurement=measurement,
                seed=seed,
                drain=False,
                metrics=True,
            ),
        )
        for scheme in _SCHEMES
    ]


def report(results) -> str:
    """Format the comparison table plus the paper-ratio headline."""
    per = dict(results)
    base = per["No-PG"]
    rows = []
    for name, row in results:
        rows.append(
            [
                name,
                row["latency"],
                row["latency"] - base["latency"],
                f"{row['net_static'] / base['net_static']:.1%}",
                row["detoured"],
            ]
        )
    table = format_table(
        ["scheme", "latency", "penalty (cycles)", "net static vs No-PG", "detours"],
        rows,
        title="Sec. 6.6(3): Power Punch vs detour-based power-gating",
    )
    pp = per["PowerPunch-PG"]["latency"] - base["latency"]
    nord = per["NoRD-like"]["latency"] - base["latency"]
    ratio = nord / pp if pp > 0 else float("inf")
    paper = PAPER["penalty_cycles"]
    paper_ratio = paper["NoRD"] / paper["PowerPunch"]
    return (
        table
        + f"\n\nDetour-based penalty is {ratio:.1f}x Power Punch's, "
        f"{'above' if ratio > paper_ratio else 'below'} the paper's ratio "
        f"(~{paper_ratio:.0f}x: {paper['NoRD']} vs {paper['PowerPunch']} cycles)."
    )


def main(argv: Optional[Sequence[str]] = None) -> None:
    """CLI entry point."""
    parser = campaign_argparser(__doc__)
    parser.add_argument("--load", type=float, default=0.01)
    parser.add_argument("--measurement", type=int, default=5000)
    args, engine = parse_campaign_args(parser, argv, mesh_only="the baselines comparison")
    cells = comparison_cells(load=args.load, measurement=args.measurement)
    results = run_keyed("baselines-compare", cells, **engine)
    for name, row in results:
        print(f"[baselines] {name:15s} lat={row['latency']:7.2f}")
    print(report(results))


if __name__ == "__main__":
    main()
