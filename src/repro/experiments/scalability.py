"""Section 6.6(2): scalability with network size.

At 0.01 flits/node/cycle uniform random traffic, the paper reports
PowerPunch-PG reducing average packet latency versus ConvOpt-PG by
43.4% (4x4), 54.9% (8x8) and 69.1% (16x16): conventional power-gating
suffers cumulative wakeup latency that grows with hop count, while
punch signals keep hiding it, so the relative win grows with mesh size.
"""

from __future__ import annotations

from typing import Sequence

from ..campaign import CellSpec
from ..noc import NoCConfig
from .common import SWEEP_SCHEMES, format_table, pivot, run_keyed
from .paper_targets import PAPER


def scalability_cells(
    sizes: Sequence[int] = (4, 8, 16),
    load: float = 0.01,
    measurement: int = 4000,
):
    """Declare the mesh-size sweep of Sec. 6.6(2), keyed ``(size, scheme)``."""
    return [
        (
            (size, scheme),
            CellSpec.synthetic(
                "uniform_random",
                load,
                scheme,
                config=NoCConfig(width=size, height=size),
                measurement=measurement,
                drain=False,
            ),
        )
        for size in sizes
        for scheme in SWEEP_SCHEMES
    ]


def report(results) -> str:
    """Format the scalability table with the paper reference line."""
    rows, reductions = [], []
    for size, per in sorted(pivot(results).items()):
        conv = per["ConvOpt-PG"].avg_total_latency
        pp = per["PowerPunch-PG"].avg_total_latency
        reductions.append(1 - pp / conv)
        rows.append(
            [
                f"{size}x{size}",
                per["No-PG"].avg_total_latency,
                conv,
                pp,
                f"{reductions[-1]:.1%}",
            ]
        )
    table = format_table(
        ["mesh", "No-PG", "ConvOpt-PG", "PowerPunch-PG", "PP reduction vs ConvOpt"],
        rows,
        title="Scalability (Sec. 6.6(2)): latency @ 0.01 flits/node/cycle",
    )
    reference = ", ".join(
        f"{reduction:.1%} ({size}x{size})"
        for size, reduction in PAPER["scalability_reduction"].items()
    )
    grows = all(small < large for small, large in zip(reductions, reductions[1:]))
    verdict = "grows with mesh size, as in the paper" if grows else "does not grow with mesh size"
    return table + f"\n\nPaper reference: {reference}; the reduction {verdict}."


def add_arguments(parser) -> None:
    """``repro.cli scalability`` flags."""
    parser.add_argument("--sizes", nargs="*", type=int, default=[4, 8, 16])
    parser.add_argument("--load", type=float, default=0.01)
    parser.add_argument("--measurement", type=int, default=4000)


def run(args, engine: dict) -> None:
    """Run the mesh-size sweep and print its table."""
    cells = scalability_cells(args.sizes, load=args.load, measurement=args.measurement)
    results = run_keyed("scalability", cells, **engine)
    for (size, scheme), record in results:
        print(
            f"[scalability] {size:2d}x{size:<2d} {scheme:15s} "
            f"lat={record.avg_total_latency:7.2f}"
        )
    print(report(results))
