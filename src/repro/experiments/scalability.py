"""Section 6.6(2): scalability with network size.

At 0.01 flits/node/cycle uniform random traffic, the paper reports
PowerPunch-PG reducing average packet latency versus ConvOpt-PG by
43.4% (4x4), 54.9% (8x8) and 69.1% (16x16): conventional power-gating
suffers cumulative wakeup latency that grows with hop count, while
punch signals keep hiding it, so the relative win grows with mesh size.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..campaign import Campaign, CellSpec, campaign_argparser, engine_options, require_mesh_topology
from ..noc import NoCConfig
from .common import RunRecord, format_table

_SCHEMES = ["No-PG", "ConvOpt-PG", "PowerPunch-PG"]


def scalability_campaign(
    sizes: Sequence[int] = (4, 8, 16),
    load: float = 0.01,
    measurement: int = 4000,
) -> Campaign:
    """Declare the mesh-size sweep of Sec. 6.6(2) as a campaign."""
    cells = tuple(
        CellSpec.synthetic(
            "uniform_random",
            load,
            scheme,
            config=NoCConfig(width=size, height=size),
            measurement=measurement,
            drain=False,
        )
        for size in sizes
        for scheme in _SCHEMES
    )
    return Campaign(name="scalability", cells=cells)


def run_scalability(
    sizes: Sequence[int] = (4, 8, 16),
    load: float = 0.01,
    measurement: int = 4000,
    verbose: bool = True,
    **engine,
) -> List[Tuple[int, str, RunRecord]]:
    """Run the mesh-size sweep of Sec. 6.6(2)."""
    campaign = scalability_campaign(sizes, load=load, measurement=measurement)
    records = campaign.run(**engine)
    keys = [(size, scheme) for size in sizes for scheme in _SCHEMES]
    results = [
        (size, scheme, record)
        for (size, scheme), record in zip(keys, records)
    ]
    if verbose:
        for size, scheme, record in results:
            print(
                f"[scalability] {size:2d}x{size:<2d} {scheme:15s} "
                f"lat={record.avg_total_latency:7.2f}"
            )
    return results


def report(results) -> str:
    """Format the scalability table with the paper reference line."""
    by_size: Dict[int, Dict[str, RunRecord]] = {}
    for size, scheme, record in results:
        by_size.setdefault(size, {})[scheme] = record
    rows = []
    for size in sorted(by_size):
        per = by_size[size]
        conv = per["ConvOpt-PG"].avg_total_latency
        pp = per["PowerPunch-PG"].avg_total_latency
        rows.append(
            [
                f"{size}x{size}",
                per["No-PG"].avg_total_latency,
                conv,
                pp,
                f"{1 - pp / conv:.1%}",
            ]
        )
    table = format_table(
        ["mesh", "No-PG", "ConvOpt-PG", "PowerPunch-PG", "PP reduction vs ConvOpt"],
        rows,
        title="Scalability (Sec. 6.6(2)): latency @ 0.01 flits/node/cycle",
    )
    return (
        table
        + "\n\nPaper reference: 43.4% (4x4), 54.9% (8x8), 69.1% (16x16); the "
        "reduction must grow with mesh size."
    )


def main(argv: Optional[Sequence[str]] = None) -> None:
    """CLI entry point."""
    parser = campaign_argparser(__doc__)
    parser.add_argument("--sizes", nargs="*", type=int, default=[4, 8, 16])
    parser.add_argument("--load", type=float, default=0.01)
    parser.add_argument("--measurement", type=int, default=4000)
    args = parser.parse_args(argv)
    require_mesh_topology(args, 'the scalability experiment')
    print(
        report(
            run_scalability(
                sizes=args.sizes,
                load=args.load,
                measurement=args.measurement,
                **engine_options(args),
            )
        )
    )


if __name__ == "__main__":
    main()
