"""Cross-topology baseline comparison at matched bisection load.

The punch schemes are mesh-only (their punch-target decomposition is
derived from XY turn restrictions), so this campaign compares the
topology-portable schemes — No-PG and conventional optimized
power-gating (ConvOpt-PG) — across the three fabrics of the topology
layer: the paper's 8x8 mesh, an 8x8 torus, and a 64-node ring.

Injection rates are scaled per fabric so the expected per-channel load
on the bisection cut matches the mesh reference rate: with a matched
node count N, uniform-random traffic sends ~N*r/2 flits/cycle across
the cut, so ``r_fabric = r_mesh * B_fabric / B_mesh`` where B is the
directed bisection link count (8x8 mesh: 16, 8x8 torus: 32, 64-ring:
4 — the torus runs twice the mesh rate, the ring one quarter of it).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..campaign import Campaign, CellSpec
from ..noc import NoCConfig
from .common import format_table, pivot, run_keyed

_SCHEMES = ["No-PG", "ConvOpt-PG"]

#: (topology, width, height) — matched 64-node fabrics.
FABRICS: Tuple[Tuple[str, int, int], ...] = (
    ("mesh", 8, 8),
    ("torus", 8, 8),
    ("ring", 64, 1),
)


def bisection_links(topology: str, width: int, height: int) -> int:
    """Directed link count across the fabric's X-middle bisection cut."""
    if topology == "mesh":
        return 2 * height
    if topology == "torus":
        return 4 * height
    if topology == "ring":
        return 4
    raise ValueError(f"unknown topology {topology!r}")


def matched_rate(
    base_rate: float, topology: str, width: int, height: int
) -> float:
    """Injection rate giving the same bisection channel load as an
    equal-node mesh running at ``base_rate``."""
    mesh_b = bisection_links("mesh", width, height)
    if topology == "ring":
        # The equal-node mesh reference for an N-ring is the sqrt(N)
        # square mesh (64-ring vs 8x8 mesh).
        side = max(1, round(width**0.5))
        mesh_b = bisection_links("mesh", side, side)
    return base_rate * bisection_links(topology, width, height) / mesh_b


def topologies_cells(
    base_rate: float = 0.02,
    measurement: int = 4000,
    fabrics: Sequence[Tuple[str, int, int]] = FABRICS,
):
    """Declare the cross-topology comparison, keyed
    ``("<topology>:<W>x<H>", scheme)``.

    Cells are keyed on the full ``NoCConfig`` (including ``topology``),
    so mesh cells share cache entries with other mesh campaigns and
    torus/ring cells get distinct keys.
    """
    return [
        (
            (f"{topology}:{width}x{height}", scheme),
            CellSpec.synthetic(
                "uniform_random",
                round(matched_rate(base_rate, topology, width, height), 6),
                scheme,
                config=NoCConfig(width=width, height=height, topology=topology),
                measurement=measurement,
                drain=False,
            ),
        )
        for topology, width, height in fabrics
        for scheme in _SCHEMES
    ]


def topologies_campaign(
    base_rate: float = 0.02,
    measurement: int = 4000,
    fabrics: Sequence[Tuple[str, int, int]] = FABRICS,
) -> Campaign:
    """The declared cells as a plain campaign (the CI warm-cache check
    reads ``.cells``)."""
    cells = topologies_cells(base_rate, measurement=measurement, fabrics=fabrics)
    return Campaign(name="topologies", cells=tuple(cell for _, cell in cells))


def report(results) -> str:
    """Format the cross-topology table.

    Latency is absolute (cycles); energy is normalized per fabric to
    that fabric's own No-PG total, so the PG-saving column is
    comparable across fabrics despite their different port counts.
    """
    rows = []
    for fabric, per in pivot(results).items():
        nopg = per["No-PG"]
        conv = per["ConvOpt-PG"]
        rows.append(
            [
                fabric,
                nopg.injection_rate,
                nopg.avg_total_latency,
                conv.avg_total_latency,
                f"{conv.avg_total_latency / nopg.avg_total_latency:.2f}x",
                f"{1 - conv.total_energy / nopg.total_energy:.1%}",
            ]
        )
    table = format_table(
        [
            "fabric",
            "rate",
            "No-PG lat",
            "ConvOpt-PG lat",
            "PG slowdown",
            "PG energy saved",
        ],
        rows,
        title="Cross-topology baselines @ matched bisection channel load",
    )
    return (
        table
        + "\n\nRates are bisection-matched to the 8x8 mesh reference "
        "(torus 2x, ring 1/4x).  Punch schemes are mesh-only; the "
        "wrapped fabrics route with dateline VC classes."
    )


def add_arguments(parser) -> None:
    """``repro.cli topologies`` flags."""
    parser.add_argument("--base-rate", type=float, default=0.02)
    parser.add_argument("--measurement", type=int, default=4000)
    parser.add_argument(
        "--topology",
        choices=("mesh", "torus", "ring"),
        default="mesh",
        help="torus or ring narrows the comparison to that one fabric",
    )


def run(args, engine: dict) -> None:
    """Run the cross-fabric comparison and print its table."""
    # This experiment spans all fabrics by default; a non-default
    # --topology narrows the comparison to that single fabric.
    fabrics = FABRICS
    if args.topology != "mesh":
        fabrics = tuple(f for f in FABRICS if f[0] == args.topology)
    cells = topologies_cells(args.base_rate, measurement=args.measurement, fabrics=fabrics)
    results = run_keyed("topologies", cells, **engine)
    for (fabric, scheme), record in results:
        print(
            f"[topologies] {fabric:12s} {scheme:12s} "
            f"lat={record.avg_total_latency:7.2f} "
            f"E={record.total_energy * 1e6:8.2f}uJ"
        )
    print(report(results))
