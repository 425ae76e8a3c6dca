"""Table 1 and Figure 5: punch-signal encoding.

Regenerates, by exhaustive enumeration over an 8x8 mesh with XY
routing and 3-hop punch slack:

* the 22 distinct sets of targeted routers on the X+ link of R27
  (the paper's Table 1) with assigned punch codes;
* the chip-wide punch-signal widths: 5 bits per X link and 2 bits per
  Y link (Fig. 5), and the 4-hop X width of 8 bits (Sec. 4.1).
"""

from __future__ import annotations

from ..core import PunchEncodingAnalysis
from ..noc import Direction, MeshTopology
from .common import format_table
from .paper_targets import PAPER


def report(width: int = 8, hops: int = 3, router: int = 27) -> str:
    """Regenerate Table 1, the Fig. 5 widths and the area estimate."""
    topology = MeshTopology(width, width)
    analysis = PunchEncodingAnalysis(topology, hops=hops)
    enc = analysis.analyze_link(router, Direction.XPOS)
    rows = [
        [i + 1, "{" + ", ".join(str(t) for t in sorted(s)) + "}", code]
        for i, (s, code) in enumerate(analysis.encoding_table(router, Direction.XPOS))
    ]
    bits, bits4 = PAPER["punch_bits"], PAPER["punch_bits_4hop"]
    lines = [
        format_table(
            ["#", "set of targeted routers", "punch signal"],
            rows,
            title=(
                f"Table 1: distinct targeted-router sets, X+ of R{router} "
                f"({width}x{width} mesh, {hops}-hop slack)"
            ),
        ),
        "",
        f"Sources on this link: {enc.sources} "
        f"(paper: {PAPER['table1_sources']} for R27 via XY turn restrictions)",
        f"Distinct sets: {len(enc.distinct_sets)} (paper: {PAPER['table1_sets']}) -> "
        f"{enc.width_bits}-bit punch signal (paper: {bits['x']} bits)",
        "",
        f"Chip-wide widths ({hops}-hop): X = {analysis.max_width('x')} bits, "
        f"Y = {analysis.max_width('y')} bits "
        f"(paper Fig. 5: {bits['x']} and {bits['y']})",
    ]
    analysis4 = PunchEncodingAnalysis(topology, hops=4)
    enc4x = analysis4.analyze_link(router, Direction.XPOS)
    enc4y = analysis4.analyze_link(router, Direction.YPOS)
    lines.append(
        f"4-hop widths at R{router}: X = {enc4x.width_bits} bits "
        f"(paper: {bits4['x']}), Y = {enc4y.width_bits} bits "
        f"(paper claims {bits4['y']}; exhaustive enumeration "
        f"finds {len(enc4y.distinct_sets)} sets + idle -> 3 bits, see "
        "EXPERIMENTS.md)"
    )
    from ..power import estimate_punch_area

    est = estimate_punch_area(topology, hops=hops)
    lines.append(
        f"Hardware cost (Sec. 6.6(1)): wiring {est.wiring_overhead:.2%} + "
        f"logic {est.logic_overhead:.2%} = {est.total_overhead:.2%} extra NoC "
        f"area (paper: {PAPER['area_overhead']:.1%})"
    )
    return "\n".join(lines)


def add_arguments(parser) -> None:
    """``repro.cli table1`` flags."""
    parser.add_argument("--width", type=int, default=8)
    parser.add_argument("--hops", type=int, default=3)
    parser.add_argument("--router", type=int, default=27)


def run(args) -> None:
    """Print Table 1 for the parsed options: a function call, not a
    cell, so it reads no store and takes no engine options."""
    print(report(width=args.width, hops=args.hops, router=args.router))
