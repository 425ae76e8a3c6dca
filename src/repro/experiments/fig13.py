"""Figure 13: sensitivity to wakeup latency and router pipeline depth.

Uniform-random traffic at the PARSEC-average load rate, a 3-hop punch
signal, and (Twakeup, Trouter) swept over {6, 8, 10} x 3-stage and
{8, 10, 12} x 4-stage.

Expected shape: ConvOpt-PG pays 1.5x-2x latency everywhere;
PowerPunch-PG stays within a few percent of No-PG except the
Twakeup=10 / 3-stage point, where the 3-hop punch (hides up to
3 x Trouter = 9 cycles) cannot cover the full wakeup latency — the
paper reports 9.2% there and notes a 4-hop punch removes it.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..campaign import CellSpec
from ..noc import NoCConfig
from .common import SWEEP_SCHEMES, format_table, pivot, run_keyed

#: (router_stages, wakeup_latency) points of Fig. 13.
DEFAULT_POINTS: List[Tuple[int, int]] = [
    (3, 6),
    (3, 8),
    (3, 10),
    (4, 8),
    (4, 10),
    (4, 12),
]

#: Average PARSEC load from the paper's characterization regime.
PARSEC_AVG_LOAD = 0.006


def _scheme_kwargs(scheme: str, twakeup: int, punch_hops: int) -> dict:
    kwargs = {}
    if scheme != "No-PG":
        kwargs["wakeup_latency"] = twakeup
    if scheme == "PowerPunch-PG":
        kwargs["punch_hops"] = punch_hops
    return kwargs


def sensitivity_cells(
    points: Sequence[Tuple[int, int]] = tuple(DEFAULT_POINTS),
    load: float = PARSEC_AVG_LOAD,
    punch_hops: int = 3,
    measurement: int = 5000,
):
    """Declare the (pipeline, Twakeup) sensitivity grid, keyed
    ``((stages, twakeup), scheme)``."""
    return [
        (
            ((stages, twakeup), scheme),
            CellSpec.synthetic(
                "uniform_random",
                load,
                scheme,
                config=NoCConfig(router_stages=stages),
                measurement=measurement,
                drain=False,
                scheme_kwargs=_scheme_kwargs(scheme, twakeup, punch_hops),
            ),
        )
        for stages, twakeup in points
        for scheme in SWEEP_SCHEMES
    ]


def report(results) -> str:
    """Format the Fig. 13 sensitivity table."""
    rows = []
    for (stages, twakeup), per in sorted(pivot(results).items()):
        base = per["No-PG"].avg_total_latency
        rows.append(
            [
                f"{stages}-stage",
                twakeup,
                per["No-PG"].avg_total_latency,
                per["ConvOpt-PG"].avg_total_latency,
                per["PowerPunch-PG"].avg_total_latency,
                f"{per['PowerPunch-PG'].avg_total_latency / base - 1:+.1%}",
            ]
        )
    return format_table(
        ["pipeline", "Twakeup", "No-PG", "ConvOpt-PG", "PowerPunch-PG", "PP penalty"],
        rows,
        title=(
            "Figure 13: average packet latency vs wakeup latency "
            "(uniform random @ PARSEC-average load, 3-hop punch)"
        ),
    )


def add_arguments(parser) -> None:
    """``repro.cli fig13`` flags."""
    parser.add_argument("--load", type=float, default=PARSEC_AVG_LOAD)
    parser.add_argument("--measurement", type=int, default=5000)


def run(args, engine: dict) -> None:
    """Run the sensitivity sweep and print its table."""
    cells = sensitivity_cells(load=args.load, measurement=args.measurement)
    results = run_keyed("fig13", cells, **engine)
    for ((stages, twakeup), scheme), record in results:
        print(
            f"[fig13] {stages}-stage Twakeup={twakeup:2d} {scheme:15s} "
            f"lat={record.avg_total_latency:7.2f}"
        )
    print(report(results))
