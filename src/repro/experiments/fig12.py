"""Figure 12: latency and router static power across the full load range.

Three synthetic patterns (uniform random, bit-complement, transpose)
are swept from near-zero load toward saturation under No-PG,
ConvOpt-PG and PowerPunch-PG, reporting average network latency and
average net router static power (watts) over the measurement window.

Expected shape (paper Sec. 6.4): ConvOpt-PG shows the "power-gating
curve" — a large latency penalty at low load that shrinks as more
routers stay on, then rises again toward saturation — while
PowerPunch-PG tracks No-PG across the whole range and reaches the same
saturation throughput.  Both PG schemes save most static power at low
load; ConvOpt-PG may be slightly better at medium load, at a large
performance cost.
"""

from __future__ import annotations

from typing import Sequence

from ..campaign import CellSpec
from .common import SWEEP_SCHEMES, format_table, pivot, run_keyed, save_csv

#: Sweep loads per pattern (flits/node/cycle).  Transpose and
#: bit-complement saturate earlier than uniform random (Fig. 12 axes).
DEFAULT_LOADS = {
    "uniform_random": [0.005, 0.01, 0.02, 0.05, 0.10, 0.15, 0.20],
    "bit_complement": [0.005, 0.01, 0.02, 0.04, 0.08, 0.12],
    "transpose": [0.005, 0.01, 0.02, 0.04, 0.08, 0.12],
}


def sweep_cells(
    pattern: str,
    loads: Sequence[float],
    warmup: int = 1000,
    measurement: int = 5000,
    schemes: Sequence[str] = tuple(SWEEP_SCHEMES),
):
    """Declare one pattern's load sweep, keyed ``(load, scheme)``."""
    return [
        (
            (load, scheme),
            CellSpec.synthetic(
                pattern,
                load,
                scheme,
                warmup=warmup,
                measurement=measurement,
                drain=False,
            ),
        )
        for load in loads
        for scheme in schemes
    ]


def report(pattern: str, results) -> str:
    """Format the latency and static-power tables for one pattern."""
    by_load = sorted(pivot(results).items())

    def table(title: str, value) -> str:
        rows = [
            [load] + [value(per[s]) for s in SWEEP_SCHEMES if s in per]
            for load, per in by_load
        ]
        return format_table(
            ["load"] + SWEEP_SCHEMES, rows, title=f"Figure 12 ({pattern}): {title}"
        )

    return "\n".join(
        [
            table("average packet latency (cycles)", lambda r: r.avg_total_latency),
            "",
            table("net router static power (W)", lambda r: r.static_power_w()),
        ]
    )


def add_arguments(parser) -> None:
    """``repro.cli fig12`` flags."""
    parser.add_argument(
        "--patterns",
        nargs="*",
        choices=list(DEFAULT_LOADS),
        default=list(DEFAULT_LOADS),
        help="patterns to sweep",
    )
    parser.add_argument("--measurement", type=int, default=5000)
    parser.add_argument("--csv", default=None, help="export all rows as CSV")


def run(args, engine: dict) -> None:
    """Sweep each pattern and print its table."""
    all_records = []
    for pattern in args.patterns:
        cells = sweep_cells(pattern, DEFAULT_LOADS[pattern], measurement=args.measurement)
        results = run_keyed(f"fig12-{pattern}", cells, **engine)
        for (load, scheme), record in results:
            print(
                f"[fig12] {pattern:15s} load={load:.3f} {scheme:15s} "
                f"lat={record.avg_total_latency:7.2f} "
                f"P_static={record.static_power_w():.3f} W"
            )
        all_records.extend(record for _, record in results)
        print()
        print(report(pattern, results))
        print()
    if args.csv:
        save_csv(all_records, args.csv)
        print(f"saved CSV to {args.csv}")
