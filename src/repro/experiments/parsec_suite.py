"""Full PARSEC x scheme sweep behind Figures 7-11.

The 8-benchmark, 4-scheme matrix is declared as campaign cells and
executed through :mod:`repro.campaign`: with ``--cache-dir`` every
(benchmark, scheme, config, seed) cell is content-addressed on disk,
and ``--workers N`` fans the matrix out over a process pool.
``repro.cli report`` (:mod:`.headline`) runs the same matrix at seeds
1-5, so against the same ``--cache-dir`` this command's seed is 32
hits there.  ``--out`` / ``--csv`` are export products for external
plotting; no command reads them back.  :func:`summarize` reduces one
seed's matrix; the report formats and checks those summaries.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..campaign import Campaign, CellSpec
from ..system import PARSEC_BENCHMARKS
from .common import (
    CANONICAL_INSTRUCTIONS,
    SCHEME_ORDER,
    RunRecord,
    mean,
    pivot,
    save_csv,
    save_records,
)


def suite_campaign(
    benchmarks: Optional[Sequence[str]] = None,
    schemes: Optional[Sequence[str]] = None,
    instructions: int = CANONICAL_INSTRUCTIONS,
    seed: int = 1,
) -> Campaign:
    """Declare the benchmark x scheme matrix as a campaign."""
    benchmarks = list(benchmarks or PARSEC_BENCHMARKS)
    schemes = list(schemes or SCHEME_ORDER)
    cells = tuple(
        CellSpec.parsec(bench, scheme, instructions=instructions, seed=seed)
        for bench in benchmarks
        for scheme in schemes
    )
    return Campaign(name="parsec-suite", cells=cells)


def run_suite(
    benchmarks: Optional[Sequence[str]] = None,
    schemes: Optional[Sequence[str]] = None,
    instructions: int = CANONICAL_INSTRUCTIONS,
    seed: int = 1,
    verbose: bool = True,
    **engine,
) -> List[RunRecord]:
    """Run the benchmark x scheme matrix through the campaign engine.

    Every cell is independent and carries its own seed, so with
    ``workers > 1`` the matrix fans out over a process pool; results
    come back in the same benchmark-major order either way.  Extra
    keyword arguments (``workers``, ``cache_dir``, ``resume``,
    ``timeout``, ``max_retries``, ``hosts``, ...) go straight
    to :meth:`repro.campaign.Campaign.run`.
    """
    campaign = suite_campaign(
        benchmarks=benchmarks, schemes=schemes, instructions=instructions, seed=seed
    )
    records = campaign.run(**engine)
    if verbose:
        for record in records:
            print(
                f"[suite] {record.workload:13s} {record.scheme:18s} "
                f"exec={record.execution_time:7d} "
                f"lat={record.avg_total_latency:6.2f} "
                f"blk={record.avg_blocked_routers:5.2f} "
                f"wait={record.avg_wakeup_wait:6.2f}"
            )
    return records


#: The suite's per-scheme figures: name -> f(record, the benchmark's
#: No-PG record), averaged over benchmarks by :func:`summarize`.
SUMMARY_METRICS = {
    # Average packet latency (creation to delivery) and execution time,
    # as the increase over No-PG.
    "latency_penalty": lambda r, base: r.avg_total_latency / base.avg_total_latency - 1,
    "execution_penalty": lambda r, base: r.execution_time / base.execution_time - 1,
    # Powered-off routers met, and cycles spent waiting for a wakeup, per packet.
    "blocked_routers": lambda r, base: r.avg_blocked_routers,
    "wakeup_wait": lambda r, base: r.avg_wakeup_wait,
    # Router energy saved; static is charged with the PG overhead (Sec. 6.3).
    "static_saved": lambda r, base: 1 - r.net_static_energy / base.static_energy,
    "total_saved": lambda r, base: 1 - r.total_energy / base.total_energy,
}


def summarize(records: Sequence[RunRecord]):
    """Reduce suite records to the one summary every report formats.

    Returns ``(by_bench, avg)``: the records as ``{benchmark: {scheme:
    record}}`` (benchmarks sorted) and ``avg[metric][scheme]``, the
    arithmetic mean over benchmarks of each :data:`SUMMARY_METRICS` entry.
    """
    table = pivot(((r.workload, r.scheme), r) for r in records)
    by_bench = dict(sorted(table.items()))
    avg = {
        name: {
            scheme: mean([metric(per[scheme], per["No-PG"]) for per in by_bench.values()])
            for scheme in SCHEME_ORDER
        }
        for name, metric in SUMMARY_METRICS.items()
    }
    return by_bench, avg


def add_arguments(parser) -> None:
    """``repro.cli parsec-suite`` flags."""
    parser.add_argument("--instructions", type=int, default=CANONICAL_INSTRUCTIONS)
    parser.add_argument("--out", default="results/parsec_suite.json")
    parser.add_argument("--csv", default=None, help="also export rows as CSV")
    parser.add_argument("--benchmarks", nargs="*", default=None)
    parser.add_argument("--seed", type=int, default=1)


def run(args, engine: dict) -> None:
    """Run the matrix and write the JSON product."""
    records = run_suite(
        benchmarks=args.benchmarks,
        instructions=args.instructions,
        seed=args.seed,
        **engine,
    )
    save_records(records, args.out)
    print(f"saved {len(records)} records to {args.out}")
    if args.csv:
        save_csv(records, args.csv)
        print(f"saved CSV to {args.csv}")
