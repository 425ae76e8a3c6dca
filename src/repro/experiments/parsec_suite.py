"""Full PARSEC x scheme sweep shared by Figures 7-11.

The 8-benchmark, 4-scheme matrix is declared as campaign cells and
executed through :mod:`repro.campaign`: with ``--cache-dir`` every
(benchmark, scheme, config, seed) cell is content-addressed on disk,
so re-runs recompute only invalidated cells, and ``--workers N`` fans
the matrix out over a process pool.  The per-figure scripts run the
same matrix through :func:`run_suite`, so with the same ``--cache-dir``
they are 32 hits of what this command stored — and misses as soon as
anything that changes a result differs::

    python -m repro.experiments.parsec_suite --out results/parsec_suite.json \\
        --workers 4 --cache-dir results/cellcache
    python -m repro.cli fig7-fig8 --cache-dir results/cellcache

``--out`` / ``--csv`` are export products for external plotting; no
command reads them back.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..campaign import Campaign, CellSpec, campaign_argparser, engine_options, require_mesh_topology
from ..system import PARSEC_BENCHMARKS
from .common import (
    CANONICAL_INSTRUCTIONS,
    SCHEME_ORDER,
    RunRecord,
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
    ``timeout``, ``max_retries``, ``quarantine_dir``, ...) go straight
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


def main(argv: Optional[Sequence[str]] = None) -> None:
    """CLI entry point: run the matrix and write the JSON product."""
    parser = campaign_argparser(__doc__, instructions=True)
    parser.add_argument("--out", default="results/parsec_suite.json")
    parser.add_argument("--csv", default=None, help="also export rows as CSV")
    parser.add_argument("--benchmarks", nargs="*", default=None)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    require_mesh_topology(args, 'the PARSEC suite')
    records = run_suite(
        benchmarks=args.benchmarks,
        instructions=args.instructions,
        seed=args.seed,
        **engine_options(args),
    )
    save_records(records, args.out)
    print(f"saved {len(records)} records to {args.out}")
    if args.csv:
        from .common import save_csv

        save_csv(records, args.csv)
        print(f"saved CSV to {args.csv}")


if __name__ == "__main__":
    main()
