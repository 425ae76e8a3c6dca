#!/usr/bin/env python3
"""Closed-loop CMP campaign: PARSEC-style workloads on a 64-core mesh.

Declares one campaign cell per (benchmark, scheme) and runs the matrix
through the campaign engine — the same declarative path the figure
scripts use — then reports the paper's Figures 7-10 metrics.  Pass
benchmark names to change the subset, and ``--workers``/``--cache-dir``
to fan out or reuse cached cells, e.g.:

    python examples/parsec_campaign.py canneal dedup x264 --workers 3
"""

from repro.campaign import Campaign, CellSpec
from repro.cli import campaign_argparser, engine_options
from repro.system import PARSEC_BENCHMARKS


def main():
    parser = campaign_argparser(__doc__)
    parser.add_argument(
        "benchmarks", nargs="*", default=["blackscholes", "ferret", "canneal"]
    )
    parser.add_argument("--instructions", type=int, default=1200)
    args = parser.parse_args()
    for name in args.benchmarks:
        if name not in PARSEC_BENCHMARKS:
            raise SystemExit(f"unknown benchmark {name!r}: {PARSEC_BENCHMARKS}")

    schemes = ["No-PG", "ConvOpt-PG", "PowerPunch-PG"]
    campaign = Campaign(
        name="example-parsec",
        cells=tuple(
            CellSpec.parsec(bench, scheme, instructions=args.instructions, seed=1)
            for bench in args.benchmarks
            for scheme in schemes
        ),
    )
    records = campaign.run(**engine_options(args))

    print(
        f"{'benchmark':13s} {'scheme':15s} {'exec':>8s} {'exec pen':>9s} "
        f"{'latency':>8s} {'blocked':>8s} {'wait':>6s}"
    )
    by_bench = {}
    for record in records:
        by_bench.setdefault(record.workload, []).append(record)
    for benchmark in args.benchmarks:
        base_exec = by_bench[benchmark][0].execution_time
        for res in by_bench[benchmark]:
            print(
                f"{benchmark:13s} {res.scheme:15s} {res.execution_time:8d} "
                f"{res.execution_time / base_exec - 1:+9.1%} "
                f"{res.avg_total_latency:8.2f} {res.avg_blocked_routers:8.2f} "
                f"{res.avg_wakeup_wait:6.2f}"
            )
        print()
    print(
        "Expected shape (paper Figs. 7-10): ConvOpt-PG pays a large latency\n"
        "penalty and a visible execution-time penalty; PowerPunch-PG stays\n"
        "within ~1% of No-PG execution time."
    )


if __name__ == "__main__":
    main()
