"""The paper's abstract, as a single reproducible report.

    "Full system evaluation on PARSEC benchmarks shows Power Punch
    saves more than 83% of router static energy while having an
    execution time penalty of less than 0.4%, effectively achieving
    near non-blocking power-gating of on-chip network routers."

Runs the PARSEC suite (out of the cell cache, with ``--cache-dir``) and
prints the four headline quantities with their paper reference values.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional, Sequence

from ..campaign import campaign_argparser, engine_options, require_mesh_topology
from .common import mean
from .parsec_suite import run_suite


def compute_headline(records) -> dict:
    """Aggregate the abstract's four headline quantities from records."""
    by_bench = defaultdict(dict)
    for r in records:
        by_bench[r.workload][r.scheme] = r

    def avg(metric):
        out = {}
        for scheme in ("ConvOpt-PG", "PowerPunch-Signal", "PowerPunch-PG"):
            out[scheme] = mean([metric(per, scheme) for per in by_bench.values()])
        return out

    latency_pen = avg(
        lambda per, s: per[s].avg_total_latency / per["No-PG"].avg_total_latency - 1
    )
    exec_pen = avg(
        lambda per, s: per[s].execution_time / per["No-PG"].execution_time - 1
    )
    static_saved = avg(
        lambda per, s: 1 - per[s].net_static_energy / per["No-PG"].static_energy
    )
    total_saved = avg(
        lambda per, s: 1 - per[s].total_energy / per["No-PG"].total_energy
    )
    conv = latency_pen["ConvOpt-PG"]
    reduction = 1 - latency_pen["PowerPunch-PG"] / conv if conv else 0.0
    return {
        "latency_penalty": latency_pen,
        "execution_penalty": exec_pen,
        "static_saved": static_saved,
        "total_saved": total_saved,
        "penalty_reduction_vs_convopt": reduction,
    }


def report(records) -> str:
    """Format the headline report with paper reference values."""
    h = compute_headline(records)
    lines = [
        "Power Punch headline reproduction (8x8 mesh, PARSEC profiles)",
        "",
        f"  router static energy saved (PowerPunch-PG) "
        f"{h['static_saved']['PowerPunch-PG']:.1%}   (paper: >83%)",
        f"  execution-time penalty (PowerPunch-PG)     "
        f"{h['execution_penalty']['PowerPunch-PG']:+.1%}    (paper: <0.4%)",
        f"  packet-latency penalty (PowerPunch-PG)     "
        f"{h['latency_penalty']['PowerPunch-PG']:+.1%}    (paper: +7.9%)",
        f"  latency-penalty reduction vs ConvOpt-PG    "
        f"{h['penalty_reduction_vs_convopt']:.1%}   (paper: 61.2%)",
        "",
        "  per scheme:",
    ]
    for scheme in ("ConvOpt-PG", "PowerPunch-Signal", "PowerPunch-PG"):
        lines.append(
            f"    {scheme:18s} latency {h['latency_penalty'][scheme]:+7.1%}  "
            f"exec {h['execution_penalty'][scheme]:+6.1%}  "
            f"static saved {h['static_saved'][scheme]:6.1%}  "
            f"total energy saved {h['total_saved'][scheme]:6.1%}"
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> None:
    """CLI entry point."""
    parser = campaign_argparser(__doc__, instructions=True)
    args = parser.parse_args(argv)
    require_mesh_topology(args, 'the headline experiment')
    print(report(run_suite(instructions=args.instructions, **engine_options(args))))


if __name__ == "__main__":
    main()
