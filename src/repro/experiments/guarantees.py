"""Guarantees mode: certified latency bounds and their tightness.

Two complementary guarantees for the power-gated NoC:

1. **The non-blocking certificate** — the analytical identity at the
   heart of the paper's claim: PowerPunch's certified worst-case
   per-route latency bound equals the always-on (No-PG) bound for
   *every* route, because the punch hides the whole wakeup latency
   (``wakeup_latency <= punch_hops * router_stages``).  ConvOpt-PG, by
   contrast, pays the full wakeup per gated hop — its bound is
   strictly larger on every route.  :func:`certificate_report` proves
   (or refutes) both route by route via
   :func:`repro.guarantees.certify_non_blocking`.

2. **Bound-tightness validation** — a campaign of fault-free
   ``guarantees`` cells (see :mod:`repro.campaign.spec`) that replays
   synthetic traffic with a :class:`repro.guarantees.BoundChecker` on
   the delivery stream and reports, per scheme x load, how close the
   observed worst case comes to the certified bound (and any
   violations, which are *data* in the default non-strict mode), with
   the window's exact p50/p95/p99 network latency.

Usage::

    python -m repro.cli guarantees --loads 0.02 0.2 --out bounds.json
    python -m repro.cli guarantees --certify-only
"""

from __future__ import annotations

import json
from typing import Dict, Optional, Sequence

from ..campaign import CellSpec
from ..core import ConvOptPG, PowerPunchPG
from ..guarantees import certify_non_blocking
from ..noc import NoCConfig
from .common import format_table, run_keyed

_DEFAULT_LOADS = (0.02, 0.10, 0.20)

#: ``-`` is the always-on reference (no policy attached at all); the
#: two gated schemes bracket the certificate.
_DEFAULT_SCHEMES = ("-", "ConvOpt-PG", "PowerPunch-PG")


# ----------------------------------------------------------------------
# The non-blocking certificate
# ----------------------------------------------------------------------
def certificate_report(config: Optional[NoCConfig] = None) -> Dict[str, dict]:
    """Route-by-route certificates for both gated schemes vs No-PG."""
    if config is None:
        config = NoCConfig()
    return {
        "PowerPunch-PG": certify_non_blocking(config, PowerPunchPG()),
        "ConvOpt-PG": certify_non_blocking(config, ConvOptPG()),
    }


def render_certificates(certificates: Dict[str, dict]) -> str:
    """Human-readable certificate table."""
    rows = [
        [
            name,
            f"{cert['equal_routes']}/{cert['routes']}",
            "YES" if cert["non_blocking"] else "no",
            cert["max_gap_cycles"],
            cert["wakeup_penalty_per_hop"],
        ]
        for name, cert in certificates.items()
    ]
    return format_table(
        ["scheme", "routes == No-PG", "non-blocking", "max gap (cyc)", "penalty/hop"],
        rows,
        title="Non-blocking certificate (analytical, every route)",
    )


# ----------------------------------------------------------------------
# Bound-tightness campaign
# ----------------------------------------------------------------------
def guarantees_cells(
    *,
    loads: Sequence[float] = _DEFAULT_LOADS,
    schemes: Sequence[str] = _DEFAULT_SCHEMES,
    pattern: str = "uniform_random",
    mesh: int = 8,
    warmup: int = 500,
    measurement: int = 2000,
    seed: int = 7,
    strict: bool = False,
):
    """Declare one bound-validation cell per ``(scheme, load)`` key."""
    config = NoCConfig(width=mesh, height=mesh)
    return [
        (
            (scheme, load),
            CellSpec.guarantees(
                pattern,
                load,
                scheme,
                warmup=warmup,
                measurement=measurement,
                seed=seed,
                config=config,
                strict=strict,
            ),
        )
        for scheme in schemes
        for load in loads
    ]


#: Payload fields a tightness-summary cell carries over unchanged.
_CELL_FIELDS = (
    "checked", "violations", "worst_ratio", "worst", "delivered",
    "avg_latency", "p50", "p95", "p99", "model",
)  # fmt: skip


def aggregate(results) -> dict:
    """Fold ``((scheme, load), payload)`` results into the JSON-ready
    tightness summary."""
    cells = [
        {
            "scheme": scheme,
            "load": load,
            "violation_details": payload["violation_summaries"],
            **{name: payload[name] for name in _CELL_FIELDS},
        }
        for (scheme, load), payload in results
    ]
    violations = sum(cell["violations"] for cell in cells)
    return {
        "cells": cells,
        "checked_packets": sum(cell["checked"] for cell in cells),
        "violations": violations,
        "all_within_bounds": violations == 0,
    }


def report(summary: dict) -> str:
    """Human-readable tightness table."""
    rows = []
    for cell in summary["cells"]:
        worst = cell["worst"]
        worst_txt = (
            f"{worst['observed']}/{worst['bound']}" if worst else "-"
        )
        rows.append(
            [
                "always-on" if cell["scheme"] == "-" else cell["scheme"],
                f"{cell['load']:g}",
                cell["checked"],
                cell["violations"],
                f"{cell['worst_ratio']:.3f}",
                worst_txt,
                _fmt(cell["p50"]),
                _fmt(cell["p99"]),
            ]
        )
    table = format_table(
        [
            "scheme",
            "load",
            "checked",
            "violations",
            "worst/bound",
            "worst (obs/cert)",
            "p50",
            "p99",
        ],
        rows,
        title="Latency-bound tightness (observed vs certified)",
    )
    verdict = (
        "all delivered packets within certified bounds"
        if summary["all_within_bounds"]
        else f"{summary['violations']} bound violation(s) recorded"
    )
    return f"{table}\n{verdict} over {summary['checked_packets']} checked packets"


def _fmt(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:g}"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
#: Bounds certify the fault-free pipeline, where no router dies.
REFUSED_ROBUSTNESS = ("faults", "degradation", "dead_router_threshold")


def add_arguments(parser) -> None:
    """``repro.cli guarantees`` flags."""
    parser.add_argument(
        "--loads",
        type=float,
        nargs="+",
        default=list(_DEFAULT_LOADS),
        help="injection rates to validate (flits/node/cycle)",
    )
    parser.add_argument(
        "--schemes",
        nargs="+",
        default=list(_DEFAULT_SCHEMES),
        help="schemes to validate ('-' = always-on reference)",
    )
    parser.add_argument("--pattern", default="uniform_random")
    parser.add_argument("--mesh", type=int, default=8, help="mesh side (NxN)")
    parser.add_argument("--warmup", type=int, default=500)
    parser.add_argument("--measurement", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--strict",
        action="store_true",
        help="raise on the first violating packet instead of recording "
        "violations as campaign data",
    )
    parser.add_argument(
        "--certify-only",
        action="store_true",
        help="print the analytical non-blocking certificate and exit "
        "without simulating",
    )
    parser.add_argument("--out", default=None, help="write results as JSON")


def run(args, engine: dict) -> None:
    """Print the certificates, then validate the bounds by simulation."""
    config = NoCConfig(width=args.mesh, height=args.mesh)
    certificates = certificate_report(config)
    print(render_certificates(certificates))
    results: Dict[str, object] = {"certificates": certificates}
    if not args.certify_only:
        cells = guarantees_cells(
            loads=args.loads,
            schemes=args.schemes,
            pattern=args.pattern,
            mesh=args.mesh,
            warmup=args.warmup,
            measurement=args.measurement,
            seed=args.seed,
            strict=args.strict,
        )
        name = f"guarantees-{args.pattern}-mesh{args.mesh}"
        summary = aggregate(run_keyed(name, cells, **engine))
        print(report(summary))
        results["tightness"] = summary
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"saved results to {args.out}")
