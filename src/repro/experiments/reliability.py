"""Monte-Carlo reliability campaigns under sampled fault schedules.

Estimates two system-level reliability figures for the power-gated NoC
by sampling fault schedules from a seeded distribution (see
``repro.noc.faults.sample_fault_schedule``) and running each sample as
an independent campaign cell:

* **delivery probability** — the fraction of injected packets that are
  delivered (per-packet, aggregated over every trial);
* **deadlock probability** — the fraction of trials that tripped the
  deadlock watchdog or failed to drain (per-trial).

Both come with Wilson score confidence intervals, so small campaigns
report honest uncertainty instead of a bare ratio.  Every trial runs
with strict invariants, the deadlock watchdog, and (by default)
``degradation="reroute"`` — the fault-tolerant detour routing — so the
campaign doubles as a randomized stress test of the whole robustness
stack: any invariant violation quarantines the cell instead of being
averaged away.

The campaign is a pure function of its seeds: two runs with the same
arguments produce bit-identical estimates (the CI job diffs the JSON
output of two runs to prove it).

Usage::

    python -m repro.cli reliability --samples 200 --workers 4
    python -m repro.cli reliability --samples 50 --mesh 4 \
        --measurement 2000 --out results/reliability.json
"""

from __future__ import annotations

import json
import math
from typing import List, Optional, Sequence, Tuple

from ..campaign import Campaign, CellSpec
from ..noc import NoCConfig
from .common import format_table


def reliability_campaign(
    samples: int,
    *,
    pattern: str = "uniform_random",
    injection_rate: float = 0.02,
    scheme: str = "PowerPunch-PG",
    width: int = 8,
    height: int = 8,
    degradation: str = "reroute",
    dead_router_threshold: int = 200,
    max_faults: int = 2,
    horizon: int = 2000,
    warmup: int = 500,
    measurement: int = 4000,
    watchdog: int = 50_000,
    base_seed: int = 1,
) -> Campaign:
    """Declare ``samples`` independent reliability trials.

    Trial ``i`` samples its fault schedule from seed ``base_seed + i``;
    the robustness configuration is part of each cell's ``NoCConfig``
    (hence of its content address), so the campaign gives the same
    result under any ``--workers`` / ``--hosts`` fan-out.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    config = NoCConfig(
        width=width,
        height=height,
        degradation=degradation,
        dead_router_threshold=dead_router_threshold,
    )
    cells = tuple(
        CellSpec.reliability(
            base_seed + i,
            pattern=pattern,
            injection_rate=injection_rate,
            scheme=scheme,
            warmup=warmup,
            measurement=measurement,
            config=config,
            max_faults=max_faults,
            horizon=horizon,
            watchdog=watchdog,
        )
        for i in range(samples)
    )
    return Campaign(name=f"reliability-{pattern}-{scheme}", cells=cells)


def wilson_interval(
    successes: int, trials: int, z: float = 1.96
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Unlike the normal approximation it stays inside [0, 1] and behaves
    at p near 0/1 — exactly where reliability estimates live.
    """
    if trials <= 0:
        return (0.0, 1.0)
    if successes < 0 or successes > trials:
        raise ValueError(f"successes={successes} outside [0, {trials}]")
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(
        p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)
    )
    return (max(0.0, center - half), min(1.0, center + half))


def aggregate(outcomes: Sequence[dict]) -> dict:
    """Fold per-trial outcome dicts into the campaign estimate.

    Deterministic: outcomes are aggregated in seed order exactly as
    the campaign returned them, and every derived number is a pure
    function of the counts.
    """
    trials = len(outcomes)
    deadlocks = sum(1 for o in outcomes if o["deadlocked"])
    clean = sum(1 for o in outcomes if o["delivered_all"])
    injected = sum(o["injected"] for o in outcomes)
    delivered = sum(o["delivered"] for o in outcomes)
    refused = sum(o["refused"] for o in outcomes)
    dropped = sum(o["dropped"] for o in outcomes)
    delivery_ci = wilson_interval(delivered, injected)
    deadlock_ci = wilson_interval(deadlocks, trials)
    clean_ci = wilson_interval(clean, trials)
    return {
        "trials": trials,
        "deadlocks": deadlocks,
        "clean_trials": clean,
        "injected_packets": injected,
        "delivered_packets": delivered,
        "refused_packets": refused,
        "dropped_packets": dropped,
        "wakeup_retries": sum(o["wakeup_retries"] for o in outcomes),
        "rerouted_packets": sum(o["rerouted_packets"] for o in outcomes),
        "detour_hops": sum(o["detour_hops"] for o in outcomes),
        "delivery_probability": delivered / injected if injected else None,
        "delivery_ci95": list(delivery_ci),
        "deadlock_probability": deadlocks / trials if trials else None,
        "deadlock_ci95": list(deadlock_ci),
        "clean_trial_probability": clean / trials if trials else None,
        "clean_trial_ci95": list(clean_ci),
        "trial_outcomes": list(outcomes),
    }


def report(estimate: dict) -> str:
    """Human-readable summary of one campaign estimate."""
    rows = [
        [
            "delivery (per packet)",
            f"{estimate['delivered_packets']}/{estimate['injected_packets']}",
            _fmt_p(estimate["delivery_probability"]),
            _fmt_ci(estimate["delivery_ci95"]),
        ],
        [
            "deadlock (per trial)",
            f"{estimate['deadlocks']}/{estimate['trials']}",
            _fmt_p(estimate["deadlock_probability"]),
            _fmt_ci(estimate["deadlock_ci95"]),
        ],
        [
            "all-delivered trials",
            f"{estimate['clean_trials']}/{estimate['trials']}",
            _fmt_p(estimate["clean_trial_probability"]),
            _fmt_ci(estimate["clean_trial_ci95"]),
        ],
    ]
    table = format_table(
        ["metric", "count", "estimate", "95% CI (Wilson)"],
        rows,
        title="Monte-Carlo reliability estimate",
    )
    tail = (
        f"refused={estimate['refused_packets']} "
        f"dropped={estimate['dropped_packets']} "
        f"rerouted={estimate['rerouted_packets']} "
        f"detour_hops={estimate['detour_hops']} "
        f"wakeup_retries={estimate['wakeup_retries']}"
    )
    return f"{table}\n{tail}"


def _fmt_p(p: Optional[float]) -> str:
    return "-" if p is None else f"{p:.4f}"


def _fmt_ci(ci: List[float]) -> str:
    return f"[{ci[0]:.4f}, {ci[1]:.4f}]"


#: A trial runs the faults sampled from its seed under its own checker.
REFUSED_ROBUSTNESS = ("faults", "strict_invariants")


def add_arguments(parser) -> None:
    """``repro.cli reliability`` flags."""
    parser.add_argument("--samples", type=int, default=100)
    parser.add_argument("--pattern", default="uniform_random")
    parser.add_argument("--rate", type=float, default=0.02)
    parser.add_argument("--scheme", default="PowerPunch-PG")
    parser.add_argument("--mesh", type=int, default=8, help="mesh side (NxN)")
    parser.add_argument("--max-faults", type=int, default=2)
    parser.add_argument("--horizon", type=int, default=2000)
    parser.add_argument("--warmup", type=int, default=500)
    parser.add_argument("--measurement", type=int, default=4000)
    parser.add_argument("--base-seed", type=int, default=1)
    parser.add_argument("--out", default=None, help="write the estimate as JSON")


def run(args, engine: dict) -> None:
    """Run the campaign and print its estimate."""
    # Trials are built to survive faults: this experiment's values for
    # the robustness flags left unset differ from "leave cells alone".
    # The watchdog is the trial's own (its extras), not cell config: a
    # trial arms its checker itself.
    overrides = {
        "degradation": "reroute",
        "dead_router_threshold": 200,
        **dict(engine["config_overrides"]),
    }
    watchdog = overrides.pop("watchdog", 50_000)
    engine = {**engine, "config_overrides": overrides}
    campaign = reliability_campaign(
        args.samples,
        pattern=args.pattern,
        injection_rate=args.rate,
        scheme=args.scheme,
        width=args.mesh,
        height=args.mesh,
        degradation=overrides["degradation"],
        dead_router_threshold=overrides["dead_router_threshold"],
        max_faults=args.max_faults,
        horizon=args.horizon,
        warmup=args.warmup,
        measurement=args.measurement,
        watchdog=watchdog,
        base_seed=args.base_seed,
    )
    estimate = aggregate(campaign.run(**engine))
    print(report(estimate))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(estimate, fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"saved estimate to {args.out}")
