"""The PARSEC evaluation in one report: Figs 7-11 and every paper claim.

    "Full system evaluation on PARSEC benchmarks shows Power Punch
    saves more than 83% of router static energy while having an
    execution time penalty of less than 0.4%, effectively achieving
    near non-blocking power-gating of on-chip network routers."

``repro.cli report`` runs the PARSEC suite at every seed of
:data:`SEEDS` as one 160-cell campaign and prints the Fig. 7-11
tables (seed means) and a markdown table of :data:`CLAIMS`, each with
its paper number (read from ``PAPER`` at print time), measured mean
[min–max] over seeds and verdict (:meth:`Claim.verdict`).
EXPERIMENTS.md carries the claim table verbatim.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..campaign import campaign_argparser, parse_campaign_args
from .common import (
    PG_SCHEMES,
    SCHEME_ORDER,
    RunRecord,
    format_table,
    mean,
    run_keyed,
)
from .paper_targets import PAPER
from .parsec_suite import suite_campaign, summarize

#: The seeds every claim is measured over.
SEEDS = (1, 2, 3, 4, 5)


def compute_headline(records) -> dict:
    """Aggregate the abstract's four headline quantities from records."""
    _, avg = summarize(records)
    headline = {
        name: {scheme: avg[name][scheme] for scheme in PG_SCHEMES}
        for name in ("latency_penalty", "execution_penalty", "static_saved", "total_saved")
    }
    conv = headline["latency_penalty"]["ConvOpt-PG"]
    headline["penalty_reduction_vs_convopt"] = (
        1 - headline["latency_penalty"]["PowerPunch-PG"] / conv if conv else 0.0
    )
    return headline


# ----------------------------------------------------------------------
# Claims
# ----------------------------------------------------------------------
#: A claim's measurement on one seed: f(by_bench, avg) of that seed's
#: :func:`~.parsec_suite.summarize`.
Measure = Callable[[dict, dict], float]

_OPS = {"<": operator.lt, "≤": operator.le, ">": operator.gt, "≥": operator.ge}


@dataclass(frozen=True)
class Claim:
    """One row of the claim table."""

    figure: str
    text: str
    kind: str  # "value", "bound" or "shape"
    measure: Measure
    #: f(PAPER) for a value or bound; a shape's fixed threshold.
    target: Union[Callable[[dict], float], float]
    op: str = ""  # a key of _OPS; bound and shape claims only
    fmt: str = "+.1%"

    def paper(self) -> float:
        return self.target(PAPER) if callable(self.target) else self.target

    def verdict(self, values: Sequence[float]) -> str:
        """The one rule.  A *value* (a number the paper reports)
        "reproduces" iff it lies within the seeds' [min, max], and is
        otherwise off by the signed error of the mean.  A *bound* (the
        abstract's "more than" / "less than") and a *shape* (an ordering
        or inequality over the benchmarks it names) "hold" iff they hold
        on every seed."""
        paper = self.paper()
        if self.kind == "value":
            if min(values) <= paper <= max(values):
                return "reproduces"
            error = mean(values) - paper
            return f"{error * 100:+.1f} pp" if self.fmt.endswith("%") else f"{error:+.2f}"
        misses = sum(not _OPS[self.op](value, paper) for value in values)
        return "holds" if not misses else f"fails on {misses} of {len(values)} seeds"


def _avg(metric: str, scheme: str) -> Measure:
    """The suite mean of a ``SUMMARY_METRICS`` entry."""
    return lambda by_bench, avg: avg[metric][scheme]


def _avg_ratio(metric: str, num: str, den: str) -> Measure:
    return lambda by_bench, avg: avg[metric][num] / avg[metric][den]


def _gain(metric: str, over: str) -> Measure:
    """PowerPunch-PG's suite-mean improvement in ``metric`` over ``over``."""
    return lambda by_bench, avg: 1 - avg[metric]["PowerPunch-PG"] / avg[metric][over]


def _lead(metric: str, over: str) -> Measure:
    return lambda by_bench, avg: avg[metric]["PowerPunch-PG"] - avg[metric][over]


def _ratio(field: str, num: str, den: str, extreme=max) -> Measure:
    """The ``extreme`` over benchmarks of ``num``'s ``field`` over ``den``'s."""
    return lambda by_bench, avg: extreme(
        getattr(per[num], field) / getattr(per[den], field) for per in by_bench.values()
    )


def _values(figure: str, metric: str, what: str, schemes=PG_SCHEMES, fmt="+.1%"):
    """A value claim per scheme: the suite mean of ``metric`` against
    ``PAPER[metric][scheme]``."""
    return tuple(
        Claim(figure, f"{s} {what}", "value", _avg(metric, s), lambda p, s=s: p[metric][s], fmt=fmt)
        for s in schemes
    )


def _least_static_saved(by_bench, avg) -> float:
    return min(
        1 - per[scheme].net_static_energy / per["No-PG"].static_energy
        for per in by_bench.values()
        for scheme in PG_SCHEMES
    )


def _total_saved_lead(by_bench, avg) -> float:
    saved = avg["total_saved"]
    return saved["PowerPunch-PG"] - max(saved["ConvOpt-PG"], saved["PowerPunch-Signal"])


LATENCY, EXECUTION, ENERGY = "avg_total_latency", "execution_time", "total_energy"

#: Every PARSEC claim the report checks, in printing order.  A shape
#: claim over every benchmark measures the extreme one ("max over
#: benchmarks"); shape thresholds are the per-figure checks this
#: repository has always asserted.
CLAIMS = (
    *_values("Fig. 7", "latency_penalty", "latency penalty"),
    Claim("Fig. 7", "PowerPunch-PG penalty reduction vs ConvOpt-PG", "value",
          _gain("latency_penalty", "ConvOpt-PG"), lambda p: p["penalty_reduction_vs_convopt"],
          fmt=".1%"),
    Claim("Fig. 7", "min over benchmarks: ConvOpt-PG / No-PG latency", "shape",
          _ratio(LATENCY, "ConvOpt-PG", "No-PG", min), 1.2, ">", ".2f"),
    Claim("Fig. 7", "max over benchmarks: PowerPunch-PG / No-PG latency", "shape",
          _ratio(LATENCY, "PowerPunch-PG", "No-PG"), 1.15, "<", ".2f"),
    Claim("Fig. 7", "min over benchmarks: PowerPunch-PG / No-PG latency", "shape",
          _ratio(LATENCY, "PowerPunch-PG", "No-PG", min), 1.0, "≥", ".2f"),
    *(
        Claim("Fig. 7", f"max over benchmarks: {s} / ConvOpt-PG latency", "shape",
              _ratio(LATENCY, s, "ConvOpt-PG"), 1.0, "<", ".2f")
        for s in ("PowerPunch-Signal", "PowerPunch-PG")
    ),
    *_values("Fig. 8", "execution_penalty", "execution penalty", PG_SCHEMES[1:]),
    Claim("Abstract", "PowerPunch-PG execution penalty", "bound",
          _avg("execution_penalty", "PowerPunch-PG"),
          lambda p: p["execution_penalty"]["PowerPunch-PG"], "<"),
    Claim("Fig. 8", "max over benchmarks: PowerPunch-PG / No-PG execution", "shape",
          _ratio(EXECUTION, "PowerPunch-PG", "No-PG"), 1.03, "≤", ".3f"),
    Claim("Fig. 8", "min over benchmarks: ConvOpt-PG / PowerPunch-PG execution", "shape",
          _ratio(EXECUTION, "ConvOpt-PG", "PowerPunch-PG", min), 1.0, "≥", ".3f"),
    Claim("Fig. 8", "max over benchmarks: ConvOpt-PG / No-PG execution", "shape",
          _ratio(EXECUTION, "ConvOpt-PG", "No-PG"), 1.02, ">", ".3f"),
    *_values("Fig. 9", "blocked_routers", "powered-off routers per packet", fmt=".2f"),
    Claim("Fig. 9", "NI-slack gain, PowerPunch-PG over PowerPunch-Signal", "value",
          _gain("blocked_routers", "PowerPunch-Signal"), lambda p: p["blocked_routers_slack_gain"]),
    Claim("Fig. 9", "ConvOpt-PG powered-off routers per packet", "shape",
          _avg("blocked_routers", "ConvOpt-PG"), 3.0, ">", ".2f"),
    Claim("Fig. 9", "PowerPunch-Signal powered-off routers per packet", "shape",
          _avg("blocked_routers", "PowerPunch-Signal"), 2.0, "<", ".2f"),
    Claim("Fig. 9", "PowerPunch-Signal / ConvOpt-PG powered-off routers", "shape",
          _avg_ratio("blocked_routers", "PowerPunch-Signal", "ConvOpt-PG"), 0.4, "<", ".2f"),
    Claim("Fig. 9", "PowerPunch-PG − PowerPunch-Signal powered-off routers", "shape",
          _lead("blocked_routers", "PowerPunch-Signal"), 0.05, "≤", "+.2f"),
    Claim("Fig. 10", "NI-slack gain in wakeup-wait cycles", "value",
          _gain("wakeup_wait", "PowerPunch-Signal"), lambda p: p["wakeup_wait_slack_gain"]),
    Claim("Fig. 10", "PowerPunch-PG / PowerPunch-Signal wakeup wait", "shape",
          _avg_ratio("wakeup_wait", "PowerPunch-PG", "PowerPunch-Signal"), 0.7, "<", ".2f"),
    Claim("Fig. 10", "ConvOpt-PG / PowerPunch-Signal wakeup wait", "shape",
          _avg_ratio("wakeup_wait", "ConvOpt-PG", "PowerPunch-Signal"), 2.0, ">", ".2f"),
    Claim("Abstract", "PowerPunch-PG net static energy saved", "bound",
          _avg("static_saved", "PowerPunch-PG"), lambda p: p["static_saved"], ">", ".1%"),
    Claim("Fig. 11", "min over benchmarks and PG schemes: net static energy saved", "shape",
          _least_static_saved, 0.35, ">", ".1%"),
    *_values("Fig. 11", "total_saved", "total router energy saved", fmt=".1%"),
    Claim("Fig. 11", "PowerPunch-PG − ConvOpt-PG total energy saved", "value",
          _lead("total_saved", "ConvOpt-PG"),
          lambda p: p["total_saved"]["PowerPunch-PG"] - p["total_saved"]["ConvOpt-PG"]),
    Claim("Fig. 11", "PowerPunch-PG's lead in total energy saved over the next scheme",
          "shape", _total_saved_lead, 0.0, ">"),
    Claim("Fig. 11", "max over benchmarks: PowerPunch-PG / ConvOpt-PG total energy", "shape",
          _ratio(ENERGY, "PowerPunch-PG", "ConvOpt-PG"), 1.02, "≤", ".3f"),
    Claim("Fig. 11", "max over benchmarks: PowerPunch-PG / No-PG total energy", "shape",
          _ratio(ENERGY, "PowerPunch-PG", "No-PG"), 1.0, "<", ".3f"),
)


def claim_table(summaries: Sequence[tuple]) -> str:
    """The markdown claim table over per-seed ``summarize`` results."""
    lines = [
        "| figure | claim | paper | measured mean [min–max] | verdict |",
        "|---|---|---|---|---|",
    ]
    for claim in CLAIMS:
        values = [claim.measure(by_bench, avg) for by_bench, avg in summaries]
        fmt, op = claim.fmt, claim.op + " " if claim.op else ""
        lines.append(
            f"| {claim.figure} | {claim.text} | {op}{claim.paper():{fmt}} "
            f"| {mean(values):{fmt}} [{min(values):{fmt}}–{max(values):{fmt}}] "
            f"| {claim.verdict(values)} |"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Figures 7-11, each entry a mean over seeds
# ----------------------------------------------------------------------
#: Figs 7-10: title, schemes, f(a benchmark's records, scheme), and the
#: closing row's label and f(avg, scheme).
FIGURES = (
    ("Figure 7: average packet latency (cycles; creation to delivery)", SCHEME_ORDER,
     lambda per, s: per[s].avg_total_latency,
     "AVG (norm)", lambda avg, s: 1 + avg["latency_penalty"][s]),
    ("Figure 8: execution time (normalized to No-PG)", SCHEME_ORDER,
     lambda per, s: per[s].execution_time / per["No-PG"].execution_time,
     "AVG", lambda avg, s: 1 + avg["execution_penalty"][s]),
    ("Figure 9: powered-off routers encountered per packet", PG_SCHEMES,
     lambda per, s: per[s].avg_blocked_routers, "AVG", lambda avg, s: avg["blocked_routers"][s]),
    ("Figure 10: cycles per packet waiting for router wakeup", PG_SCHEMES,
     lambda per, s: per[s].avg_wakeup_wait, "AVG", lambda avg, s: avg["wakeup_wait"][s]),
)

#: Fig. 11: each energy component over the benchmark's No-PG total.
ENERGY_PARTS = ("dynamic_energy", "static_energy", "overhead_energy", "total_energy")


def report(by_seed: Dict[int, List[RunRecord]]) -> str:
    """Figs 7-11 and the claim table from ``{seed: suite records}``."""
    summaries = [summarize(records) for _, records in sorted(by_seed.items())]
    benches = list(summaries[0][0])

    def seed_mean(value: Measure) -> float:
        return mean([value(by_bench, avg) for by_bench, avg in summaries])

    seeds = ", ".join(str(seed) for seed in sorted(by_seed))
    parts = [f"PARSEC suite, 8x8 mesh, means over seeds {seeds}"]
    for title, schemes, value, label, closing in FIGURES:
        rows = [
            [bench] + [seed_mean(lambda b, a: value(b[bench], s)) for s in schemes]
            for bench in benches
        ]
        rows.append([label] + [seed_mean(lambda b, a: closing(a, s)) for s in schemes])
        parts.append(format_table(["benchmark", *schemes], rows, title=title))
    rows = [
        [bench, s]
        + [
            seed_mean(lambda b, a: getattr(b[bench][s], part) / b[bench]["No-PG"].total_energy)
            for part in ENERGY_PARTS
        ]
        for bench in benches
        for s in SCHEME_ORDER
    ]
    parts.append(format_table(
        ["benchmark", "scheme", "dynamic", "static", "pg-overhead", "total"],
        rows,
        title="Figure 11: router energy breakdown (normalized to No-PG total)",
    ))
    parts += [f"Paper claims over seeds {seeds}:", claim_table(summaries)]
    return "\n\n".join(parts)


def main(argv: Optional[Sequence[str]] = None) -> None:
    """CLI entry point: the suite at every seed of :data:`SEEDS`, keyed
    by seed, run as one campaign."""
    args, engine = parse_campaign_args(
        campaign_argparser(__doc__, instructions=True), argv, mesh_only="the PARSEC report"
    )
    cells = [
        (seed, cell)
        for seed in SEEDS
        for cell in suite_campaign(instructions=args.instructions, seed=seed).cells
    ]
    by_seed: Dict[int, List[RunRecord]] = {}
    for seed, record in run_keyed("report", cells, **engine):
        by_seed.setdefault(seed, []).append(record)
    print(report(by_seed))


if __name__ == "__main__":
    main()
