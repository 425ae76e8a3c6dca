"""Ablation studies for Power Punch design choices.

Not figures from the paper, but sweeps over the design decisions its
text argues for:

* **punch horizon** (Sec. 4.1): fewer hops than ``ceil(Twakeup /
  Trouter)`` leaks wakeup latency; more hops wake routers too early and
  squander gated-off cycles ("sending wakeup signals with 5 hops or
  more would be counter-productive");
* **idle timeout** (Sec. 2.3): short timeouts gate more aggressively
  but mis-filter short idle periods (BET = 10 cycles);
* **injection slack decomposition** (Sec. 4.2): slack 1 (NI pipeline)
  vs slack 2 (resource-access lead) contributions to hiding the local
  router's wakeup;
* **forewarning** (Sec. 4.3): punch signals double as precise
  packet-arrival predictors; disabling that filter shows the
  wake-thrash it prevents;
* **break-even time** (Sec. 2.3): BET prices each sleep/wake pair, so
  it changes energy and nothing else.

Every sweep point is a ``synthetic_metrics`` campaign cell, so
ablations share the engine's cache and fan-out with the figure
scripts.  A table row is a payload priced at a set of power constants:
the defaults for every sweep but BET, whose one run is priced once per
break-even time.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..campaign import CellSpec
from ..power import DEFAULT_CONSTANTS, PowerConstants
from .common import format_table, net_static, run_keyed, window_gating

DEFAULT_LOAD = 0.01
#: The warmup of every sweep point (``CellSpec.synthetic``'s default).
WARMUP = 1000


def _metrics_cell(
    scheme: str,
    measurement: int,
    scheme_kwargs=None,
    scheme_attrs=None,
    warmup: int = WARMUP,
) -> CellSpec:
    return CellSpec.synthetic(
        "uniform_random",
        DEFAULT_LOAD,
        scheme,
        warmup=warmup,
        measurement=measurement,
        drain=False,
        scheme_kwargs=scheme_kwargs,
        scheme_attrs=scheme_attrs,
        metrics=True,
    )


# ----------------------------------------------------------------------
# The sweeps: each declares ``(key, cell)`` pairs, the key being the
# "config" column of its table.
# ----------------------------------------------------------------------
def punch_hops_cells(
    hops_values: Sequence[int] = (1, 2, 3, 4),
    wakeup_latency: int = 8,
    measurement: int = 4000,
) -> List[Tuple[int, CellSpec]]:
    """Latency/energy vs punch horizon (3-stage router, Twakeup=8)."""
    return [
        (
            hops,
            _metrics_cell(
                "PowerPunch-Signal",
                measurement,
                scheme_kwargs={"wakeup_latency": wakeup_latency, "punch_hops": hops},
            ),
        )
        for hops in hops_values
    ]


def timeout_cells(
    timeouts: Sequence[int] = (2, 4, 8, 16), measurement: int = 4000
) -> List[Tuple[int, CellSpec]]:
    """Idle-timeout sensitivity for the full Power Punch scheme."""
    return [
        (
            t,
            _metrics_cell(
                "PowerPunch-PG", measurement, scheme_kwargs={"timeout": t}
            ),
        )
        for t in timeouts
    ]


def slack_cells(measurement: int = 4000) -> List[Tuple[str, CellSpec]]:
    """Contribution of each injection-node slack to hiding wakeups."""
    return [
        (label, _metrics_cell(scheme, measurement, scheme_attrs=attrs))
        for label, scheme, attrs in (
            ("punch signals only", "PowerPunch-Signal", None),
            ("+ slack 1 (NI pipeline)", "PowerPunch-PG", {"slack2": False}),
            ("+ slack 2 (access lead)", "PowerPunch-PG", None),
        )
    ]


def forewarning_cells(measurement: int = 4000) -> List[Tuple[str, CellSpec]]:
    """Punch-based short-idle filtering on vs off.

    At the default 4-cycle timeout the per-cycle punch re-assertion
    alone keeps routers from sleeping under an approaching packet (the
    longest punch gap — a flit's 3 cycles in flight — is shorter than
    the timeout), so the forewarning window is measured where it
    actually bites: an aggressive 2-cycle timeout, where gaps would
    otherwise cause wake-thrash.
    """
    return [
        (
            label,
            _metrics_cell(
                "PowerPunch-PG", measurement, scheme_kwargs={"timeout": 2}, scheme_attrs=attrs
            ),
        )
        for label, attrs in (
            ("forewarning on", None),
            ("forewarning off", {"use_forewarning": False}),
        )
    ]


def bet_cells(measurement: int = 4000) -> List[Tuple[str, CellSpec]]:
    """The one run the break-even-time table prices (see :func:`bet_rows`).

    Its window is the whole undrained run, warmup included: warmup 0
    and a measurement of ``WARMUP + measurement`` cycles.
    """
    return [
        (
            "PowerPunch-PG",
            _metrics_cell("PowerPunch-PG", WARMUP + measurement, warmup=0),
        )
    ]


def bet_rows(results, bet_values: Sequence[int] = (5, 10, 20, 40)):
    """Break-even-time sensitivity (energy only).

    BET scales the per-event power-gating overhead (Sec. 2.3 footnote:
    one sleep/wake pair costs BET cycles of static energy), so larger
    BETs erode net static savings without touching timing: every row
    is the one run of :func:`bet_cells`, priced at its BET.
    """
    ((_, payload),) = results
    return [(bet, payload, PowerConstants(break_even_cycles=bet)) for bet in bet_values]


def _at_default_constants(results):
    """One row per sweep point, priced at the default constants."""
    return [(key, payload, DEFAULT_CONSTANTS) for key, payload in results]


#: (campaign name, table title, declaration, rows), in printing order.
SWEEPS = (
    (
        "ablation-punch-hops",
        "Ablation: punch horizon (Twakeup=8, 3-stage)",
        punch_hops_cells,
        _at_default_constants,
    ),
    ("ablation-timeout", "Ablation: idle timeout", timeout_cells, _at_default_constants),
    (
        "ablation-slack",
        "Ablation: injection slack decomposition",
        slack_cells,
        _at_default_constants,
    ),
    (
        "ablation-forewarning",
        "Ablation: punch forewarning filter",
        forewarning_cells,
        _at_default_constants,
    ),
    ("ablation-bet", "Ablation: break-even time (energy accounting only)", bet_cells, bet_rows),
)


# ----------------------------------------------------------------------
def _table(title: str, rows: List[Tuple[object, dict, PowerConstants]]) -> str:
    body = []
    for key, res, constants in rows:
        off, wakes = window_gating(res)
        body.append(
            [
                key,
                res["latency"],
                res["wait"],
                f"{off:.1%}",
                wakes,
                f"{net_static(res, constants):.3e}",
            ]
        )
    return format_table(
        ["config", "latency", "wait/pkt", "off %", "wakes", "net static (J)"],
        body,
        title=title,
    )


def add_arguments(parser) -> None:
    """``repro.cli ablations`` flags."""
    parser.add_argument("--measurement", type=int, default=4000)


def run(args, engine: dict) -> None:
    """Run and print all ablation tables."""
    for index, (name, title, declare, rows) in enumerate(SWEEPS):
        if index:
            print()
        results = run_keyed(name, declare(measurement=args.measurement), **engine)
        print(_table(title, rows(results)))
