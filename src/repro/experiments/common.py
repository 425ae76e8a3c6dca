"""Shared experiment plumbing: scheme registry, run records, tables.

The sweep loops that used to live here moved to :mod:`repro.campaign`:
experiments declare :class:`~repro.campaign.CellSpec` cells and hand
them to the campaign engine, which runs them (optionally in parallel,
against a content-addressed cache) via :mod:`repro.campaign.runner`.
This module keeps only what every consumer shares: the scheme
registry, the :class:`RunRecord` measurement row with its persistence
helpers, the keyed-sweep convention (:func:`run_keyed`, :func:`pivot`)
and plain-text table formatting.
"""

from __future__ import annotations

import json
import os
import statistics
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, Sequence, Tuple

from ..baselines import NoRDLike
from ..core import ConvOptPG, NoPG, PowerPunchPG, PowerPunchSignal

#: The canonical per-core instruction budget of the documented PARSEC
#: runs (EXPERIMENTS.md: ``--instructions 2000``).  Every default —
#: ``run_parsec``, the suite, the campaign argparser, ``run-all`` —
#: points here so the documented run and the default run are the same.
CANONICAL_INSTRUCTIONS = 2000

#: The four evaluated schemes, in the paper's order (Sec. 5).
SCHEMES = {
    "No-PG": NoPG,
    "ConvOpt-PG": ConvOptPG,
    "PowerPunch-Signal": PowerPunchSignal,
    "PowerPunch-PG": PowerPunchPG,
}

SCHEME_ORDER = list(SCHEMES)

#: The three power-gating schemes (everything but the No-PG baseline).
PG_SCHEMES = SCHEME_ORDER[1:]

#: The schemes of the synthetic sweeps (Figs 12-13, Sec. 6.6(2)).
SWEEP_SCHEMES = ["No-PG", "ConvOpt-PG", "PowerPunch-PG"]

#: Schemes runnable by name but outside the paper's headline four
#: (Sec. 6.6(3) comparison baselines).
EXTRA_SCHEMES = {
    "NoRD-like": NoRDLike,
}

ALL_SCHEMES = {**SCHEMES, **EXTRA_SCHEMES}


def make_scheme(name: str, **kwargs):
    """Instantiate a scheme by registry name.

    Unexpected kwargs always fail loudly: parameterized schemes raise
    ``TypeError`` from their constructors, and No-PG (which takes no
    parameters) rejects any kwargs explicitly so a typo in a sweep
    spec cannot silently evaporate.
    """
    cls = ALL_SCHEMES[name]
    if cls is NoPG:
        if kwargs:
            raise TypeError(
                f"No-PG accepts no scheme kwargs, got {sorted(kwargs)}"
            )
        return cls()
    return cls(**kwargs)


@dataclass
class RunRecord:
    """One (workload, scheme) measurement."""

    workload: str
    scheme: str
    execution_time: int
    avg_packet_latency: float
    avg_total_latency: float
    avg_blocked_routers: float
    avg_wakeup_wait: float
    injection_rate: float
    dynamic_energy: float
    static_energy: float
    overhead_energy: float
    cycles: int

    @property
    def net_static_energy(self) -> float:
        """Static energy charged with the PG overhead (Sec. 6.3 fairness)."""
        return self.static_energy + self.overhead_energy

    @property
    def total_energy(self) -> float:
        """Dynamic + static + overhead energy of the run."""
        return self.dynamic_energy + self.net_static_energy

    def static_power_w(self) -> float:
        """Average net router static power (watts) over the run."""
        from ..power import DEFAULT_CONSTANTS

        seconds = self.cycles / DEFAULT_CONSTANTS.frequency
        return self.net_static_energy / seconds if seconds else 0.0


# ----------------------------------------------------------------------
# Keyed sweeps: how every experiment declares, runs and tabulates cells
# ----------------------------------------------------------------------
def run_keyed(name: str, keyed_cells: Iterable[Tuple[object, object]], **engine):
    """Run ``(key, CellSpec)`` pairs as campaign ``name``; return
    ``(key, payload)`` pairs in declaration order.

    A sweep builds each key in the same expression as the cell it
    labels, so a payload cannot be mislabelled.  ``engine`` — the one
    way engine options travel (``workers``, ``cache_dir``,
    ``config_overrides``, ...: what ``engine_options(args)`` returns)
    — goes straight to :meth:`repro.campaign.Campaign.run`.
    """
    from ..campaign import Campaign  # the campaign layer imports this module

    pairs = list(keyed_cells)
    campaign = Campaign(name=name, cells=tuple(cell for _, cell in pairs))
    payloads = campaign.run(**engine)
    return [(key, payload) for (key, _), payload in zip(pairs, payloads)]


def pivot(results: Iterable[Tuple[Tuple[object, object], object]]) -> Dict:
    """``{row: {column: payload}}`` from ``((row, column), payload)``
    pairs; rows and columns keep first-seen order."""
    table: Dict[object, Dict[object, object]] = {}
    for (row, column), payload in results:
        table.setdefault(row, {})[column] = payload
    return table


# ----------------------------------------------------------------------
# Record persistence (the exported products of a campaign run)
# ----------------------------------------------------------------------
def save_records(records: Sequence[RunRecord], path: str) -> None:
    """Persist run records as JSON."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump([asdict(r) for r in records], fh, indent=1)


def save_csv(records: Sequence[RunRecord], path: str) -> None:
    """Write records as CSV (one row per run) for external plotting."""
    import csv

    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    if not records:
        open(path, "w").close()
        return
    fields = list(asdict(records[0]))
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for record in records:
            writer.writerow(asdict(record))


# ----------------------------------------------------------------------
# Table formatting
# ----------------------------------------------------------------------
def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Render rows as an aligned plain-text table."""
    rendered = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in rendered)) if rendered else len(h)
        for i, h in enumerate(headers)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def geomean_ratio(values: Sequence[float]) -> float:
    """Geometric mean of a sequence of ratios."""
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values)) if values else 0.0


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (0.0 for an empty sequence)."""
    return statistics.mean(values) if values else 0.0
