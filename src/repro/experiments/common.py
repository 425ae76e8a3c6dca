"""Shared experiment plumbing: scheme registry, run records, tables.

The sweep loops that used to live here moved to :mod:`repro.campaign`:
experiments declare :class:`~repro.campaign.CellSpec` cells and hand
them to the campaign engine, which runs them (optionally in parallel,
against a content-addressed cache) via :mod:`repro.campaign.runner`.
This module keeps only what every consumer shares: the scheme
registry and :class:`RunRecord` (re-exported from the runner) with its
persistence helpers, the keyed-sweep convention (:func:`run_keyed`,
:func:`pivot`), the pricing of a metrics payload (:func:`net_static`)
and plain-text table formatting.
"""

from __future__ import annotations

import json
import os
import statistics
from dataclasses import asdict
from typing import Dict, Iterable, Sequence, Tuple

from ..campaign import Campaign

# The scheme registry and the measurement row live below the campaign
# layer (the cell runner builds and returns them); re-exported here,
# where every experiment and report reads them.
from ..campaign.runner import (  # noqa: F401
    ALL_SCHEMES,
    EXTRA_SCHEMES,
    PG_SCHEMES,
    SCHEME_ORDER,
    SCHEMES,
    SWEEP_SCHEMES,
    RunRecord,
    make_scheme,
)
from ..campaign.spec import CANONICAL_INSTRUCTIONS  # noqa: F401
from ..noc import Activity
from ..power import DEFAULT_CONSTANTS, PowerConstants, account


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


def net_static(payload: dict, constants: PowerConstants = DEFAULT_CONSTANTS) -> float:
    """Net static energy (J) of a ``synthetic_metrics`` payload's
    measurement window, priced at ``constants``."""
    return account(Activity(**payload["activity"]), constants).net_static


def window_gating(payload: dict) -> Tuple[float, int]:
    """The share of router-cycles gated off and the wakeup count of a
    ``synthetic_metrics`` payload's measurement window."""
    activity = payload["activity"]
    total = activity["on_cycles"] + activity["off_cycles"]
    off = activity["off_cycles"] / total if total else 0.0
    return off, activity["wake_events"]


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


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (0.0 for an empty sequence)."""
    return statistics.mean(values) if values else 0.0
