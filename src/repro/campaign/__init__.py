"""Declarative campaign engine for the experiments layer.

Experiments declare frozen :class:`CellSpec` cells — one simulation
each — and run them through :func:`execute_cells` / :class:`Campaign`:
a supervised process-pool executor with a content-addressed on-disk
cache (:class:`CellCache`, written once per finished cell, so a
``kill -9``'d campaign resumes from it, and once per failed one, so a
condemned cell is skipped by the next), one worker process per pool
slot (a worker's crash or timeout is its own cell's verdict),
per-cell wall-clock timeouts, retries of crashes and timeouts, and a
structured JSONL progress log.  See ``docs/campaigns.md`` and
``docs/resilience.md``.

Campaigns also run distributed through the same front door:
``execute_cells(cells, hosts=...)`` (``Campaign.run(hosts=...)``,
``--hosts`` on any campaign command) carries the cells on the
:mod:`repro.campaign.service` subpackage — an orchestrator leasing
cells from one queue to heartbeating TCP worker hosts — instead
of the process pool, with the same cache and log behaviour (see
``docs/service.md``).
"""

from .cache import CellCache, code_salt, decode_payload, encode_payload
from .engine import (
    Campaign,
    CampaignError,
    CampaignInterrupted,
    CampaignStats,
    EventLog,
    execute_cells,
    iter_events,
    merge_event_streams,
)
from .runner import build_scheme, run_cell, run_parsec, run_synthetic
from .spec import CellSpec, freeze_items
from .supervisor import (
    CellTimeoutError,
    FailureReport,
    QuarantinedCellError,
    RetryPolicy,
    WorkerCrashError,
)

__all__ = [
    "Campaign",
    "CampaignError",
    "CampaignInterrupted",
    "CampaignStats",
    "CellCache",
    "CellSpec",
    "CellTimeoutError",
    "EventLog",
    "FailureReport",
    "QuarantinedCellError",
    "RetryPolicy",
    "WorkerCrashError",
    "build_scheme",
    "code_salt",
    "decode_payload",
    "encode_payload",
    "execute_cells",
    "freeze_items",
    "iter_events",
    "merge_event_streams",
    "run_cell",
    "run_parsec",
    "run_synthetic",
]
