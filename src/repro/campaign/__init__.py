"""Declarative campaign engine for the experiments layer.

Experiments declare frozen :class:`CellSpec` cells — one simulation
each — and run them through :func:`execute_cells` / :class:`Campaign`:
a supervised process-pool executor with a content-addressed on-disk
cache (:class:`CellCache`, written once per finished cell, so a
``kill -9``'d campaign resumes from it), crash isolation and pool
respawn, per-cell wall-clock timeouts, retry classification with a
persistent :class:`QuarantineLedger`, and a structured JSONL progress
log.  See ``docs/campaigns.md`` and ``docs/resilience.md``.

Campaigns also run distributed through the same front door:
``execute_cells(cells, hosts=...)`` (``Campaign.run(hosts=...)``,
``--hosts`` on any campaign CLI) carries the cells on the
:mod:`repro.campaign.service` subpackage — an orchestrator leasing
cells from one queue to heartbeating TCP worker hosts — instead
of the process pool, with the same cache, log and quarantine
behaviour (see ``docs/service.md``).
"""

from .cache import CellCache, code_salt, decode_payload, encode_payload
from .cli import (
    ENGINE_OPTION_KEYS,
    add_campaign_args,
    add_robustness_args,
    add_sprt_args,
    campaign_argparser,
    engine_argv,
    engine_options,
    parse_campaign_args,
    require_mesh_topology,
    robustness_argv,
    sprt_options,
)
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
    QuarantineLedger,
    RetryPolicy,
    WorkerCrashError,
    classify_attempts,
    error_signature,
)

__all__ = [
    "ENGINE_OPTION_KEYS",
    "Campaign",
    "CampaignError",
    "CampaignInterrupted",
    "CampaignStats",
    "CellCache",
    "CellSpec",
    "CellTimeoutError",
    "EventLog",
    "FailureReport",
    "QuarantineLedger",
    "QuarantinedCellError",
    "RetryPolicy",
    "WorkerCrashError",
    "add_campaign_args",
    "add_robustness_args",
    "add_sprt_args",
    "build_scheme",
    "campaign_argparser",
    "classify_attempts",
    "code_salt",
    "decode_payload",
    "encode_payload",
    "engine_argv",
    "engine_options",
    "error_signature",
    "execute_cells",
    "freeze_items",
    "iter_events",
    "merge_event_streams",
    "parse_campaign_args",
    "require_mesh_topology",
    "robustness_argv",
    "run_cell",
    "run_parsec",
    "run_synthetic",
    "sprt_options",
]
