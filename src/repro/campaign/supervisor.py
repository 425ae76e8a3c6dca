"""Supervision primitives for the campaign executor.

The executor in :mod:`repro.campaign.engine` used to trust its
workers; this module gives it the pieces to stop doing that:

* :class:`RetryPolicy` — per-cell attempt budget and wall-clock
  timeout;
* :class:`FailureReport` — the structured verdict on a cell that
  failed for good (including any
  :class:`~repro.noc.invariants.PostMortem` the failure carried); the
  cell cache stores it as the cell's entry, so a condemned cell is
  skipped by later campaigns without running again;
* :class:`WorkerCrashError` / :class:`CellTimeoutError` /
  :class:`QuarantinedCellError` / :class:`HostedCellError` — typed
  stand-ins for failures that happen *around* a cell rather than
  inside it (a worker process died, a wall-clock deadline expired, the
  store already condemned the cell, a service host gave the verdict).

See ``docs/resilience.md`` for the verdict rule (which failures are
retried, which condemn), the failure taxonomy and recovery semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .spec import CellSpec


class WorkerCrashError(RuntimeError):
    """A pool worker died (signal kill, OOM, segfault) mid-cell."""


class CellTimeoutError(RuntimeError):
    """A cell exceeded its per-cell wall-clock budget."""


class QuarantinedCellError(RuntimeError):
    """The store already holds a condemning verdict on this cell."""


class HostedCellError(RuntimeError):
    """A failure verdict streamed back by the campaign service: the
    host's error text, and in ``error_type`` the name of the exception
    the host saw (``None`` when the orchestrator gave the verdict)."""

    def __init__(self, error: str, error_type: Optional[str]) -> None:
        super().__init__(error)
        self.error_type = error_type


@dataclass(frozen=True)
class RetryPolicy:
    """Attempt budget and wall-clock timeout for one cell.

    ``max_retries`` is the *total* attempt budget (the CLI flag of the
    same name).  Only a worker crash or a timeout spends more than one
    (the verdict rule of ``docs/resilience.md``).  A retry runs as soon
    as a worker is free: an attempt's failure is its own, so there is
    no crowd of co-failed cells to spread out.
    """

    max_retries: int = 2
    timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_retries < 1:
            raise ValueError("max_retries must be at least 1 (total attempts)")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (seconds)")


@dataclass
class FailureReport:
    """Structured account of one cell's demise; the cell cache holds it
    as the cell's entry (``CellCache.put``) until a payload replaces it."""

    key: str
    label: str
    spec: dict
    attempts: int
    classification: str
    error: str
    error_type: str
    #: Rendered :class:`~repro.noc.invariants.PostMortem`, when the
    #: final exception carried one (deadlock watchdog, drain timeout).
    post_mortem: Optional[str] = None
    #: Fault schedule active when the cell died (compact ``--faults``
    #: grammar) and the routers declared dead at that point, when the
    #: final exception carried them — together they make a liveness
    #: failure reproducible straight from the report.
    fault_spec: Optional[str] = None
    dead_routers: List[int] = field(default_factory=list)

    @classmethod
    def from_failure(
        cls,
        spec: CellSpec,
        key: str,
        exc: BaseException,
        attempts: int,
        classification: str,
    ) -> "FailureReport":
        post_mortem = getattr(exc, "post_mortem", None)
        return cls(
            key=key,
            label=spec.label,
            spec=spec.canonical(),
            attempts=attempts,
            classification=classification,
            error=str(exc),
            error_type=getattr(exc, "error_type", None) or type(exc).__qualname__,
            post_mortem=None if post_mortem is None else post_mortem.render(),
            fault_spec=getattr(exc, "fault_spec", None),
            dead_routers=sorted(getattr(exc, "dead_routers", ()) or ()),
        )

    @property
    def condemned(self) -> bool:
        """Whether later campaigns skip the cell: only when the cell
        itself raised.  ``exhausted`` (crashes or timeouts spent the
        budget) and ``host-loss`` do not condemn: the cell runs again,
        and its payload replaces this."""
        return self.classification == "deterministic"

    def as_dict(self) -> dict:
        return {
            "key": self.key,
            "label": self.label,
            "spec": self.spec,
            "attempts": self.attempts,
            "classification": self.classification,
            "error": self.error,
            "error_type": self.error_type,
            "post_mortem": self.post_mortem,
            "fault_spec": self.fault_spec,
            "dead_routers": self.dead_routers,
        }
