"""Supervision primitives for the campaign executor.

The executor in :mod:`repro.campaign.engine` used to trust its
workers; this module gives it the pieces to stop doing that:

* :class:`RetryPolicy` — per-cell attempt budget, wall-clock timeout,
  and exponential backoff with *deterministic* jitter (hashed from the
  cell key and attempt number, never from a clock or RNG, so two runs
  of the same campaign back off identically);
* :func:`error_signature` / :func:`classify_attempts` — the
  transient-vs-deterministic classifier: a cell that fails twice with
  the *identical* signature is deterministically broken and gets
  quarantined instead of re-run, while differing signatures (or worker
  crashes) stay retryable within the budget;
* :class:`QuarantineLedger` — a persistent ledger beside the cell
  cache (``ledger.jsonl`` plus one structured report per quarantined
  cell, including any :class:`~repro.noc.invariants.PostMortem` the
  failure carried) consulted at campaign start so known-bad cells are
  skipped without burning their retry budget again;
* :class:`WorkerCrashError` / :class:`CellTimeoutError` /
  :class:`QuarantinedCellError` — typed stand-ins for failures that
  happen *around* a cell rather than inside it (a worker process died,
  a wall-clock deadline expired, the ledger already condemned the
  cell).

See ``docs/resilience.md`` for the failure taxonomy and recovery
semantics.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from .spec import CellSpec


class WorkerCrashError(RuntimeError):
    """A pool worker died (signal kill, OOM, segfault) mid-cell."""


class CellTimeoutError(RuntimeError):
    """A cell exceeded its per-cell wall-clock budget."""


class QuarantinedCellError(RuntimeError):
    """The quarantine ledger already condemned this cell."""


#: Signature prefix for failures that happened around the cell rather
#: than inside it (no simulator traceback to fingerprint).
_CRASH_SIGNATURE = "worker-crash"
_TIMEOUT_SIGNATURE = "timeout"


def error_signature(exc: BaseException) -> str:
    """Stable fingerprint of a failure, for the deterministic-failure
    classifier.  Simulator errors are fully deterministic (seeds live
    inside the spec), so type + message identifies a failure mode."""
    if isinstance(exc, WorkerCrashError):
        return _CRASH_SIGNATURE
    if isinstance(exc, CellTimeoutError):
        return _TIMEOUT_SIGNATURE
    return f"{type(exc).__qualname__}: {exc}"


def classify_attempts(signatures: Sequence[str]) -> str:
    """``"deterministic"`` once the last two signatures are identical,
    else ``"transient"``.  Crash/timeout signatures participate too: a
    cell that OOM-kills its worker (or hangs past the deadline) twice
    in a row is as deterministically broken as one that raises the
    same ``SimulationError`` twice."""
    if len(signatures) >= 2 and signatures[-1] == signatures[-2]:
        return "deterministic"
    return "transient"


@dataclass(frozen=True)
class RetryPolicy:
    """Attempt budget, timeout and deterministic backoff for one cell.

    ``max_retries`` is the *total* attempt budget (the CLI flag of the
    same name): with the default of 2, a deterministic failure is
    observed twice — exactly enough for the identical-twice classifier
    — and then quarantined.
    """

    max_retries: int = 2
    timeout: Optional[float] = None
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 1:
            raise ValueError("max_retries must be at least 1 (total attempts)")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (seconds)")

    def delay_before(self, attempt: int, key: str) -> float:
        """Seconds to wait before ``attempt`` (2-based) of cell ``key``.

        Exponential in the attempt number, plus up to +50% jitter
        derived from ``sha256(key, attempt)`` — deterministic, so a
        re-run of the same campaign replays the same schedule, but
        de-correlated across cells so a crashed pool's survivors do
        not thundering-herd their retries.
        """
        if attempt <= 1:
            return 0.0
        base = min(
            self.backoff_cap,
            self.backoff_base * self.backoff_factor ** (attempt - 2),
        )
        digest = hashlib.sha256(f"{key}:{attempt}".encode("utf-8")).digest()
        jitter = digest[0] / 255.0 * 0.5
        return base * (1.0 + jitter)


@dataclass
class FailureReport:
    """Structured account of one cell's demise."""

    key: str
    label: str
    spec: dict
    attempts: int
    classification: str
    signatures: List[str]
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
        signatures: Sequence[str],
        classification: str,
    ) -> "FailureReport":
        post_mortem = getattr(exc, "post_mortem", None)
        rendered = None
        if post_mortem is not None:
            try:
                rendered = post_mortem.render()
            except Exception:  # pragma: no cover - defensive
                rendered = repr(post_mortem)
        return cls(
            key=key,
            label=spec.label,
            spec=spec.canonical(),
            attempts=attempts,
            classification=classification,
            signatures=list(signatures),
            error=str(exc),
            error_type=type(exc).__qualname__,
            post_mortem=rendered,
            fault_spec=getattr(exc, "fault_spec", None),
            dead_routers=sorted(getattr(exc, "dead_routers", ()) or ()),
        )

    def as_dict(self) -> dict:
        return {
            "key": self.key,
            "label": self.label,
            "spec": self.spec,
            "attempts": self.attempts,
            "classification": self.classification,
            "signatures": self.signatures,
            "error": self.error,
            "error_type": self.error_type,
            "post_mortem": self.post_mortem,
            "fault_spec": self.fault_spec,
            "dead_routers": self.dead_routers,
        }


def _atomic_write_json(path: Path, doc: dict) -> None:
    """Write ``doc`` to ``path`` via temp file + ``os.replace``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class QuarantineLedger:
    """Persistent record of cells condemned as deterministically broken.

    Lives beside the cell cache (``<dir>/ledger.jsonl`` plus
    ``<dir>/reports/<key>.json``) and survives across campaigns: a
    quarantined cell is skipped — reported as failed without burning
    its retry budget — until the operator deletes its ledger entry or
    the code salt moves (keys embed the salt, so a simulator fix
    automatically paroles every affected cell).
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.ledger_path = self.root / "ledger.jsonl"
        self.reports_dir = self.root / "reports"
        self._keys: Dict[str, dict] = {}
        self._load()

    def _load(self) -> None:
        try:
            lines = self.ledger_path.read_text().splitlines()
        except OSError:
            return
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                self._keys[entry["key"]] = entry
            except (ValueError, KeyError, TypeError):
                continue  # a torn line quarantines nobody

    def __len__(self) -> int:
        return len(self._keys)

    def keys(self):
        return self._keys.keys()

    def is_quarantined(self, key: str) -> bool:
        return key in self._keys

    def entry_for(self, key: str) -> Optional[dict]:
        return self._keys.get(key)

    def report_path(self, key: str) -> Path:
        return self.reports_dir / f"{key}.json"

    def load_report(self, key: str) -> Optional[dict]:
        """The full structured report for ``key``, if present."""
        try:
            return json.loads(self.report_path(key).read_text())
        except (OSError, ValueError):
            return None

    def record_failure(self, report: FailureReport) -> None:
        """Write the structured report *without* condemning the cell.

        Used for ``exhausted`` failures (retry budget ran out on
        differing signatures): the post-mortem evidence is kept under
        ``reports/`` but no ledger line is appended, so the cell stays
        retryable in the next campaign.
        """
        _atomic_write_json(self.report_path(report.key), report.as_dict())

    def quarantine(self, report: FailureReport) -> None:
        """Condemn a cell: append the ledger line, write the report."""
        entry = {
            "ts": round(time.time(), 3),
            "key": report.key,
            "label": report.label,
            "classification": report.classification,
            "attempts": report.attempts,
            "error_type": report.error_type,
            "error": report.error,
        }
        _atomic_write_json(self.report_path(report.key), report.as_dict())
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.ledger_path, "a") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
        self._keys[report.key] = entry

