"""Campaign execution: cache lookup, supervised fan-out, recovery.

``execute_cells`` is the one code path every experiment goes through:

1. each cell is looked up in the content-addressed cache, then in the
   campaign checkpoint (hits skip simulation entirely, which is also
   what makes interrupted — even ``kill -9``'d — campaigns resumable);
2. cells already condemned by the :class:`QuarantineLedger` are
   reported as failed immediately instead of burning retries again;
3. misses run under supervision — inline for ``workers=1`` without a
   timeout, else on a ``ProcessPoolExecutor`` with a sliding
   submission window.  The supervisor owns the retry loop (one
   attempt per submission): per-cell wall-clock timeouts, detection
   of worker death (``BrokenProcessPool`` from an OOM kill, segfault
   or signal) with automatic pool respawn, exponential backoff with
   deterministic jitter, and transient-vs-deterministic failure
   classification — a cell failing twice with the identical signature
   is quarantined, not re-run;
4. completed payloads land in the cache and the periodic checkpoint;
   every step appends a structured event to a JSONL progress log, and
   failures produce structured reports carrying any post-mortem the
   error captured.

Results always come back in declared cell order regardless of
completion order.  With ``failure_mode="raise"`` (the default) a
campaign with failed cells finishes every *other* cell first — so the
work is cached and resumable — then raises the first failure in
declared order; ``failure_mode="continue"`` returns ``None`` for
failed cells instead.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..noc.errors import SimulationError
from .cache import CellCache, Payload, code_salt
from .runner import run_cell
from .spec import CellSpec, ItemsLike
from .supervisor import (
    CampaignCheckpoint,
    CellTimeoutError,
    FailureReport,
    QuarantinedCellError,
    QuarantineLedger,
    RetryPolicy,
    WorkerCrashError,
    classify_attempts,
    error_signature,
)


class CampaignError(RuntimeError):
    """A cell failed for good; carries the spec and the cause."""

    def __init__(self, spec: CellSpec, cause: BaseException, attempts: int) -> None:
        self.spec = spec
        self.cause = cause
        self.attempts = attempts
        super().__init__(
            f"cell {spec.label} failed after {attempts} attempt(s): {cause}"
        )


@dataclass
class CampaignStats:
    """Outcome counters of one ``execute_cells`` call."""

    total: int = 0
    hits: int = 0
    executed: int = 0
    retried: int = 0
    #: Cells recovered from the campaign checkpoint (subset of hits).
    restored: int = 0
    #: Worker-pool deaths detected and survived (respawns).
    crashes: int = 0
    #: Cells killed for exceeding the wall-clock budget (attempt count).
    timeouts: int = 0
    #: Cells condemned to the quarantine ledger this run, plus cells
    #: skipped because a previous run condemned them.
    quarantined: int = 0
    failed: int = 0
    elapsed: float = 0.0

    def as_dict(self) -> dict:
        return {
            "total": self.total,
            "hits": self.hits,
            "executed": self.executed,
            "retried": self.retried,
            "restored": self.restored,
            "crashes": self.crashes,
            "timeouts": self.timeouts,
            "quarantined": self.quarantined,
            "failed": self.failed,
            "elapsed": round(self.elapsed, 3),
        }


class CampaignInterrupted(KeyboardInterrupt):
    """A SIGTERM/SIGINT arrived mid-campaign.

    Raised *after* the engine's cleanup has a chance to run (checkpoint
    flush, event-log close, pool-worker kill), so a Ctrl-C'd or
    systemd-stopped campaign resumes cleanly from its checkpoint.
    Subclasses :class:`KeyboardInterrupt` so callers that already treat
    Ctrl-C as fatal keep their semantics.
    """

    def __init__(self, signum: int) -> None:
        self.signum = signum
        super().__init__(f"campaign interrupted by signal {signum}")


class _SignalGuard:
    """Convert SIGTERM/SIGINT into :class:`CampaignInterrupted`.

    Installed for the duration of ``execute_cells`` so termination
    unwinds through the engine's ``finally`` blocks (checkpoint and
    event-log flush, pool-worker kill) instead of dying mid-write.
    Signal handlers are a main-thread-only facility; anywhere else
    (e.g. a worker host running the engine on a thread) this guard is
    a no-op and the surrounding process owns signal handling.
    """

    def __enter__(self) -> "_SignalGuard":
        self._installed: List[Tuple[int, object]] = []
        if threading.current_thread() is threading.main_thread():
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    previous = signal.signal(sig, self._raise)
                except (ValueError, OSError):  # pragma: no cover - exotic
                    continue
                self._installed.append((sig, previous))
        return self

    def _raise(self, signum: int, frame) -> None:
        raise CampaignInterrupted(signum)

    def __exit__(self, *exc_info) -> bool:
        for sig, previous in self._installed:
            try:
                signal.signal(sig, previous)
            except (ValueError, OSError):  # pragma: no cover - exotic
                pass
        return False


class EventLog:
    """Append-only JSONL event sink (no-op without a path).

    Every event carries a wall-clock ``ts`` plus a monotonic per-log
    ``seq``; with a ``host`` identity set, events are additionally
    stamped with it, so event streams from several hosts merge
    deterministically (see :func:`merge_event_streams`).
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]],
        host: Optional[str] = None,
    ) -> None:
        self._fh = None
        self._host = host
        self._seq = 0
        if path is not None:
            path = Path(path)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(path, "a")

    def emit(self, event: dict) -> None:
        if self._fh is None:
            return
        stamped = {"ts": round(time.time(), 3), "seq": self._seq}
        if self._host is not None:
            stamped["host"] = self._host
        stamped.update(event)
        self._seq += 1
        self._fh.write(json.dumps(stamped, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


#: Backwards-compatible alias (the class used to be module-private).
_EventLog = EventLog


def iter_events(path: Union[str, Path]) -> Iterator[dict]:
    """Yield the events of a JSONL log, skipping torn/corrupt lines.

    A crashed (or SIGKILLed) writer can leave a truncated trailing
    line; like ``QuarantineLedger._load``, a line that does not parse
    as a JSON object is silently skipped so readers degrade to the
    events that were durably written instead of crashing.
    """
    try:
        lines = Path(path).read_text().splitlines()
    except OSError:
        return
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except ValueError:
            continue
        if isinstance(event, dict):
            yield event


def merge_event_streams(paths: Sequence[Union[str, Path]]) -> List[dict]:
    """Deterministically merge several JSONL event logs.

    Events are ordered by ``(ts, host, seq)`` — wall-clock first, ties
    broken by host identity then per-host sequence number — so merging
    the orchestrator's log with every worker host's log yields the
    same stream no matter when or where the merge runs.
    """
    merged: List[dict] = []
    for path in paths:
        merged.extend(iter_events(path))
    merged.sort(
        key=lambda e: (e.get("ts", 0.0), str(e.get("host", "")), e.get("seq", 0))
    )
    return merged


def _cell_event(status: str, spec: CellSpec, **extra) -> dict:
    event = {
        "event": "cell",
        "status": status,
        "kind": spec.kind,
        "label": spec.label,
        "workload": spec.workload,
        "scheme": spec.scheme,
        "seed": spec.seed,
    }
    event.update(extra)
    return event


def _run_one(spec: CellSpec) -> Payload:
    """Single-attempt worker entry point; top-level so it pickles onto
    pool workers.  The retry loop lives supervisor-side now, so every
    attempt is individually visible, classified and backed off."""
    return run_cell(spec)


def _attempt_cell(spec: CellSpec, retries: int) -> Tuple[Payload, int]:
    """Run one cell with retry-on-``SimulationError``.

    Kept as the minimal inline retry helper (and for callers/tests
    that drive single cells); campaign execution goes through the
    supervised single-attempt path instead.  Returns
    ``(payload, attempts)``.
    """
    attempts = 0
    while True:
        attempts += 1
        try:
            return run_cell(spec), attempts
        except SimulationError:
            if attempts > retries:
                raise


def _retryable(exc: BaseException) -> bool:
    """Whether a failure is worth another attempt at all: typed
    simulator errors and failures of the *machinery around* the cell
    (worker death, timeout).  Anything else — ``KeyError`` and friends
    — is a genuine bug and fails on the first observation."""
    return isinstance(exc, (SimulationError, WorkerCrashError, CellTimeoutError))


def _kill_pool_workers(pool: ProcessPoolExecutor) -> None:
    """Hard-kill every worker of ``pool`` (per-cell timeout enforcement;
    the resulting ``BrokenProcessPool`` is handled by the supervisor)."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.kill()
        except Exception:  # pragma: no cover - already-dead workers
            pass


def execute_cells(
    cells: Sequence[CellSpec],
    *,
    workers: int = 1,
    cache: Optional[CellCache] = None,
    resume: bool = True,
    retries: int = 1,
    max_retries: Optional[int] = None,
    timeout: Optional[float] = None,
    quarantine: Optional[Union[QuarantineLedger, str, Path]] = None,
    checkpoint: Optional[Union[CampaignCheckpoint, str, Path]] = None,
    checkpoint_every: int = 4,
    failure_mode: str = "raise",
    log_path: Optional[Union[str, Path]] = None,
    log_host: Optional[str] = None,
    name: str = "campaign",
    on_result: Optional[Callable[[int, CellSpec, Payload, bool], None]] = None,
    on_failure: Optional[Callable[[int, CellSpec, BaseException, str], None]] = None,
) -> Tuple[List[Optional[Payload]], CampaignStats]:
    """Execute cells; return ``(payloads_in_declared_order, stats)``.

    ``max_retries`` is the total per-cell attempt budget (defaults to
    the legacy ``retries + 1``).  ``timeout`` is a per-cell wall-clock
    budget in seconds; enforcing it requires process isolation, so a
    timeout forces the pool path even for ``workers=1``.
    ``quarantine`` is a :class:`QuarantineLedger` (or its directory);
    ``checkpoint`` a :class:`CampaignCheckpoint` (or its file path).
    ``resume=False`` ignores cached/checkpointed entries (they are
    recomputed and overwritten) while still writing fresh results.
    ``on_result`` is called as ``(index, spec, payload, was_hit)`` in
    completion order — hits first, then runs as they finish;
    ``on_failure`` as ``(index, spec, exception, classification)`` when
    a cell fails for good.  ``log_host`` stamps every event with a host
    identity (multi-host campaigns merge their logs deterministically).

    While the engine runs on the main thread, SIGTERM/SIGINT are
    converted into :class:`CampaignInterrupted`: the checkpoint and
    event log are flushed and pool workers killed before the exception
    propagates, so an interrupted campaign resumes cleanly.
    """
    if failure_mode not in ("raise", "continue"):
        raise ValueError("failure_mode must be 'raise' or 'continue'")
    cells = list(cells)
    budget = max_retries if max_retries is not None else retries + 1
    policy = RetryPolicy(max_retries=budget, timeout=timeout)
    if isinstance(quarantine, (str, Path)):
        quarantine = QuarantineLedger(quarantine)
    if isinstance(checkpoint, (str, Path)):
        checkpoint = CampaignCheckpoint(
            Path(checkpoint),
            salt=cache.salt if cache is not None else code_salt(),
            name=name,
        )

    stats = CampaignStats(total=len(cells))
    log = EventLog(log_path, host=log_host)
    log.emit(
        {
            "event": "campaign-start",
            "name": name,
            "cells": len(cells),
            "workers": workers,
            "resume": resume,
            "salt": cache.salt if cache else None,
            "max_retries": budget,
            "timeout": timeout,
            "quarantine": str(quarantine.root) if quarantine else None,
            "checkpoint": str(checkpoint.path) if checkpoint else None,
        }
    )
    start = perf_counter()
    results: List[Optional[Payload]] = [None] * len(cells)
    done = [False] * len(cells)
    failures: Dict[int, CampaignError] = {}
    pending: List[int] = []

    keyed = cache is not None or quarantine is not None or checkpoint is not None
    keys: Dict[int, str] = {}

    def key_of(index: int) -> str:
        key = keys.get(index)
        if key is None:
            salt = cache.salt if cache is not None else code_salt()
            keys[index] = key = cells[index].cache_key(salt)
        return key

    if checkpoint is not None and resume:
        checkpoint.load()

    # Entered/exited manually so the large body below keeps its
    # indentation; semantically a ``with _SignalGuard():`` around the
    # whole execution.
    guard = _SignalGuard()
    guard.__enter__()
    try:
        # ---- Phase 1: cache / checkpoint recovery --------------------
        for index, spec in enumerate(cells):
            payload = cache.get(spec) if (cache is not None and resume) else None
            restored = False
            if payload is None and checkpoint is not None and resume:
                payload = checkpoint.get(key_of(index))
                restored = payload is not None
                if restored and cache is not None:
                    cache.put(spec, payload)  # heal the cache
            if payload is not None:
                results[index] = payload
                done[index] = True
                stats.hits += 1
                if restored:
                    stats.restored += 1
                if checkpoint is not None:
                    checkpoint.record(key_of(index), payload)
                log.emit(
                    _cell_event(
                        "restored" if restored else "hit",
                        spec,
                        key=key_of(index) if keyed else None,
                    )
                )
                if on_result is not None:
                    on_result(index, spec, payload, True)
            else:
                pending.append(index)

        # ---- Phase 2: quarantine skip --------------------------------
        runnable: List[int] = []
        for index in pending:
            if quarantine is not None and quarantine.is_quarantined(key_of(index)):
                spec = cells[index]
                entry = quarantine.entry_for(key_of(index)) or {}
                exc = QuarantinedCellError(
                    f"cell {spec.label} is quarantined "
                    f"({entry.get('classification', 'unknown')}: "
                    f"{entry.get('error', 'see ledger')}); remove "
                    f"{quarantine.report_path(key_of(index))} to retry"
                )
                failures[index] = CampaignError(spec, exc, 0)
                stats.quarantined += 1
                stats.failed += 1
                if on_failure is not None:
                    on_failure(index, spec, exc, "quarantined")
                log.emit(
                    _cell_event(
                        "quarantined-skip", spec, key=key_of(index)
                    )
                )
            else:
                runnable.append(index)

        attempts: Dict[int, int] = {index: 0 for index in runnable}
        signatures: Dict[int, List[str]] = {index: [] for index in runnable}

        def _complete(index: int, payload: Payload, secs: float) -> None:
            attempts[index] += 1  # the successful attempt
            results[index] = payload
            done[index] = True
            stats.executed += 1
            stats.retried += attempts[index] - 1
            spec = cells[index]
            if cache is not None:
                cache.put(spec, payload)
            if checkpoint is not None:
                checkpoint.record(key_of(index), payload)
                if checkpoint.dirty >= checkpoint_every:
                    checkpoint.flush()
                    log.emit(
                        {
                            "event": "checkpoint",
                            "name": name,
                            "completed": len(checkpoint.entries),
                        }
                    )
            log.emit(
                _cell_event(
                    "done",
                    spec,
                    attempts=attempts[index],
                    elapsed=round(secs, 3),
                    key=key_of(index) if keyed else None,
                )
            )
            if on_result is not None:
                on_result(index, spec, payload, False)

        def _fail(index: int, exc: BaseException, classification: str) -> None:
            spec = cells[index]
            stats.failed += 1
            if quarantine is not None:
                report = FailureReport.from_failure(
                    spec,
                    key_of(index),
                    exc,
                    attempts[index],
                    signatures[index],
                    classification,
                )
                if classification in ("deterministic", "fatal"):
                    quarantine.quarantine(report)
                    stats.quarantined += 1
                else:
                    # "exhausted" means the budget ran out on *differing*
                    # signatures — a flaky cell, not a condemned one.  Keep
                    # the structured report for post-mortems but write no
                    # ledger line, so the next campaign retries it.
                    quarantine.record_failure(report)
            log.emit(
                _cell_event(
                    "failed",
                    spec,
                    attempts=attempts[index],
                    classification=classification,
                    error=str(exc),
                    key=key_of(index) if keyed else None,
                )
            )
            failures[index] = CampaignError(spec, exc, attempts[index])
            if on_failure is not None:
                on_failure(index, spec, exc, classification)

        def _after_failure(index: int, exc: BaseException):
            """Account one failed attempt; returns ``("fail", cls)`` or
            ``("retry", delay_seconds)``."""
            signatures[index].append(error_signature(exc))
            attempts[index] += 1
            if not _retryable(exc):
                return ("fail", "fatal")
            classification = classify_attempts(signatures[index])
            if classification == "deterministic":
                return ("fail", "deterministic")
            if attempts[index] >= budget:
                return ("fail", "exhausted")
            jitter_key = key_of(index) if keyed else cells[index].canonical_json()
            delay = policy.delay_before(attempts[index] + 1, jitter_key)
            log.emit(
                _cell_event(
                    "retry",
                    cells[index],
                    attempts=attempts[index],
                    error=str(exc),
                    delay=round(delay, 3),
                )
            )
            return ("retry", delay)

        # ---- Phase 3: supervised execution ---------------------------
        use_pool = bool(runnable) and (
            (workers > 1 and len(runnable) > 1) or timeout is not None
        )
        if use_pool:
            _supervise_pool(
                cells,
                runnable,
                workers=max(1, workers),
                timeout=timeout,
                stats=stats,
                log=log,
                name=name,
                after_failure=_after_failure,
                complete=_complete,
                fail=_fail,
            )
        else:
            for index in runnable:
                t0 = perf_counter()
                spec = cells[index]
                while True:
                    try:
                        payload = run_cell(spec)
                    except Exception as exc:
                        verdict, extra = _after_failure(index, exc)
                        if verdict == "fail":
                            _fail(index, exc, extra)
                            break
                        time.sleep(extra)
                        continue
                    _complete(index, payload, perf_counter() - t0)
                    break

        stats.elapsed = perf_counter() - start
        if checkpoint is not None:
            checkpoint.flush()
        log.emit({"event": "campaign-end", "name": name, **stats.as_dict()})
        assert all(done[i] or i in failures for i in range(len(cells)))
        if failures and failure_mode == "raise":
            raise failures[min(failures)]
        return list(results), stats
    except CampaignInterrupted as exc:
        # Graceful shutdown: record the interruption, then let the
        # ``finally`` below flush the checkpoint and close the log
        # before the signal propagates.
        log.emit({"event": "interrupted", "name": name, "signal": exc.signum})
        raise
    finally:
        guard.__exit__()
        if checkpoint is not None:
            checkpoint.flush()
        log.close()


def _supervise_pool(
    cells: List[CellSpec],
    runnable: List[int],
    *,
    workers: int,
    timeout: Optional[float],
    stats: CampaignStats,
    log: _EventLog,
    name: str,
    after_failure,
    complete,
    fail,
) -> None:
    """The supervised process-pool loop.

    Submissions are single attempts through a sliding window of at
    most ``workers`` in-flight futures (so a wall-clock deadline
    measured from submission is a faithful per-cell budget).  Worker
    death breaks every in-flight future; the supervisor charges the
    attempt only to the cells that were actually *running* (the likely
    culprits), resubmits the queued innocents for free, and respawns
    the pool.  A timed-out cell is killed by killing the whole pool —
    the only portable lever — and classified ``timeout`` rather than
    ``worker-crash``; cells that merely shared the pool with it
    (running but within their own deadline) are collateral damage and
    are resubmitted without being charged an attempt, so back-to-back
    timeout kills cannot condemn an innocent cell as deterministic.
    """
    pool = ProcessPoolExecutor(max_workers=workers)
    inflight: Dict[Future, int] = {}
    started: Dict[Future, float] = {}
    deadlines: Dict[Future, float] = {}
    first_start: Dict[int, float] = {}
    #: (ready_at, index) retry/backlog queue, consumed in order.
    waiting: List[Tuple[float, int]] = [(0.0, index) for index in runnable]
    timed_out: Set[int] = set()
    running_snapshot: Set[Future] = set()
    #: True while a pool break was supervisor-initiated (timeout
    #: enforcement) rather than a spontaneous worker death.
    supervisor_kill = False

    def respawn() -> None:
        nonlocal pool
        pool.shutdown(wait=False)
        pool = ProcessPoolExecutor(max_workers=workers)

    def submit(index: int) -> None:
        nonlocal pool
        for _ in range(2):
            try:
                future = pool.submit(_run_one, cells[index])
            except BrokenProcessPool:
                respawn()
                continue
            now = perf_counter()
            inflight[future] = index
            started[future] = now
            first_start.setdefault(index, now)
            if timeout is not None:
                deadlines[future] = now + timeout
            return
        raise RuntimeError("process pool kept breaking on submit")

    def handle_outcome(future: Future, index: int, exc: Optional[BaseException],
                       payload) -> None:
        timed_out.discard(index)
        if exc is None:
            complete(index, payload, perf_counter() - first_start[index])
            return
        verdict, extra = after_failure(index, exc)
        if verdict == "fail":
            fail(index, exc, extra)
        else:
            waiting.append((perf_counter() + extra, index))

    try:
        while inflight or waiting:
            now = perf_counter()
            if waiting and len(inflight) < workers:
                still_waiting: List[Tuple[float, int]] = []
                for ready_at, index in waiting:
                    if len(inflight) < workers and ready_at <= now:
                        submit(index)
                    else:
                        still_waiting.append((ready_at, index))
                waiting = still_waiting
            if not inflight:
                next_ready = min(ready_at for ready_at, _ in waiting)
                time.sleep(min(max(0.0, next_ready - now), 0.25))
                continue

            running_snapshot = {f for f in inflight if f.running()}
            wait_timeout = None
            if deadlines:
                wait_timeout = max(0.01, min(deadlines.values()) - now)
            if waiting:
                next_ready = max(0.01, min(r for r, _ in waiting) - now)
                wait_timeout = (
                    next_ready
                    if wait_timeout is None
                    else min(wait_timeout, next_ready)
                )
            finished, _ = wait(
                list(inflight), timeout=wait_timeout, return_when=FIRST_COMPLETED
            )

            if timeout is not None and not finished:
                now = perf_counter()
                expired = [
                    future
                    for future, deadline in deadlines.items()
                    if deadline <= now and not future.done()
                ]
                if expired:
                    for future in expired:
                        timed_out.add(inflight[future])
                        stats.timeouts += 1
                    log.emit(
                        {
                            "event": "timeout-kill",
                            "name": name,
                            "cells": [
                                cells[inflight[f]].label for f in expired
                            ],
                        }
                    )
                    running_snapshot = {f for f in inflight if f.running()}
                    running_snapshot.update(expired)
                    supervisor_kill = True
                    _kill_pool_workers(pool)
                continue

            # A broken pool still returns results from futures that
            # completed before the break, so harvest every finished
            # future first; only futures that broke (or are still
            # pending in-flight) become victims.
            victims: Dict[Future, int] = {}
            for future in finished:
                index = inflight.pop(future)
                started.pop(future, None)
                deadlines.pop(future, None)
                try:
                    payload = future.result()
                except BrokenProcessPool:
                    victims[future] = index
                except Exception as exc:
                    handle_outcome(future, index, exc, None)
                else:
                    handle_outcome(future, index, None, payload)

            if victims:
                victims.update(inflight)
                inflight.clear()
                started.clear()
                deadlines.clear()
                stats.crashes += 1
                log.emit(
                    {
                        "event": "pool-respawn",
                        "name": name,
                        "victims": [cells[i].label for i in victims.values()],
                    }
                )
                now = perf_counter()
                for future, index in victims.items():
                    if index in timed_out:
                        exc: BaseException = CellTimeoutError(
                            f"cell exceeded its {timeout:.3f}s wall-clock budget"
                        )
                        handle_outcome(future, index, exc, None)
                    elif future in running_snapshot and not supervisor_kill:
                        exc = WorkerCrashError(
                            "worker process died mid-cell "
                            "(killed, out-of-memory, or crashed)"
                        )
                        handle_outcome(future, index, exc, None)
                    else:
                        # Queued innocent — or collateral damage of a
                        # supervisor timeout kill: resubmit without
                        # charging an attempt.
                        waiting.append((now, index))
                supervisor_kill = False
                respawn()
    except BaseException:
        # An interrupt (SIGTERM/SIGINT via CampaignInterrupted) or an
        # engine bug is unwinding the campaign; without this, running
        # pool workers would survive the orchestrating process as
        # orphans still burning CPU on cells nobody will collect.
        _kill_pool_workers(pool)
        raise
    finally:
        pool.shutdown(wait=False)


@dataclass
class Campaign:
    """A named iterable of cells plus an optional reducer.

    ``run()`` executes the cells through :func:`execute_cells` and
    returns ``reducer(payloads)`` (or the raw payload list).  The
    stats of the latest run are kept on ``last_stats`` so callers —
    and the CI cache-hit smoke check — can assert hit/run counts.

    With a ``cache_dir``, the supervision artifacts land beside the
    cell cache by default: the JSONL event log, the campaign
    checkpoint, and the quarantine ledger (under
    ``<cache_dir>/quarantine``).
    """

    name: str
    cells: Tuple[CellSpec, ...]
    reducer: Optional[Callable[[List[Payload]], object]] = None
    last_stats: Optional[CampaignStats] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        self.cells = tuple(self.cells)

    def run(
        self,
        *,
        workers: int = 1,
        cache_dir: Optional[Union[str, Path]] = None,
        resume: bool = True,
        retries: int = 1,
        max_retries: Optional[int] = None,
        timeout: Optional[float] = None,
        quarantine_dir: Optional[Union[str, Path]] = None,
        checkpoint_path: Optional[Union[str, Path]] = None,
        checkpoint_every: int = 4,
        failure_mode: str = "raise",
        log_path: Optional[Union[str, Path]] = None,
        on_result: Optional[Callable] = None,
        hosts: Optional[str] = None,
        config_overrides: ItemsLike = (),
    ):
        # The one point run-wide options (``--faults``, ``--bounds``,
        # ...) enter the cells: before hashing and before either
        # carrier, so they are in every content address and travel to
        # pool workers and service hosts inside the spec.
        cells = tuple(
            cell.with_config_overrides(config_overrides) for cell in self.cells
        )
        if hosts:
            # Distributed path: shard the cells across worker hosts via
            # the campaign service (``local:N`` spawns an ephemeral
            # localhost cluster; ``host:port`` submits to a running
            # orchestrator).  See docs/service.md.
            from .service import run_hosted

            payloads, stats = run_hosted(
                cells,
                hosts,
                name=self.name,
                cache_dir=cache_dir,
                workers=workers,
                timeout=timeout,
                max_retries=max_retries,
                resume=resume,
                failure_mode=failure_mode,
                log_path=log_path,
                on_result=on_result,
            )
            self.last_stats = stats
            return self.reducer(payloads) if self.reducer is not None else payloads
        cache = None
        if cache_dir is not None:
            cache = CellCache(cache_dir)
            safe = "".join(
                c if c.isalnum() or c in "-_" else "-" for c in self.name
            )
            if log_path is None:
                log_path = Path(cache_dir) / f"{safe}.events.jsonl"
            if checkpoint_path is None:
                checkpoint_path = Path(cache_dir) / f"{safe}.checkpoint.json"
            if quarantine_dir is None:
                quarantine_dir = Path(cache_dir) / "quarantine"
        quarantine = (
            QuarantineLedger(quarantine_dir) if quarantine_dir is not None else None
        )
        checkpoint = None
        if checkpoint_path is not None:
            checkpoint = CampaignCheckpoint(
                Path(checkpoint_path),
                salt=cache.salt if cache is not None else code_salt(),
                name=self.name,
            )
        payloads, stats = execute_cells(
            cells,
            workers=workers,
            cache=cache,
            resume=resume,
            retries=retries,
            max_retries=max_retries,
            timeout=timeout,
            quarantine=quarantine,
            checkpoint=checkpoint,
            checkpoint_every=checkpoint_every,
            failure_mode=failure_mode,
            log_path=log_path,
            name=self.name,
            on_result=on_result,
        )
        self.last_stats = stats
        return self.reducer(payloads) if self.reducer is not None else payloads
