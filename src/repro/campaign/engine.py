"""Campaign execution: cache lookup, supervised fan-out, recovery.

``execute_cells`` is the one code path every experiment goes through,
whatever carries the cells:

1. each cell is looked up in the content-addressed cache (hits skip
   simulation entirely; the store is written once per finished cell,
   which is also what makes interrupted — even ``kill -9``'d —
   campaigns resumable);
2. cells already condemned by the :class:`QuarantineLedger` are
   reported as failed immediately instead of burning retries again;
3. the misses go to one of three **carriers**, which do nothing but
   run attempts and report them back: the inline loop (``workers=1``
   without a timeout), the supervised process pool
   (:func:`_supervise_pool`: sliding submission window, per-cell
   wall-clock timeouts, detection of worker death with automatic pool
   respawn) or, with ``hosts``, the campaign service
   (:mod:`repro.campaign.service`: worker hosts over TCP);
4. every report lands in the one :class:`_Run` that counts, retries
   with exponential backoff and deterministic jitter, classifies (a
   cell failing twice with the identical signature is quarantined,
   not re-run), writes the cache, appends a structured event to the
   JSONL progress log, and files structured failure reports carrying
   any post-mortem the error captured.

Results always come back in declared cell order regardless of
completion order.  With ``failure_mode="raise"`` (the default) a
campaign with failed cells finishes every *other* cell first — so the
work is cached and resumable — then raises the first failure in
declared order; ``failure_mode="continue"`` returns ``None`` for
failed cells instead.  That holds on every carrier.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
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
        return {**asdict(self), "elapsed": round(self.elapsed, 3)}


class CampaignInterrupted(KeyboardInterrupt):
    """A SIGTERM/SIGINT arrived mid-campaign.

    Raised *after* the engine's cleanup has a chance to run (event-log
    close, pool-worker kill), so a Ctrl-C'd or systemd-stopped campaign
    resumes cleanly from its store.
    Subclasses :class:`KeyboardInterrupt` so callers that already treat
    Ctrl-C as fatal keep their semantics.
    """

    def __init__(self, signum: int) -> None:
        self.signum = signum
        super().__init__(f"campaign interrupted by signal {signum}")


@contextmanager
def _interruptible() -> Iterator[None]:
    """Convert SIGTERM/SIGINT into :class:`CampaignInterrupted`.

    Wrapped around the whole of ``execute_cells`` so termination
    unwinds through the engine's cleanup (event-log close, pool-worker
    kill) instead of dying mid-write.  Signal handlers are a
    main-thread-only facility; anywhere else (e.g. a worker host
    running the engine on a thread) this is a no-op and the surrounding
    process owns signal handling.
    """

    def interrupt(signum: int, frame) -> None:
        raise CampaignInterrupted(signum)

    previous = {}
    if threading.current_thread() is threading.main_thread():
        for sig in (signal.SIGTERM, signal.SIGINT):
            previous[sig] = signal.signal(sig, interrupt)
    try:
        yield
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)


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
        self.path = Path(path) if path is not None else None
        self._fh = None
        self._host = host
        self._seq = 0
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a")

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


def _one_attempt(spec: CellSpec) -> Payload:
    """One attempt at one cell, wherever it runs.

    Pool workers receive this function by name and resolve ``run_cell``
    in their own copy of this module, so a replaced ``run_cell`` (the
    chaos tests patch it before the pool forks) is what they call.
    """
    return run_cell(spec)


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


@dataclass
class _Run:
    """Everything one ``execute_cells`` call knows about its cells.

    The front door creates it, looks the cells up through it, and hands
    it to one carrier together with the indices left to run.  A carrier
    only runs attempts and reports each through exactly one of

    * ``complete(index, payload, secs, was_hit=False)`` — a payload
      (``was_hit``: a service store answered, nothing ran);
    * ``attempt_failed(index, exc)`` — one attempt raised; returns the
      seconds to wait before the next attempt, or ``None`` when the
      cell has failed for good (``fail`` has then been called);
    * ``fail(index, exc, classification)`` — a final verdict reached
      elsewhere (a worker host already classified the failure).

    Counting, classification, the cache, quarantine, the event log and
    the callbacks all happen here, so they are the same under every
    carrier.  As a context manager it guarantees the log close however
    the run unwinds.
    """

    cells: List[CellSpec]
    cache: Optional[CellCache]
    quarantine: Optional[QuarantineLedger]
    policy: RetryPolicy
    log: EventLog
    name: str
    on_result: Optional[Callable[[int, CellSpec, Payload, bool], None]]
    on_failure: Optional[Callable[[int, CellSpec, BaseException, str], None]]

    def __post_init__(self) -> None:
        count = len(self.cells)
        self.stats = CampaignStats(total=count)
        self.results: List[Optional[Payload]] = [None] * count
        self.failures: Dict[int, CampaignError] = {}
        #: Attempts charged to each cell, and their failure signatures.
        self.attempts = [0] * count
        self.signatures: Dict[int, List[str]] = {}
        #: Whether events carry the content address (computing it only
        #: for the log would put a hash on every cache-less cell).
        self.keyed = not (self.cache is None and self.quarantine is None)
        self._keys: List[Optional[str]] = [None] * count

    def __enter__(self) -> "_Run":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        if isinstance(exc, CampaignInterrupted):
            self.log.emit(
                {"event": "interrupted", "name": self.name, "signal": exc.signum}
            )
        self.log.close()

    def key_of(self, index: int) -> str:
        """The content address of ``cells[index]``: hashed here, once a
        run, and nowhere else — the store, the ledger and the log are
        all handed this string."""
        key = self._keys[index]
        if key is None:
            salt = self.cache.salt if self.cache is not None else code_salt()
            self._keys[index] = key = self.cells[index].cache_key(salt)
        return key

    def _event_key(self, index: int) -> Optional[str]:
        return self.key_of(index) if self.keyed else None

    def _log_cell(self, status: str, index: int, **extra) -> None:
        """One cell event — built only when a log is there to take it."""
        if self.log.path is None:
            return
        spec = self.cells[index]
        self.log.emit(
            {
                "event": "cell",
                "status": status,
                "kind": spec.kind,
                "label": spec.label,
                "workload": spec.workload,
                "scheme": spec.scheme,
                "seed": spec.seed,
                **extra,
            }
        )

    # -- lookup ---------------------------------------------------------
    def lookup(self, resume: bool) -> List[int]:
        """Answer what the cache and the quarantine ledger can; returns
        the indices left to run, in declared order."""
        cache = self.cache if resume else None
        runnable: List[int] = []
        for index, spec in enumerate(self.cells):
            payload = (
                cache.get(spec, self.key_of(index)) if cache is not None else None
            )
            if payload is not None:
                self._deliver(index, payload, "hit", store=False)
            elif self.quarantine is not None and self.quarantine.is_quarantined(
                self.key_of(index)
            ):
                self._skip_quarantined(index)
            else:
                runnable.append(index)
        return runnable

    def _skip_quarantined(self, index: int) -> None:
        spec, key = self.cells[index], self.key_of(index)
        entry = self.quarantine.entry_for(key) or {}
        exc = QuarantinedCellError(
            f"cell {spec.label} is quarantined "
            f"({entry.get('classification', 'unknown')}: "
            f"{entry.get('error', 'see ledger')}); remove "
            f"{self.quarantine.report_path(key)} to retry"
        )
        self.stats.quarantined += 1
        self.stats.failed += 1
        self.failures[index] = CampaignError(spec, exc, 0)
        self._log_cell("quarantined-skip", index, key=key)
        if self.on_failure is not None:
            self.on_failure(index, spec, exc, "quarantined")

    # -- what carriers report -------------------------------------------
    def complete(
        self, index: int, payload: Payload, secs: float, was_hit: bool = False
    ) -> None:
        if was_hit:
            self._deliver(index, payload, "hit")
            return
        self.attempts[index] += 1  # the successful attempt
        self.stats.executed += 1
        self.stats.retried += self.attempts[index] - 1
        self._deliver(
            index,
            payload,
            "done",
            attempts=self.attempts[index],
            elapsed=round(secs, 3),
        )

    def _deliver(
        self, index: int, payload: Payload, status: str, *, store: bool = True, **extra
    ) -> None:
        """A payload for ``index``, from wherever: keep it, persist it,
        log it, tell the caller."""
        spec = self.cells[index]
        fresh = status == "done"
        self.results[index] = payload
        if not fresh:
            self.stats.hits += 1
        if store and self.cache is not None:
            self.cache.put(spec, payload, self.key_of(index))
        self._log_cell(status, index, key=self._event_key(index), **extra)
        if self.on_result is not None:
            self.on_result(index, spec, payload, not fresh)

    def attempt_failed(self, index: int, exc: BaseException) -> Optional[float]:
        signatures = self.signatures.setdefault(index, [])
        signatures.append(error_signature(exc))
        self.attempts[index] += 1
        if not _retryable(exc):
            verdict = "fatal"
        elif classify_attempts(signatures) == "deterministic":
            verdict = "deterministic"
        elif self.attempts[index] >= self.policy.max_retries:
            verdict = "exhausted"
        else:
            spec = self.cells[index]
            delay = self.policy.delay_before(
                self.attempts[index] + 1,
                self.key_of(index) if self.keyed else spec.canonical_json(),
            )
            self._log_cell(
                "retry",
                index,
                attempts=self.attempts[index],
                error=str(exc),
                delay=round(delay, 3),
            )
            return delay
        self.fail(index, exc, verdict)
        return None

    def fail(self, index: int, exc: BaseException, classification: str) -> None:
        spec = self.cells[index]
        self.stats.failed += 1
        if self.quarantine is not None:
            report = FailureReport.from_failure(
                spec,
                self.key_of(index),
                exc,
                self.attempts[index],
                self.signatures.get(index, []),
                classification,
            )
            if classification in ("deterministic", "fatal"):
                self.quarantine.quarantine(report)
                self.stats.quarantined += 1
            else:
                # "exhausted" means the budget ran out on *differing*
                # signatures — a flaky cell, not a condemned one (and a
                # lost host condemns nobody).  Keep the structured
                # report for post-mortems but write no ledger line, so
                # the next campaign retries it.
                self.quarantine.record_failure(report)
        self._log_cell(
            "failed",
            index,
            attempts=self.attempts[index],
            classification=classification,
            error=str(exc),
            key=self._event_key(index),
        )
        self.failures[index] = CampaignError(spec, exc, self.attempts[index])
        if self.on_failure is not None:
            self.on_failure(index, spec, exc, classification)


def execute_cells(
    cells: Sequence[CellSpec],
    *,
    workers: int = 1,
    hosts: Optional[str] = None,
    cache: Optional[CellCache] = None,
    resume: bool = True,
    max_retries: int = 2,
    timeout: Optional[float] = None,
    quarantine: Optional[Union[QuarantineLedger, str, Path]] = None,
    failure_mode: str = "raise",
    log_path: Optional[Union[str, Path]] = None,
    log_host: Optional[str] = None,
    name: str = "campaign",
    on_result: Optional[Callable[[int, CellSpec, Payload, bool], None]] = None,
    on_failure: Optional[Callable[[int, CellSpec, BaseException, str], None]] = None,
) -> Tuple[List[Optional[Payload]], CampaignStats]:
    """Execute cells; return ``(payloads_in_declared_order, stats)``.

    ``hosts`` sends the cells that miss to the campaign service instead
    of this process: ``"local:N"`` stands up an ephemeral cluster of N
    worker hosts (each a ``workers``-wide engine, with this call's
    ``timeout`` and ``max_retries``) for just this campaign, beside
    whose log the orchestrator's ``service.events.jsonl`` and the
    hosts' ``hosts/*.events.jsonl`` land; ``"HOST:PORT"`` submits to a
    running ``repro.cli serve``, whose hosts keep their own settings.
    Everything else below means the same with and without it.

    ``max_retries`` is the total per-cell attempt budget.  ``timeout``
    is a per-cell wall-clock budget in seconds; enforcing it requires
    process isolation, so a timeout forces the pool path even for
    ``workers=1``.  ``quarantine`` is a :class:`QuarantineLedger` (or
    its directory).  ``resume=False`` ignores cached entries (they are
    recomputed and overwritten) while still writing fresh results.
    ``on_result`` is called as ``(index, spec, payload, was_hit)`` in
    completion order — hits first, then runs as they finish;
    ``on_failure`` as ``(index, spec, exception, classification)`` when
    a cell fails for good.  ``log_host`` stamps every event with a host
    identity (multi-host campaigns merge their logs deterministically).

    While the engine runs on the main thread, SIGTERM/SIGINT are
    converted into :class:`CampaignInterrupted`: the event log is
    closed and pool workers killed before the exception propagates.
    Every finished cell is already in the store (one atomic ``put``
    each), so an interrupted campaign resumes cleanly.
    """
    if failure_mode not in ("raise", "continue"):
        raise ValueError("failure_mode must be 'raise' or 'continue'")
    cells = list(cells)
    if isinstance(quarantine, (str, Path)):
        quarantine = QuarantineLedger(quarantine)
    run = _Run(
        cells,
        cache=cache,
        quarantine=quarantine,
        policy=RetryPolicy(max_retries=max_retries, timeout=timeout),
        log=EventLog(log_path, host=log_host),
        name=name,
        on_result=on_result,
        on_failure=on_failure,
    )
    run.log.emit(
        {
            "event": "campaign-start",
            "name": name,
            "cells": len(cells),
            "workers": workers,
            "hosts": hosts,
            "resume": resume,
            "salt": cache.salt if cache else None,
            "max_retries": max_retries,
            "timeout": timeout,
            "quarantine": str(quarantine.root) if quarantine else None,
        }
    )
    start = perf_counter()
    with _interruptible(), run:
        runnable = run.lookup(resume)
        if not runnable:
            pass
        elif hosts:
            # Imported here: the service package imports this module.
            from .service.client import carry_on_service

            carry_on_service(
                run, runnable, hosts, workers=max(1, workers), resume=resume
            )
        elif timeout is not None or (workers > 1 and len(runnable) > 1):
            _supervise_pool(run, runnable, workers=max(1, workers))
        else:
            _run_inline(run, runnable)
        run.stats.elapsed = perf_counter() - start
        run.log.emit({"event": "campaign-end", "name": name, **run.stats.as_dict()})
    assert all(
        payload is not None or index in run.failures
        for index, payload in enumerate(run.results)
    ), "a carrier returned without a verdict for every cell"
    if run.failures and failure_mode == "raise":
        raise run.failures[min(run.failures)]
    return run.results, run.stats


def _run_inline(run: _Run, runnable: List[int]) -> None:
    """The in-process carrier: one cell at a time, retried in place."""
    for index in runnable:
        spec = run.cells[index]
        started = perf_counter()
        while True:
            try:
                payload = _one_attempt(spec)
            except Exception as exc:
                delay = run.attempt_failed(index, exc)
                if delay is None:
                    break
                time.sleep(delay)
            else:
                run.complete(index, payload, perf_counter() - started)
                break


def _supervise_pool(run: _Run, runnable: List[int], *, workers: int) -> None:
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
    cells, stats, log, timeout = run.cells, run.stats, run.log, run.policy.timeout
    pool = ProcessPoolExecutor(max_workers=workers)
    inflight: Dict[Future, int] = {}
    deadlines: Dict[Future, float] = {}
    first_start: Dict[int, float] = {}
    #: Never-submitted cells, consumed in declared order whenever the
    #: window has room; they are always ready, so they never wake the
    #: loop — a completion does.
    backlog = deque(runnable)
    #: (ready_at, index) of cells waiting out a retry delay (or for a
    #: respawned pool), served in this order once the backlog is empty.
    retries: List[Tuple[float, int]] = []
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
        for _ in range(2):
            try:
                future = pool.submit(_one_attempt, cells[index])
            except BrokenProcessPool:
                respawn()
                continue
            now = perf_counter()
            inflight[future] = index
            first_start.setdefault(index, now)
            if timeout is not None:
                deadlines[future] = now + timeout
            return
        raise RuntimeError("process pool kept breaking on submit")

    def handle_outcome(index: int, exc: Optional[BaseException], payload) -> None:
        timed_out.discard(index)
        if exc is None:
            run.complete(index, payload, perf_counter() - first_start[index])
            return
        delay = run.attempt_failed(index, exc)
        if delay is not None:
            retries.append((perf_counter() + delay, index))

    try:
        while inflight or backlog or retries:
            now = perf_counter()
            while backlog and len(inflight) < workers:
                submit(backlog.popleft())
            if retries and len(inflight) < workers:
                not_yet: List[Tuple[float, int]] = []
                for ready_at, index in retries:
                    if len(inflight) < workers and ready_at <= now:
                        submit(index)
                    else:
                        not_yet.append((ready_at, index))
                retries = not_yet
            if not inflight:
                next_ready = min(ready_at for ready_at, _ in retries)
                time.sleep(min(max(0.0, next_ready - now), 0.25))
                continue

            running_snapshot = {f for f in inflight if f.running()}
            wait_timeout = None
            if deadlines:
                wait_timeout = max(0.01, min(deadlines.values()) - now)
            if retries and len(inflight) < workers:
                # A free slot and a retry still serving its delay: wake
                # when it is ready.  A full window needs no alarm — the
                # completion that frees a slot ends the wait.
                next_ready = max(0.01, min(r for r, _ in retries) - now)
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
                            "name": run.name,
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
                deadlines.pop(future, None)
                try:
                    payload = future.result()
                except BrokenProcessPool:
                    victims[future] = index
                except Exception as exc:
                    handle_outcome(index, exc, None)
                else:
                    handle_outcome(index, None, payload)

            if victims:
                victims.update(inflight)
                inflight.clear()
                deadlines.clear()
                stats.crashes += 1
                log.emit(
                    {
                        "event": "pool-respawn",
                        "name": run.name,
                        "victims": [cells[i].label for i in victims.values()],
                    }
                )
                now = perf_counter()
                for future, index in victims.items():
                    if index in timed_out:
                        exc: BaseException = CellTimeoutError(
                            f"cell exceeded its {timeout:.3f}s wall-clock budget"
                        )
                        handle_outcome(index, exc, None)
                    elif future in running_snapshot and not supervisor_kill:
                        exc = WorkerCrashError(
                            "worker process died mid-cell "
                            "(killed, out-of-memory, or crashed)"
                        )
                        handle_outcome(index, exc, None)
                    else:
                        # Queued innocent — or collateral damage of a
                        # supervisor timeout kill: resubmit without
                        # charging an attempt.
                        retries.append((now, index))
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
    cell cache by default: the JSONL event log and the quarantine
    ledger (under ``<cache_dir>/quarantine``) — whichever carrier
    (``workers``, ``hosts``) runs the cells.  The cache is the only
    record of finished cells: rerunning resumes from it.
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
        hosts: Optional[str] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        resume: bool = True,
        max_retries: int = 2,
        timeout: Optional[float] = None,
        quarantine_dir: Optional[Union[str, Path]] = None,
        failure_mode: str = "raise",
        log_path: Optional[Union[str, Path]] = None,
        on_result: Optional[Callable] = None,
        config_overrides: ItemsLike = (),
    ):
        # The one point run-wide options (``--faults``, ``--bounds``,
        # ...) enter the cells: before hashing and before any carrier,
        # so they are in every content address and travel to pool
        # workers and service hosts inside the spec.
        cells = tuple(
            cell.with_config_overrides(config_overrides) for cell in self.cells
        )
        if cache_dir is not None:
            root = Path(cache_dir)
            safe = "".join(
                c if c.isalnum() or c in "-_" else "-" for c in self.name
            )
            log_path = log_path or root / f"{safe}.events.jsonl"
            quarantine_dir = quarantine_dir or root / "quarantine"
        payloads, stats = execute_cells(
            cells,
            workers=workers,
            hosts=hosts,
            cache=CellCache(cache_dir) if cache_dir is not None else None,
            resume=resume,
            max_retries=max_retries,
            timeout=timeout,
            quarantine=quarantine_dir,
            failure_mode=failure_mode,
            log_path=log_path,
            name=self.name,
            on_result=on_result,
        )
        self.last_stats = stats
        return self.reducer(payloads) if self.reducer is not None else payloads
