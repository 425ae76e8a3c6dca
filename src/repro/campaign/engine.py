"""Campaign execution: cache lookup, supervised fan-out, recovery.

``execute_cells`` is the one code path every experiment goes through,
whatever carries the cells:

1. each cell's entry is read from the content-addressed cache once: a
   payload is a hit (simulation skipped entirely; the store is written
   once per finished cell, which is also what makes interrupted — even
   ``kill -9``'d — campaigns resumable), and a condemning
   :class:`FailureReport` fails the cell at once instead of running it
   again;
2. the rest go to one of three **carriers**, which do nothing but
   run attempts and report them back: the inline loop (``workers=1``
   without a timeout), the supervised process pool
   (:func:`_supervise_pool`: one forked worker per slot, per-cell
   wall-clock timeouts; a worker's death or timeout is its own cell's
   verdict, and only that worker is replaced) or, with ``hosts``, the
   campaign service (:mod:`repro.campaign.service`: worker hosts over
   TCP);
3. every report lands in the one :class:`_Run` that counts, retries
   and classifies (by the verdict rule of ``docs/resilience.md``: only
   a crash or a timeout is retried), writes the cache — a payload, or
   a structured failure report carrying any post-mortem the error
   captured — and appends a structured event to the JSONL progress
   log.

Results always come back in declared cell order regardless of
completion order.  With ``failure_mode="raise"`` (the default) a
campaign with failed cells finishes every *other* cell first — so the
work is cached and resumable — then raises the first failure in
declared order; ``failure_mode="continue"`` returns ``None`` for
failed cells instead.  That holds on every carrier.
"""

from __future__ import annotations

import json
import multiprocessing
import pickle
import signal
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from multiprocessing.connection import Connection, wait
from pathlib import Path
from time import perf_counter
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .cache import CellCache, Payload, code_salt
from .runner import run_cell
from .spec import CellSpec, ItemsLike
from .supervisor import (
    CellTimeoutError,
    FailureReport,
    QuarantinedCellError,
    RetryPolicy,
    WorkerCrashError,
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
    #: Pool workers that died mid-cell (each one replaced).
    crashes: int = 0
    #: Cells killed for exceeding the wall-clock budget (attempt count).
    timeouts: int = 0
    #: Cells condemned in the store this run, plus cells skipped
    #: because a previous run condemned them.
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
    line; a line that does not parse as a JSON object is silently
    skipped so readers degrade to the events that were durably written
    instead of crashing.
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

    Pool workers are forks of this process and resolve ``run_cell`` in
    their copy of this module, so a replaced ``run_cell`` (the chaos
    tests patch it before the pool forks) is what they call.
    """
    return run_cell(spec)


#: One pool-worker fork at a time in this process: a worker host runs
#: one engine call per lease, each on its own thread.  A fork taken
#: while another call's new worker still has its pipe end open here
#: would inherit that end, and that worker's death would reach its
#: supervisor as EOF only once the other fork had exited too.
_SPAWN_LOCK = threading.Lock()


def _retryable(exc: BaseException) -> bool:
    """Whether a failure is worth another attempt: only a failure of
    the *machinery around* the cell (worker death, timeout).  A cell is
    deterministic, so anything it raises itself would only repeat."""
    return isinstance(exc, (WorkerCrashError, CellTimeoutError))


def first_line(error: object) -> str:
    """An error's first line, for an event log: the full text (with
    any post-mortem) is in the stored report and the raised error."""
    return str(error).split("\n", 1)[0]


def _pool_worker(conn: Connection, inherited: List[Connection]) -> None:
    """One pool slot's process: run each spec it is sent and send back
    ``(ok, payload or exception)``, until the supervisor hangs up.

    It first closes the supervisor's ends of the pipes it was forked
    holding (its own among them), so the supervisor's exit is its EOF.
    An outcome that will not pickle comes back as a ``RuntimeError``
    naming the cause: it costs that attempt, not the worker.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)  # not the engine's handler
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the supervisor's
    for other in inherited:
        other.close()
    try:
        while True:
            spec = conn.recv()
            try:
                outcome = (True, _one_attempt(spec))
            except Exception as exc:
                outcome = (False, exc)
            try:
                message = pickle.dumps(outcome)
            except Exception as exc:
                message = pickle.dumps(
                    (False, RuntimeError(f"cell {spec.label}: unpicklable outcome: {exc!r}"))
                )
            conn.send_bytes(message)
    except (EOFError, OSError):
        pass  # the supervisor hung up


@dataclass
class _Run:
    """Everything one ``execute_cells`` call knows about its cells.

    The front door creates it, looks the cells up through it, and hands
    it to one carrier together with the indices left to run.  A carrier
    only runs attempts and reports each through exactly one of

    * ``complete(index, payload, secs, was_hit=False)`` — a payload
      (``was_hit``: a service store answered, nothing ran);
    * ``attempt_failed(index, exc)`` — one attempt raised; returns
      whether the cell runs again (if not, ``fail`` has been called);
    * ``fail(index, exc, classification)`` — a final verdict reached
      elsewhere (a worker host already classified the failure).

    Counting, classification, the cache (payloads and verdicts alike),
    the event log and the callbacks all happen here, so they are the
    same under every carrier.  As a context manager it guarantees the
    log close however the run unwinds.
    """

    cells: List[CellSpec]
    cache: Optional[CellCache]
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
        #: Attempts charged to each cell.
        self.attempts = [0] * count
        #: Whether events carry the content address (computing it only
        #: for the log would put a hash on every cache-less cell).
        self.keyed = self.cache is not None
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
        run, and nowhere else — the store and the log are both handed
        this string."""
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
        """Answer what the store can, reading each entry once: a payload
        is a hit (with ``resume``), a condemning failure a
        quarantined-skip (always); returns the indices left to run, in
        declared order."""
        if self.cache is None:
            return list(range(len(self.cells)))
        runnable: List[int] = []
        for index, spec in enumerate(self.cells):
            entry = self.cache.lookup(spec, self.key_of(index))
            if isinstance(entry, FailureReport):
                if entry.condemned:
                    self._skip_quarantined(index, entry)
                    continue
            elif entry is not None and resume:
                self._deliver(index, entry, "hit", store=False)
                continue
            runnable.append(index)
        return runnable

    def _skip_quarantined(self, index: int, report: FailureReport) -> None:
        spec = self.cells[index]
        where = (
            self.cache.path_for(spec)
            if self.cache.root is not None
            else "its entry in the in-memory store"
        )
        exc = QuarantinedCellError(
            f"cell {spec.label} is quarantined "
            f"({report.classification}: {report.error}); remove {where} to retry"
        )
        self.stats.quarantined += 1
        self.stats.failed += 1
        self.failures[index] = CampaignError(spec, exc, 0)
        self._log_cell("quarantined-skip", index, key=self.key_of(index))
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

    def attempt_failed(self, index: int, exc: BaseException) -> bool:
        self.attempts[index] += 1
        if not _retryable(exc):
            verdict = "deterministic"
        elif self.attempts[index] >= self.policy.max_retries:
            verdict = "exhausted"
        else:
            self._log_cell(
                "retry",
                index,
                attempts=self.attempts[index],
                error=first_line(exc),
                key=self._event_key(index),
            )
            return True
        self.fail(index, exc, verdict)
        return False

    def fail(self, index: int, exc: BaseException, classification: str) -> None:
        spec = self.cells[index]
        self.stats.failed += 1
        if self.cache is not None:
            # The verdict becomes the cell's store entry.  A condemning
            # one is skipped by later campaigns; any other ("exhausted":
            # crashes or timeouts spent the budget, "host-loss") keeps
            # its post-mortem there until a later run's payload
            # replaces it.
            report = FailureReport.from_failure(
                spec, self.key_of(index), exc, self.attempts[index], classification
            )
            self.cache.put(spec, report, report.key)
            if report.condemned:
                self.stats.quarantined += 1
        self._log_cell(
            "failed",
            index,
            attempts=self.attempts[index],
            classification=classification,
            error=first_line(exc),
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
    ``workers=1``.  ``cache`` is the record of every verdict: a
    payload, or the :class:`FailureReport` of a cell that failed for
    good; without one, nothing is remembered.  ``resume=False`` ignores
    cached payloads (they are recomputed and overwritten) while still
    writing fresh results; a condemned cell is skipped either way.
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
    run = _Run(
        cells,
        cache=cache,
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
        elif timeout is not None or workers > 1:
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
    """The in-process carrier: one cell at a time, one attempt each (no
    worker to crash and no timeout here, so nothing is retried)."""
    for index in runnable:
        started = perf_counter()
        try:
            payload = _one_attempt(run.cells[index])
        except Exception as exc:
            run.attempt_failed(index, exc)
        else:
            run.complete(index, payload, perf_counter() - started)


def _supervise_pool(run: _Run, runnable: List[int], *, workers: int) -> None:
    """The process-pool carrier: one forked worker process per slot.

    Each free worker is sent the next cell in declared order (a retried
    cell rejoins at the tail), at most ``workers`` at a time, and the
    supervisor waits on the busy workers' pipes, with a timeout only
    while a deadline is armed.  An attempt ends one way, and touches
    no other cell: its outcome arrives (the worker is reused), its
    worker dies (:class:`WorkerCrashError`; that worker is replaced),
    or its deadline passes (:class:`CellTimeoutError`; that worker
    alone is killed and replaced).  A worker found dead before a cell
    is sent to it is replaced without charging anyone.
    """
    cells, stats, log, timeout = run.cells, run.stats, run.log, run.policy.timeout
    fork = multiprocessing.get_context("fork")
    slots = min(workers, len(runnable))
    backlog = deque(runnable)
    first_start: Dict[int, float] = {}
    #: Every worker by the supervisor's end of its pipe; the idle ones;
    #: and what each busy one runs: ``(cell index, deadline or None)``.
    procs: Dict[Connection, multiprocessing.process.BaseProcess] = {}
    idle: List[Connection] = []
    busy: Dict[Connection, Tuple[int, Optional[float]]] = {}

    def spawn() -> Connection:
        with _SPAWN_LOCK:
            conn, child = fork.Pipe()
            proc = fork.Process(target=_pool_worker, args=(child, [*procs, conn]))
            proc.start()
            child.close()
        procs[conn] = proc
        return conn

    def retire(conn: Connection) -> None:
        proc = procs.pop(conn)
        proc.kill()
        proc.join()
        conn.close()

    def settle(index: int, ok: bool, outcome) -> None:
        if ok:
            run.complete(index, outcome, perf_counter() - first_start[index])
        elif run.attempt_failed(index, outcome):
            backlog.append(index)

    try:
        while backlog or busy:
            while backlog and len(busy) < slots:
                conn = idle.pop() if idle else spawn()
                index = backlog.popleft()
                try:
                    conn.send(cells[index])
                except OSError:  # it died idle: nobody's attempt
                    retire(conn)
                    backlog.appendleft(index)
                    continue
                now = perf_counter()
                first_start.setdefault(index, now)
                busy[conn] = (index, None if timeout is None else now + timeout)

            wait_timeout = None
            if timeout is not None:
                soonest = min(deadline for _, deadline in busy.values())
                wait_timeout = max(0.0, soonest - perf_counter())
            for conn in wait(list(busy), wait_timeout):
                index, _ = busy.pop(conn)
                try:
                    message = conn.recv_bytes()
                except (EOFError, OSError):
                    stats.crashes += 1
                    log.emit(
                        {
                            "event": "pool-respawn",
                            "name": run.name,
                            "victims": [cells[index].label],
                        }
                    )
                    retire(conn)
                    settle(
                        index,
                        False,
                        WorkerCrashError(
                            "worker process died mid-cell "
                            "(killed, out-of-memory, or crashed)"
                        ),
                    )
                    continue
                idle.append(conn)
                try:
                    ok, outcome = pickle.loads(message)
                except Exception as exc:
                    ok, outcome = False, RuntimeError(
                        f"cell {cells[index].label}: outcome could not be "
                        f"unpickled: {exc!r}"
                    )
                settle(index, ok, outcome)

            now = perf_counter()
            for conn, (index, deadline) in list(busy.items()):
                if deadline is not None and deadline <= now:
                    del busy[conn]
                    stats.timeouts += 1
                    log.emit(
                        {
                            "event": "timeout-kill",
                            "name": run.name,
                            "cells": [cells[index].label],
                        }
                    )
                    retire(conn)
                    settle(
                        index,
                        False,
                        CellTimeoutError(
                            f"cell exceeded its {timeout:.3f}s wall-clock budget"
                        ),
                    )
    finally:
        # However the loop exits — an interrupt, an engine bug — no
        # worker outlives it as an orphan burning CPU on a cell nobody
        # will collect.
        for proc in procs.values():
            proc.kill()
        for conn, proc in procs.items():
            proc.join()
            conn.close()


@dataclass
class Campaign:
    """A named iterable of cells.

    ``run()`` executes the cells through :func:`execute_cells` and
    returns their payloads, in cell order.  The stats of the latest
    run are kept on ``last_stats`` so callers — and the CI cache-hit
    smoke check — can assert hit/run counts.

    With a ``cache_dir``, the JSONL event log lands beside the cell
    cache by default, whichever carrier (``workers``, ``hosts``) runs
    the cells.  The cache is the only record of finished and failed
    cells: rerunning resumes from it and skips what it condemned.
    """

    name: str
    cells: Tuple[CellSpec, ...]
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
        failure_mode: str = "raise",
        log_path: Optional[Union[str, Path]] = None,
        on_result: Optional[Callable] = None,
        config_overrides: ItemsLike = (),
    ):
        # The one point run-wide options (``--faults``,
        # ``--strict-invariants``, ...) enter the cells: before hashing
        # and before any carrier, so they are in every content address
        # and travel to pool workers and service hosts inside the spec.
        cells = tuple(
            cell.with_config_overrides(config_overrides) for cell in self.cells
        )
        if cache_dir is not None:
            root = Path(cache_dir)
            safe = "".join(
                c if c.isalnum() or c in "-_" else "-" for c in self.name
            )
            log_path = log_path or root / f"{safe}.events.jsonl"
        payloads, stats = execute_cells(
            cells,
            workers=workers,
            hosts=hosts,
            cache=CellCache(cache_dir) if cache_dir is not None else None,
            resume=resume,
            max_retries=max_retries,
            timeout=timeout,
            failure_mode=failure_mode,
            log_path=log_path,
            name=self.name,
            on_result=on_result,
        )
        self.last_stats = stats
        return payloads
