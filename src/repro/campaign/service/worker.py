"""Worker host: a leased-cell agent around the supervised engine.

A :class:`WorkerHost` dials the orchestrator, requests cell leases and
runs each leased cell through :func:`~repro.campaign.engine.execute_cells`
— so per-cell wall-clock timeouts, a dead pool worker charged to its
own cell alone, and retry classification all keep working *inside* each host
exactly as they do in a single-host campaign; the verdict travels back
to the submitting client, whose store records it.  The service layer
above only adds host-level failure handling (leases, heartbeats,
requeue).

Concurrency: the host holds up to ``capacity`` leases and asks for
one more the moment a slot frees, so no slot waits on its neighbour's
cell.  Each lease is its own engine call (``workers=capacity``, so the
cell runs in a forked process of its own) on a thread of the host's
executor, and sends its one verdict when that call returns; meanwhile
the asyncio side keeps heartbeating, listing the outstanding lease
ids, which renews them.

:func:`run_worker` runs this process as a host: forked by a
:class:`~.client.LocalCluster`, or standalone through ``python -m
repro.cli work --connect HOST:PORT``.  It reconnects with exponential
backoff when the orchestrator goes away, and takes its pool workers
with it when it is told to stop.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import socket
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path
from typing import Optional, Set, Tuple, Union

from ..cache import code_salt, encode_payload
from ..engine import execute_cells
from ..spec import CellSpec
from . import protocol

#: ``run_worker`` reconnect delay: doubling from the base, capped.
RECONNECT_BACKOFF_BASE = 0.5
RECONNECT_BACKOFF_CAP = 10.0


class WorkerError(RuntimeError):
    """The orchestrator refused this host (salt mismatch, name clash)."""


def host_log_path(base: Union[str, Path], host: str) -> Path:
    """Where worker host ``host`` appends its engine event log."""
    safe = "".join(c if c.isalnum() or c in "-_" else "-" for c in host)
    return Path(base) / "hosts" / f"{safe}.events.jsonl"


class WorkerHost:
    """One worker host agent (see module docstring)."""

    def __init__(
        self,
        address: Union[str, Tuple[str, int]],
        *,
        name: Optional[str] = None,
        capacity: int = 2,
        timeout: Optional[float] = None,
        max_retries: int = 2,
        log_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        if isinstance(address, str):
            address = protocol.parse_address(address)
        self.host, self.port = address
        self.name = name or f"{socket.gethostname()}-{id(self) & 0xFFFF:x}"
        self.capacity = max(1, capacity)
        self.timeout = timeout
        self.max_retries = max_retries
        self.log_path = (
            host_log_path(log_dir, self.name) if log_dir is not None else None
        )
        self.heartbeat_interval = 2.0  # replaced by the welcome message
        self._running: Set[str] = set()
        self._stop = False
        self._writer: Optional[asyncio.StreamWriter] = None
        self._send_lock: Optional[asyncio.Lock] = None
        self._incoming: Optional[asyncio.Queue] = None

    # ------------------------------------------------------------------
    # Session
    # ------------------------------------------------------------------
    async def run(self) -> None:
        """One connection's worth of work; returns on orchestrator EOF."""
        reader, writer = await protocol.open_connection(self.host, self.port)
        self._writer = writer
        self._send_lock = asyncio.Lock()
        self._incoming = asyncio.Queue()
        await self._send(
            {
                "type": "hello",
                "role": "worker",
                "host": self.name,
                "capacity": self.capacity,
                "salt": code_salt(),
            }
        )
        reader_task = asyncio.ensure_future(self._read_loop(reader))
        welcome = await self._incoming.get()
        if welcome is None or welcome.get("type") != "welcome":
            reader_task.cancel()
            if welcome is None:
                raise ConnectionError("orchestrator closed during handshake")
            if welcome.get("type") == "error":
                raise WorkerError(welcome.get("error", "refused"))
            raise protocol.ProtocolError(f"expected welcome, got {welcome!r}")
        self.heartbeat_interval = float(
            welcome.get("heartbeat_interval", self.heartbeat_interval)
        )
        heartbeat_task = asyncio.ensure_future(self._heartbeat_loop())
        executor = ThreadPoolExecutor(self.capacity)
        leases: Set[asyncio.Future] = set()
        try:
            while not self._stop:
                lease, retry_after = None, None
                if len(leases) < self.capacity:
                    lease, retry_after = await self._request_lease()
                if lease is not None:
                    leases.add(asyncio.ensure_future(self._run_lease(lease, executor)))
                else:
                    await self._wait(leases, retry_after)
        except ConnectionError:
            pass
        finally:
            for task in (reader_task, heartbeat_task):
                task.cancel()
            try:
                writer.close()
            except Exception:  # pragma: no cover - defensive
                pass
            self._writer = None
            # An engine call cannot be cancelled: the next session starts
            # once every call of this one has run out (the orchestrator
            # has requeued their cells, so their verdicts go nowhere).
            await asyncio.gather(*leases, return_exceptions=True)
            executor.shutdown()

    def stop(self) -> None:
        self._stop = True

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                message = await protocol.recv(reader)
                await self._incoming.put(message)
                if message is None:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            await self._incoming.put(None)

    async def _send(self, message: dict) -> None:
        if self._writer is None:
            raise ConnectionError("not connected")
        async with self._send_lock:
            await protocol.send(self._writer, message)

    async def _heartbeat_loop(self) -> None:
        seq = 0
        while True:
            await asyncio.sleep(self.heartbeat_interval)
            try:
                await self._send(
                    {
                        "type": "heartbeat",
                        "seq": seq,
                        "running": sorted(self._running),
                    }
                )
            except (ConnectionError, asyncio.IncompleteReadError):
                return
            seq += 1

    # ------------------------------------------------------------------
    # Leases
    # ------------------------------------------------------------------
    async def _request_lease(self) -> Tuple[Optional[dict], Optional[float]]:
        """Ask for one lease; returns ``(lease or None, retry_after_hint)``."""
        await self._send({"type": "request"})
        lease = None
        while True:
            message = await self._incoming.get()
            if message is None:
                raise ConnectionError("orchestrator went away")
            if message["type"] == "lease":
                lease = message
            elif message["type"] == "grant-end":
                return lease, message.get("retry_after")
            # Anything else is a poke, and this host is already asking.

    async def _wait(
        self, leases: Set[asyncio.Future], retry_after: Optional[float]
    ) -> None:
        """Wait until a lease ends, a message arrives (a poke, or the
        orchestrator's EOF) or, while a slot is free, a poll interval
        elapses.  An engine error of an ended lease ends the session."""
        message = asyncio.ensure_future(self._incoming.get())
        poll = None
        if len(leases) < self.capacity:
            poll = max(0.05, retry_after or self.heartbeat_interval)
        done, _ = await asyncio.wait(
            {message, *leases}, timeout=poll, return_when=asyncio.FIRST_COMPLETED
        )
        message.cancel()
        if message in done and message.result() is None:
            raise ConnectionError("orchestrator went away")
        for lease in done - {message}:
            leases.discard(lease)
            lease.result()

    async def _run_lease(self, lease: dict, executor: ThreadPoolExecutor) -> None:
        """Run one leased cell as its own engine call on ``executor``,
        then send its one verdict."""
        lease_id = lease["lease_id"]
        verdict: dict = {}

        def on_result(index, spec, payload, was_hit) -> None:
            verdict.update(type="result", payload=encode_payload(payload))

        def on_failure(index, spec, exc, classification) -> None:
            verdict.update(
                type="failure",
                error=str(exc),
                error_type=type(exc).__qualname__,
                classification=classification,
            )

        run = partial(
            execute_cells,
            [CellSpec.from_canonical(lease["spec"])],
            workers=self.capacity,
            timeout=self.timeout,
            max_retries=self.max_retries,
            failure_mode="continue",
            log_path=self.log_path,
            log_host=self.name,
            name=f"{self.name}-{lease_id}",
            on_result=on_result,
            on_failure=on_failure,
        )
        self._running.add(lease_id)
        try:
            await asyncio.get_running_loop().run_in_executor(executor, run)
        except Exception as exc:
            # Engine-level crash (not a cell failure): report the lease
            # so the orchestrator requeues it without waiting out the
            # lease clock, then end the session.
            if not verdict:
                verdict.update(
                    type="failure",
                    error=f"worker host engine error: {exc}",
                    error_type=type(exc).__qualname__,
                    classification="host-error",
                )
            raise
        finally:
            self._running.discard(lease_id)
            await self._send({"lease_id": lease_id, "key": lease["key"], **verdict})


def run_worker(address: str, *, reconnect: int = 0, **kwargs) -> None:
    """Run this process as a worker host, reconnecting up to
    ``reconnect`` extra times with doubling (capped) backoff when the
    orchestrator goes away.  SIGTERM/SIGINT end the process, and the
    engine's pool workers with it (:func:`_stop_with_pool_workers`)."""
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _stop_with_pool_workers)

    async def _main() -> None:
        attempts = 0
        while True:
            worker = WorkerHost(address, **kwargs)
            try:
                await worker.run()
            except WorkerError:
                raise
            except (ConnectionError, OSError) as exc:
                if attempts >= reconnect:
                    raise SystemExit(
                        f"worker could not reach orchestrator {address}: {exc}"
                    )
            attempts += 1
            if attempts > reconnect:
                return
            delay = RECONNECT_BACKOFF_BASE * (2.0 ** (attempts - 1))
            await asyncio.sleep(min(RECONNECT_BACKOFF_CAP, delay))

    asyncio.run(_main())


def _stop_with_pool_workers(signum: int, frame) -> None:
    """SIGTERM/SIGINT handler of a worker-host process.

    The engine runs on an executor thread here, where its own signal
    guard cannot be installed and which would keep the process alive
    until its cells are through.  So the host goes down hard — its
    leases requeue when the connection drops — and first kills the
    engine's pool workers, which would otherwise outlive it as orphans
    burning CPU on cells nobody will collect.
    """
    for child in multiprocessing.active_children():
        child.kill()
    os._exit(128 + signum)

