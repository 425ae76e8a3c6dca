"""Worker host: a leased-cell agent around the supervised engine.

A :class:`WorkerHost` dials the orchestrator, requests cell leases and
runs each batch through :func:`~repro.campaign.engine.execute_cells`
— so per-cell wall-clock timeouts, a dead pool worker charged to its
own cell alone, and retry classification all keep working *inside* each host
exactly as they do in a single-host campaign; the verdict travels back
to the submitting client, whose store records it.  The service layer
above only adds host-level failure handling (leases, heartbeats,
requeue).

Concurrency: the engine batch runs on an executor thread while the
asyncio side keeps heartbeating (listing the outstanding lease ids,
which renews them) and forwarding results as the engine's
``on_result``/``on_failure`` callbacks deliver them — a long batch
neither starves heartbeats nor delays result streaming.

:func:`run_worker` runs this process as a host: forked by a
:class:`~.client.LocalCluster`, or standalone through ``python -m
repro.cli work --connect HOST:PORT`` (:func:`main`).  It reconnects
with exponential backoff when the orchestrator goes away, and takes its
pool workers with it when it is told to stop.
"""

from __future__ import annotations

import argparse
import asyncio
import multiprocessing
import os
import signal
import socket
from functools import partial
from pathlib import Path
from typing import List, Optional, Sequence, Set, Tuple, Union

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
        welcome = await self._next_message()
        if welcome is None:
            reader_task.cancel()
            raise ConnectionError("orchestrator closed during handshake")
        if welcome.get("type") == "error":
            reader_task.cancel()
            raise WorkerError(welcome.get("error", "refused"))
        if welcome.get("type") != "welcome":
            reader_task.cancel()
            raise protocol.ProtocolError(f"expected welcome, got {welcome!r}")
        self.heartbeat_interval = float(
            welcome.get("heartbeat_interval", self.heartbeat_interval)
        )
        heartbeat_task = asyncio.ensure_future(self._heartbeat_loop())
        try:
            while not self._stop:
                leases, retry_after = await self._request_batch()
                if leases:
                    await self._run_batch(leases)
                else:
                    await self._idle_wait(retry_after)
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

    async def _next_message(self) -> Optional[dict]:
        return await self._incoming.get()

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
    # Lease acquisition
    # ------------------------------------------------------------------
    async def _request_batch(self) -> Tuple[List[dict], Optional[float]]:
        """Ask for up to ``capacity`` leases; returns ``(leases,
        retry_after_hint)``."""
        await self._send({"type": "request", "slots": self.capacity})
        leases: List[dict] = []
        while True:
            message = await self._next_message()
            if message is None:
                raise ConnectionError("orchestrator went away")
            kind = message.get("type")
            if kind == "lease":
                leases.append(message)
            elif kind == "grant-end":
                return leases, message.get("retry_after")
            elif kind == "poke":
                continue  # already requesting
            elif kind == "error":
                raise WorkerError(message.get("error", "refused"))

    async def _idle_wait(self, retry_after: Optional[float]) -> None:
        """Sleep until poked or a poll interval elapses."""
        delay = retry_after if retry_after else self.heartbeat_interval
        try:
            message = await asyncio.wait_for(
                self._next_message(), timeout=max(0.05, delay)
            )
            if message is None:
                raise ConnectionError("orchestrator went away")
        except asyncio.TimeoutError:
            pass

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------
    async def _run_batch(self, leases: List[dict]) -> None:
        specs = [CellSpec.from_canonical(lease["spec"]) for lease in leases]
        self._running.update(lease["lease_id"] for lease in leases)
        loop = asyncio.get_running_loop()
        outbox: asyncio.Queue = asyncio.Queue()

        def on_result(index, spec, payload, was_hit) -> None:
            lease = leases[index]
            loop.call_soon_threadsafe(
                outbox.put_nowait,
                {
                    "type": "result",
                    "lease_id": lease["lease_id"],
                    "key": lease["key"],
                    "payload": encode_payload(payload),
                },
            )

        def on_failure(index, spec, exc, classification) -> None:
            lease = leases[index]
            loop.call_soon_threadsafe(
                outbox.put_nowait,
                {
                    "type": "failure",
                    "lease_id": lease["lease_id"],
                    "key": lease["key"],
                    "error": str(exc),
                    "error_type": type(exc).__qualname__,
                    "classification": classification,
                },
            )

        run = partial(
            execute_cells,
            specs,
            workers=self.capacity,
            timeout=self.timeout,
            max_retries=self.max_retries,
            failure_mode="continue",
            log_path=self.log_path,
            log_host=self.name,
            name=f"{self.name}-batch",
            on_result=on_result,
            on_failure=on_failure,
        )
        exec_future = loop.run_in_executor(None, run)
        exec_future.add_done_callback(lambda _f: outbox.put_nowait(None))
        reported = 0
        while True:
            message = await outbox.get()
            if message is None:
                break
            self._running.discard(message["lease_id"])
            reported += 1
            await self._send(message)
        # Engine-level crash (not a cell failure): report the leases
        # that never got a verdict so the orchestrator can requeue them
        # without waiting out the lease clock, then propagate.
        exc = exec_future.exception()
        if exc is not None:
            for lease in leases:
                if lease["lease_id"] in self._running:
                    self._running.discard(lease["lease_id"])
                    await self._send(
                        {
                            "type": "failure",
                            "lease_id": lease["lease_id"],
                            "key": lease["key"],
                            "error": f"worker host engine error: {exc}",
                            "error_type": type(exc).__qualname__,
                            "classification": "host-error",
                        }
                    )
            raise exc
        assert reported == len(leases), "engine under-reported a batch"


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
    until the batch is through.  So the host goes down hard — its
    leases requeue when the connection drops — and first kills the
    engine's pool workers, which would otherwise outlive it as orphans
    burning CPU on cells nobody will collect.
    """
    for child in multiprocessing.active_children():
        child.kill()
    os._exit(128 + signum)


def main(argv: Optional[Sequence[str]] = None) -> None:
    parser = argparse.ArgumentParser(
        prog="repro.cli work",
        description="campaign worker host (see docs/service.md)",
    )
    parser.add_argument(
        "--connect", required=True, help="orchestrator address host:port"
    )
    parser.add_argument("--name", default=None, help="stable host identity")
    parser.add_argument(
        "--capacity",
        type=int,
        default=2,
        help="cells leased and run concurrently (the in-host pool size)",
    )
    parser.add_argument("--timeout", type=float, default=None)
    parser.add_argument("--max-retries", type=int, default=2)
    parser.add_argument(
        "--log-dir",
        default=None,
        help="directory for this host's JSONL event log "
        "(<log-dir>/hosts/<name>.events.jsonl)",
    )
    parser.add_argument(
        "--reconnect",
        type=int,
        default=0,
        help="extra connection attempts after the orchestrator goes away",
    )
    args = parser.parse_args(argv)
    run_worker(
        args.connect,
        reconnect=args.reconnect,
        name=args.name,
        capacity=args.capacity,
        timeout=args.timeout,
        max_retries=args.max_retries,
        log_dir=args.log_dir,
    )
