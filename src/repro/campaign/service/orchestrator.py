"""The campaign orchestrator: one queue, leases, heartbeats.

One asyncio process owns the authoritative campaign state and the
single write path into its result store, a
:class:`~repro.campaign.cache.CellCache` (directory-backed, so service
and single-host campaigns share entries bit for bit, or in memory
without a directory).  Worker hosts
and clients dial in over TCP (see :mod:`.protocol`); everything below
runs on one event loop, so no locks guard the scheduler state.

Scheduling model
----------------

* **One queue** — cold cells wait in a single FIFO in submission
  order, and a host that asks for work is granted the oldest ones.
  Which host runs a cell is decided by who asks first and by nothing
  else: results are looked up in the store before a cell is queued and
  payloads are pure functions of the spec, so no host is a better
  place for a cell than another, and a host that is connected but
  never asks holds nothing back.
* **Leases** — a granted cell carries a time-bounded lease.  Every
  heartbeat from the owning host that still lists the lease renews it;
  a lease whose deadline passes (host wedged, heartbeats lost, or the
  host silently dropped the cell) goes back to the tail of the queue
  for anyone — up to
  :data:`MAX_REQUEUES` times: a cell that keeps losing its host is the
  likely cause and fails as ``host-loss``.  The
  original host may still finish and report — the **dedup** rule makes
  that benign: the first valid payload for a key wins, later ones are
  logged as duplicates and discarded (payloads are pure functions of
  the spec, so both are bit-identical anyway).
* **Heartbeats** — a host that misses :attr:`miss_limit` consecutive
  heartbeat intervals is declared dead: its leases requeue immediately
  and its next connection pays an exponentially growing reconnect
  penalty (doubling per death, capped), mirroring the wakeup
  retry/backoff state machine of ``powergate/controller.py``.
* **The store answers for finished cells** — a cell is held here only
  while it is cold or leased, or once it has failed (a failure has no
  store entry); a completed one is written to the store, streamed to
  its waiters and forgotten, so a standing service does not grow with
  the campaigns it has served.

Results stream back to submitting clients incrementally (hits first,
then completions in arrival order); the client reassembles declared
order.  Every scheduling action lands in the orchestrator's JSONL
event log (host ``orchestrator``), which merges deterministically
with the per-host worker logs (see :func:`merged_events`).
"""

from __future__ import annotations

import asyncio
import itertools
from collections import deque
from pathlib import Path
from typing import Deque, Dict, List, Optional, Set, Tuple, Union

from ..cache import CellCache, decode_payload, encode_payload
from ..engine import EventLog, merge_event_streams
from ..spec import CellSpec
from . import protocol

#: Scheduler defaults; tests and local clusters tighten them.
LEASE_DURATION = 30.0
HEARTBEAT_INTERVAL = 2.0
MISS_LIMIT = 3
RECONNECT_BACKOFF_BASE = 0.5
RECONNECT_BACKOFF_CAP = 30.0
#: Times one cell is requeued after losing its lease (host gone, lease
#: expired, undecodable payload, host engine error); the next loss
#: fails it as ``host-loss``.  A cell that takes its host down with it
#: would otherwise be handed to every host in turn and leave its
#: campaign waiting for good, and that many losses in a row are far
#: likelier the cell's doing than unrelated machine failures.
MAX_REQUEUES = 3


class _Host:
    """Orchestrator-side record of one worker host."""

    def __init__(self, name: str, capacity: int) -> None:
        self.name = name
        self.capacity = capacity
        self.writer: Optional[asyncio.StreamWriter] = None
        self.send_lock = asyncio.Lock()
        self.connected = False
        self.last_heartbeat = 0.0
        #: Keys currently leased to this host, by lease id.
        self.leases: Dict[str, str] = {}
        #: Times this host has been declared dead (drives the
        #: exponential reconnect backoff, wakeup-retry style).
        self.deaths = 0
        self.penalty_until = 0.0

    def backoff(self) -> float:
        """Reconnect penalty after ``deaths`` deaths: doubling, capped."""
        if self.deaths == 0:
            return 0.0
        return min(
            RECONNECT_BACKOFF_CAP,
            RECONNECT_BACKOFF_BASE * (2.0 ** (self.deaths - 1)),
        )


class _Cell:
    """Scheduler state of one distinct (content-addressed) cell."""

    __slots__ = (
        "key", "spec", "status", "payload", "error",
        "classification", "lease_id", "lease_host", "lease_deadline",
        "waiters", "requeues",
    )

    def __init__(self, key: str, spec: CellSpec) -> None:
        self.key = key
        self.spec = spec
        #: cold | leased | failed, and "done" on the way out: a done
        #: cell is streamed to its waiters, never held in ``cells``.
        self.status = "cold"
        self.payload: Optional[dict] = None  # encoded form
        self.error: Optional[str] = None
        self.classification: Optional[str] = None
        self.lease_id: Optional[str] = None
        self.lease_host: Optional[str] = None
        self.lease_deadline = 0.0
        #: ``(campaign, index)`` pairs awaiting this key.
        self.waiters: List[Tuple["_CampaignRun", int]] = []
        self.requeues = 0


class _CampaignRun:
    """One submitted campaign and its result stream."""

    _ids = itertools.count(1)

    def __init__(
        self,
        name: str,
        total: int,
        writer: asyncio.StreamWriter,
        send_lock: asyncio.Lock,
    ) -> None:
        self.id = next(self._ids)
        self.name = name
        self.total = total
        self.writer = writer
        self.send_lock = send_lock
        self.remaining = total
        self.hits = 0
        self.executed = 0
        self.failed = 0
        self.closed = False


class Orchestrator:
    """The campaign service (see module docstring)."""

    def __init__(
        self,
        store: Optional[CellCache] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_duration: float = LEASE_DURATION,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
        miss_limit: int = MISS_LIMIT,
        log_path: Optional[str] = None,
        name: str = "service",
    ) -> None:
        if lease_duration <= 0 or heartbeat_interval <= 0:
            raise ValueError("lease_duration and heartbeat_interval must be > 0")
        self.store = store if store is not None else CellCache(None)
        self.bind_host = host
        self.port = port
        self.lease_duration = lease_duration
        self.heartbeat_interval = heartbeat_interval
        self.miss_limit = miss_limit
        self.name = name
        self.log = EventLog(log_path, host="orchestrator")
        self.hosts: Dict[str, _Host] = {}
        #: Open cells (cold or leased) and failed verdicts, by key.
        self.cells: Dict[str, _Cell] = {}
        #: Keys of cold cells, oldest first.  A key whose cell got its
        #: verdict while it waited here is skipped when it is popped.
        self.queue: Deque[str] = deque()
        self.stats = {
            "leases": 0, "requeues": 0, "duplicates": 0,
            "expired": 0, "dead_hosts": 0, "completed": 0, "failed": 0,
        }
        self._server: Optional[asyncio.AbstractServer] = None
        self._monitor: Optional[asyncio.Task] = None
        self._connections: Set[asyncio.Task] = set()
        self._closed = False
        self._lease_ids = itertools.count(1)
        # Created inside the running loop (3.9 binds primitives at
        # construction time).
        self._stopped: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the server and start the lease/heartbeat monitor."""
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.bind_host,
            self.port,
            limit=protocol.LINE_LIMIT,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._monitor = asyncio.ensure_future(self._monitor_loop())
        self.log.emit(
            {
                "event": "service-start",
                "name": self.name,
                "port": self.port,
                "salt": self.store.salt,
                "lease_duration": self.lease_duration,
                "heartbeat_interval": self.heartbeat_interval,
                "miss_limit": self.miss_limit,
            }
        )

    @property
    def address(self) -> str:
        return f"{self.bind_host}:{self.port}"

    async def serve_forever(self) -> None:
        """Serve until :meth:`signal_stop` / :meth:`stop`, then shut
        down cleanly (the shutdown runs *before* this returns, so the
        caller may close the loop immediately after)."""
        if self._server is None:
            await self.start()
        await self._stopped.wait()
        await self._shutdown()

    def signal_stop(self) -> None:
        """Ask ``serve_forever`` to exit.  Must run on the service's
        loop — from another thread, go through ``call_soon_threadsafe``."""
        if self._stopped is not None:
            self._stopped.set()

    async def stop(self) -> None:
        self.signal_stop()
        await self._shutdown()

    async def _shutdown(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._monitor is not None:
            self._monitor.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self.log.emit({"event": "service-stop", "name": self.name})
        self.log.close()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        send_lock = asyncio.Lock()
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            hello = await protocol.recv(reader)
            if hello is None:
                return
            if hello.get("type") != "hello":
                await protocol.send(
                    writer, {"type": "error", "error": "expected hello"}
                )
                return
            if hello.get("salt") != self.store.salt:
                await protocol.send(
                    writer,
                    {
                        "type": "error",
                        "error": "code-salt mismatch: peer runs different "
                        f"simulator sources (service salt {self.store.salt})",
                    },
                )
                return
            role = hello.get("role")
            if role == "worker":
                await self._worker_session(hello, reader, writer, send_lock)
            elif role == "client":
                await self._client_session(hello, reader, writer, send_lock)
            else:
                await protocol.send(
                    writer, {"type": "error", "error": f"unknown role {role!r}"}
                )
        except (
            protocol.ProtocolError,
            ConnectionError,
            asyncio.IncompleteReadError,
        ):
            pass
        except asyncio.CancelledError:
            # Service shutdown with the session still open: worker and
            # client sessions clean up in their own finallys; ending
            # the task normally keeps the streams teardown quiet.
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            try:
                writer.close()
            except Exception:  # pragma: no cover - defensive
                pass

    # ------------------------------------------------------------------
    # Worker sessions
    # ------------------------------------------------------------------
    async def _worker_session(
        self,
        hello: dict,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        send_lock: asyncio.Lock,
    ) -> None:
        name = str(hello.get("host", "")) or f"host-{id(writer) & 0xFFFF:x}"
        capacity = max(1, int(hello.get("capacity", 1)))
        record = self.hosts.get(name)
        if record is not None and record.connected:
            await protocol.send(
                writer,
                {"type": "error", "error": f"host name {name!r} already connected"},
            )
            return
        if record is None:
            record = self.hosts[name] = _Host(name, capacity)
        record.capacity = capacity
        record.writer = writer
        record.send_lock = send_lock
        record.connected = True
        record.last_heartbeat = self._now()
        if record.deaths:
            record.penalty_until = self._now() + record.backoff()
        self.log.emit(
            {
                "event": "host-join",
                "host_name": name,
                "capacity": capacity,
                "deaths": record.deaths,
                "penalty": round(max(0.0, record.penalty_until - self._now()), 3),
            }
        )
        await self._send_host(
            record,
            {
                "type": "welcome",
                "name": self.name,
                "heartbeat_interval": self.heartbeat_interval,
                "lease_duration": self.lease_duration,
            },
        )
        try:
            while True:
                message = await protocol.recv(reader)
                if message is None:
                    break
                kind = message["type"]
                if kind == "request":
                    await self._grant(record, int(message.get("slots", 1)))
                elif kind == "heartbeat":
                    self._heartbeat(record, message)
                elif kind == "result":
                    await self._on_result(record, message)
                elif kind == "failure":
                    await self._on_failure(record, message)
                else:
                    raise protocol.ProtocolError(
                        f"unexpected worker message {kind!r}"
                    )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            await self._host_gone(record, reason="disconnect")

    async def _grant(self, record: _Host, slots: int) -> None:
        """Grant up to ``slots`` leases to a requesting host."""
        now = self._now()
        granted = 0
        slots = max(0, min(slots, record.capacity - len(record.leases)))
        if now < record.penalty_until:
            # Reconnect backoff: a recently dead host waits before it
            # is trusted with leases again (wakeup-retry style).
            await self._send_host(
                record,
                {
                    "type": "grant-end",
                    "granted": 0,
                    "retry_after": round(record.penalty_until - now, 3),
                },
            )
            return
        while granted < slots and self.queue:
            key = self.queue.popleft()
            cell = self.cells.get(key)
            if cell is None or cell.status != "cold":
                # A late report from an expired lease settled the cell
                # while it waited to be leased again.
                continue
            lease_id = f"L{next(self._lease_ids)}"
            cell.status = "leased"
            cell.lease_id = lease_id
            cell.lease_host = record.name
            cell.lease_deadline = now + self.lease_duration
            record.leases[lease_id] = key
            self.stats["leases"] += 1
            self.log.emit(
                {
                    "event": "lease",
                    "host_name": record.name,
                    "key": key,
                    "label": cell.spec.label,
                    "lease_id": lease_id,
                    "requeues": cell.requeues,
                }
            )
            await self._send_host(
                record,
                {
                    "type": "lease",
                    "lease_id": lease_id,
                    "key": key,
                    "spec": cell.spec.canonical(),
                },
            )
            granted += 1
        await self._send_host(
            record, {"type": "grant-end", "granted": granted}
        )

    def _heartbeat(self, record: _Host, message: dict) -> None:
        now = self._now()
        record.last_heartbeat = now
        running = [str(x) for x in message.get("running", ())]
        renewed = 0
        for lease_id in running:
            key = record.leases.get(lease_id)
            if key is None:
                continue
            cell = self.cells.get(key)
            if cell is not None and cell.lease_id == lease_id:
                cell.lease_deadline = now + self.lease_duration
                renewed += 1
        self.log.emit(
            {
                "event": "heartbeat",
                "host_name": record.name,
                "seq_no": message.get("seq"),
                "running": len(running),
                "renewed": renewed,
            }
        )

    async def _on_result(self, record: _Host, message: dict) -> None:
        key = str(message.get("key"))
        lease_id = str(message.get("lease_id"))
        record.leases.pop(lease_id, None)
        cell = self.cells.get(key)
        if cell is None or cell.status == "failed":
            # No open cell under this key: a host whose lease expired
            # reports after the cell got its verdict elsewhere.  The
            # first valid payload won; this one is bit-identical by
            # construction (pure function of the spec) and is dropped.
            self.stats["duplicates"] += 1
            self.log.emit(
                {"event": "duplicate-result", "host_name": record.name, "key": key}
            )
            return
        encoded = message.get("payload")
        try:
            payload = decode_payload(encoded)
        except (KeyError, TypeError, ValueError):
            # An invalid payload does not win: requeue the cell.
            self._release_lease(cell)
            await self._requeue(cell, reason="invalid-payload")
            return
        self._release_lease(cell)
        cell.status = "done"
        cell.payload = encoded
        self.stats["completed"] += 1
        self.store.put(cell.spec, payload, cell.key)
        # From here the store answers for this key.  Forgotten before
        # the first await, so no submit can join a cell whose waiters
        # are already being served.
        del self.cells[key]
        self.log.emit(
            {
                "event": "result",
                "host_name": record.name,
                "key": key,
                "label": cell.spec.label,
            }
        )
        await self._deliver(cell)

    async def _on_failure(self, record: _Host, message: dict) -> None:
        key = str(message.get("key"))
        lease_id = str(message.get("lease_id"))
        record.leases.pop(lease_id, None)
        cell = self.cells.get(key)
        if cell is None or cell.status == "failed":
            return
        self._release_lease(cell)
        classification = str(message.get("classification", "unknown"))
        if classification == "host-error":
            # The host's engine broke around the cell, not the cell: run
            # it elsewhere now instead of waiting out the lease clock.
            await self._requeue(cell, reason="host-error")
            return
        await self._fail_cell(
            cell,
            record.name,
            str(message.get("error", "unknown failure")),
            classification,
        )

    async def _fail_cell(
        self, cell: _Cell, host_name: Optional[str], error: str, classification: str
    ) -> None:
        """A final failure verdict: record it and stream it to waiters."""
        cell.status = "failed"
        cell.error = error
        cell.classification = classification
        self.stats["failed"] += 1
        self.log.emit(
            {
                "event": "cell-failed",
                "host_name": host_name,
                "key": cell.key,
                "label": cell.spec.label,
                "classification": classification,
                "error": error,
            }
        )
        await self._deliver(cell)

    async def _host_gone(self, record: _Host, *, reason: str) -> None:
        if not record.connected:
            return
        record.connected = False
        record.writer = None
        requeued = await self._requeue_host_leases(record)
        if requeued:
            # The host died holding work: charge a death so its next
            # connection pays the doubled (capped) reconnect penalty.
            record.deaths += 1
            self.stats["dead_hosts"] += 1
        self.log.emit(
            {
                "event": "host-leave",
                "host_name": record.name,
                "reason": reason,
                "requeued": requeued,
                "deaths": record.deaths,
            }
        )

    async def _requeue_host_leases(self, record: _Host) -> int:
        leases, record.leases = record.leases, {}
        requeued = 0
        for key in leases.values():
            cell = self.cells.get(key)
            if cell is not None and cell.status == "leased":
                self._release_lease(cell)
                await self._requeue(cell, reason="host-gone")
                requeued += 1
        return requeued

    def _release_lease(self, cell: _Cell) -> None:
        cell.lease_id = None
        cell.lease_host = None
        cell.lease_deadline = 0.0

    async def _requeue(self, cell: _Cell, *, reason: str) -> None:
        if cell.requeues >= MAX_REQUEUES:
            await self._fail_cell(
                cell,
                None,
                f"lease lost {cell.requeues + 1} times (last: {reason}); "
                "not handing the cell to another host",
                "host-loss",
            )
            return
        cell.status = "cold"
        cell.requeues += 1
        self.stats["requeues"] += 1
        self.queue.append(cell.key)
        self.log.emit(
            {
                "event": "requeue",
                "key": cell.key,
                "label": cell.spec.label,
                "reason": reason,
                "requeues": cell.requeues,
            }
        )
        self._poke_soon()

    # ------------------------------------------------------------------
    # Client sessions
    # ------------------------------------------------------------------
    async def _client_session(
        self,
        hello: dict,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        send_lock: asyncio.Lock,
    ) -> None:
        campaign: Optional[_CampaignRun] = None
        try:
            while True:
                message = await protocol.recv(reader)
                if message is None:
                    break
                if message["type"] != "submit":
                    raise protocol.ProtocolError(
                        f"unexpected client message {message['type']!r}"
                    )
                campaign = await self._submit(message, writer, send_lock)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if campaign is not None:
                campaign.closed = True
                self._forget_waiters(campaign)

    async def _submit(
        self,
        message: dict,
        writer: asyncio.StreamWriter,
        send_lock: asyncio.Lock,
    ) -> _CampaignRun:
        name = str(message.get("name", "campaign"))
        resume = bool(message.get("resume", True))
        docs = message.get("cells", [])
        campaign = _CampaignRun(name, len(docs), writer, send_lock)
        hits = 0
        cold = 0
        shared = 0
        for index, doc in enumerate(docs):
            spec = CellSpec.from_canonical(doc)
            # Always from the spec as sent: whatever key a client might
            # put beside it is outside input and is never looked at.
            key = self.store.key_for(spec)
            cell = self.cells.get(key)
            if resume and cell is not None and cell.status == "failed":
                await self._send_cell(campaign, index, cell, was_hit=True)
                continue
            if resume:
                payload = self.store.get(spec, key)
                if payload is not None:
                    hit = _Cell(key, spec)
                    hit.status = "done"
                    hit.payload = encode_payload(payload)
                    hits += 1
                    await self._send_cell(campaign, index, hit, was_hit=True)
                    continue
            if cell is None or cell.status == "failed":
                # (failed but resume=False: recompute fresh)
                cell = self.cells[key] = _Cell(key, spec)
                self.queue.append(key)
                cold += 1
            else:
                shared += 1  # already cold/leased for another campaign
            cell.waiters.append((campaign, index))
        self.log.emit(
            {
                "event": "submit",
                "campaign": campaign.id,
                "name": name,
                "cells": len(docs),
                "hits": hits,
                "cold": cold,
                "shared": shared,
            }
        )
        if not docs:
            # No cell for ``_send_cell`` to finish the campaign with.
            await self._send_done(campaign)
        elif campaign.remaining:
            self._poke_soon()
        return campaign

    async def _deliver(self, cell: _Cell) -> None:
        """Send a completed/failed cell to every waiting campaign."""
        waiters, cell.waiters = cell.waiters, []
        for campaign, index in waiters:
            if not campaign.closed:
                await self._send_cell(campaign, index, cell)

    async def _send_cell(
        self, campaign: _CampaignRun, index: int, cell: _Cell, was_hit: bool = False
    ) -> None:
        """Stream the verdict ``cell`` holds (done or failed) to one
        waiting campaign; ``was_hit``: nothing ran for this campaign."""
        message = {"type": "cell", "index": index}
        if cell.status == "failed":
            campaign.failed += 1
            message.update(
                status="failed", error=cell.error, classification=cell.classification
            )
        elif was_hit:
            campaign.hits += 1
            message.update(status="hit", payload=cell.payload)
        else:
            campaign.executed += 1
            message.update(status="done", payload=cell.payload)
        campaign.remaining -= 1
        try:
            async with campaign.send_lock:
                await protocol.send(campaign.writer, message)
        except (ConnectionError, asyncio.IncompleteReadError):
            campaign.closed = True
        if campaign.remaining == 0 and not campaign.closed:
            await self._send_done(campaign)

    async def _send_done(self, campaign: _CampaignRun) -> None:
        done = {
            "type": "done",
            "name": campaign.name,
            "total": campaign.total,
            "hits": campaign.hits,
            "executed": campaign.executed,
            "failed": campaign.failed,
            "service": dict(self.stats),
        }
        self.log.emit(
            {
                "event": "campaign-done",
                "campaign": campaign.id,
                "name": campaign.name,
                "hits": campaign.hits,
                "executed": campaign.executed,
                "failed": campaign.failed,
            }
        )
        try:
            async with campaign.send_lock:
                await protocol.send(campaign.writer, done)
        except (ConnectionError, asyncio.IncompleteReadError):
            campaign.closed = True

    def _forget_waiters(self, campaign: _CampaignRun) -> None:
        for cell in self.cells.values():
            cell.waiters = [
                (c, i) for c, i in cell.waiters if c is not campaign
            ]

    # ------------------------------------------------------------------
    # Monitor: lease expiry and heartbeat lapse
    # ------------------------------------------------------------------
    async def _monitor_loop(self) -> None:
        period = min(self.heartbeat_interval, self.lease_duration) / 2.0
        while True:
            await asyncio.sleep(period)
            now = self._now()
            # Heartbeat lapse: a host silent for miss_limit intervals
            # is dead — requeue everything it holds at once.
            for record in list(self.hosts.values()):
                if not record.connected:
                    continue
                silent = now - record.last_heartbeat
                if silent > self.miss_limit * self.heartbeat_interval:
                    self.log.emit(
                        {
                            "event": "host-dead",
                            "host_name": record.name,
                            "silent": round(silent, 3),
                            "missed": self.miss_limit,
                            "backoff": record.backoff(),
                        }
                    )
                    writer = record.writer
                    await self._host_gone(record, reason="heartbeat-lapse")
                    if writer is not None:
                        try:
                            writer.close()
                        except Exception:  # pragma: no cover
                            pass
            # Lease expiry: individually wedged/lost cells requeue even
            # while their host keeps heartbeating (it stopped listing
            # the lease) or silently dropped it.
            for cell in list(self.cells.values()):
                if cell.status != "leased":
                    continue
                if cell.lease_deadline <= now:
                    owner = self.hosts.get(cell.lease_host or "")
                    if owner is not None and cell.lease_id is not None:
                        owner.leases.pop(cell.lease_id, None)
                    self.stats["expired"] += 1
                    self.log.emit(
                        {
                            "event": "lease-expired",
                            "host_name": cell.lease_host,
                            "key": cell.key,
                            "label": cell.spec.label,
                        }
                    )
                    self._release_lease(cell)
                    await self._requeue(cell, reason="lease-expired")

    def _poke_soon(self) -> None:
        """Nudge idle connected hosts that new work is available."""
        for record in self.hosts.values():
            if record.connected and len(record.leases) < record.capacity:
                asyncio.ensure_future(self._poke(record))

    async def _poke(self, record: _Host) -> None:
        await self._send_host(record, {"type": "poke"})

    async def _send_host(self, record: _Host, message: dict) -> None:
        writer = record.writer
        if writer is None:
            return
        try:
            async with record.send_lock:
                await protocol.send(writer, message)
        except (ConnectionError, asyncio.IncompleteReadError):
            await self._host_gone(record, reason="send-failed")

    def _now(self) -> float:
        return asyncio.get_running_loop().time()


def merged_events(orchestrator_log: Union[str, Path]) -> List[dict]:
    """The service's merged event stream: the orchestrator's log plus
    every worker-host log in its sibling ``hosts/`` directory."""
    hosts_dir = Path(orchestrator_log).parent / "hosts"
    return merge_event_streams(
        [orchestrator_log, *sorted(hosts_dir.glob("*.events.jsonl"))]
    )
