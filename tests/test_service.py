"""Tests for the distributed campaign service.

Unit tests drive the orchestrator's scheduler directly over real TCP
connections with hand-rolled worker/client peers (no subprocesses), so
lease expiry, heartbeat lapse, the queue's order, dedup and the
reconnect penalty are each exercised in isolation with tight clocks.

The acceptance chaos scenario runs at the bottom: a three-worker local
cluster (real worker processes, forked), one SIGKILLed mid-campaign,
must finish with payloads bit-identical to a single-host run, serve a
warm rerun entirely from the shared store, and leave the
lease/heartbeat record in the merged event log.  The standalone host
(``repro.cli work``) runs as a program of its own beside them.
"""

import asyncio
import hashlib
import itertools
import json
import os
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro
from repro.campaign import (
    Campaign,
    CampaignError,
    CellCache,
    CellSpec,
    QuarantinedCellError,
    execute_cells,
    iter_events,
)
from repro.campaign.cache import code_salt, decode_payload, encode_payload
from repro.campaign.service import (
    LocalCluster,
    Orchestrator,
    ProtocolError,
    ServiceError,
    merged_events,
    parse_address,
)
from repro.campaign.service import client as service_client
from repro.campaign.service import protocol
from repro.campaign.service.orchestrator import MAX_REQUEUES
from repro.noc import NoCConfig
from repro.noc.errors import SimulationError


def specs(n=4):
    return [
        CellSpec.parsec("canneal", "No-PG", instructions=100, seed=seed)
        for seed in range(1, n + 1)
    ]


def sim_cells(seeds=(1, 2, 3), schemes=("No-PG", "PowerPunch-PG")):
    """Real (tiny) simulation cells for subprocess-backed tests."""
    return [
        CellSpec.synthetic(
            "uniform_random",
            0.02,
            scheme,
            warmup=30,
            measurement=80,
            drain=False,
            seed=seed,
        )
        for scheme in schemes
        for seed in seeds
    ]


def payload_hash(payload):
    doc = json.dumps(encode_payload(payload), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


# ----------------------------------------------------------------------
# Protocol and wire forms
# ----------------------------------------------------------------------
class TestProtocol:
    def test_parse_address(self):
        assert parse_address("127.0.0.1:8765") == ("127.0.0.1", 8765)
        assert parse_address(":9000") == ("127.0.0.1", 9000)
        assert parse_address("example.com:1") == ("example.com", 1)
        for bad in ("example.com", "host:", "host:port", ""):
            with pytest.raises(ValueError):
                parse_address(bad)

    def test_recv_rejects_garbage_and_untyped(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(b"{not json}\n")
            with pytest.raises(ProtocolError):
                await protocol.recv(reader)
            reader.feed_data(b'{"no_type": 1}\n')
            with pytest.raises(ProtocolError):
                await protocol.recv(reader)
            reader.feed_data(b'{"type": "ok"}\n')
            assert (await protocol.recv(reader)) == {"type": "ok"}
            reader.feed_eof()
            assert (await protocol.recv(reader)) is None

        asyncio.run(scenario())

    def test_spec_canonical_round_trip_is_exact(self):
        for spec in sim_cells() + specs(2) + [
            CellSpec.reliability(5),
            CellSpec.analysis("table1", width=8, hops=3),
        ]:
            doc = json.loads(json.dumps(spec.canonical()))
            back = CellSpec.from_canonical(doc)
            assert back == spec
            assert back.cache_key("s") == spec.cache_key("s")


class TestStores:
    def test_backends_agree_bit_for_bit(self, tmp_path):
        spec = specs(1)[0]
        payload = {"seed": 1, "value": [1, 2, {"deep": True}]}
        mem = CellCache(None, salt="s1")
        fs = CellCache(tmp_path / "store", salt="s1")
        mem.put(spec, payload)
        fs.put(spec, payload)
        assert mem.key_for(spec) == fs.key_for(spec)
        a = json.dumps(encode_payload(mem.get(spec)), sort_keys=True)
        b = json.dumps(encode_payload(fs.get(spec)), sort_keys=True)
        assert a == b
        assert mem.get(specs(2)[1]) is None


# ----------------------------------------------------------------------
# Hand-rolled peers for scheduler unit tests
# ----------------------------------------------------------------------
class FakeWorker:
    """A protocol-level worker under full test control."""

    def __init__(self, orch, name, capacity=1, salt=None):
        self.orch = orch
        self.name = name
        self.capacity = capacity
        self.salt = salt if salt is not None else orch.store.salt
        self.reader = None
        self.writer = None

    async def connect(self):
        self.reader, self.writer = await protocol.open_connection(
            "127.0.0.1", self.orch.port
        )
        await protocol.send(
            self.writer,
            {
                "type": "hello",
                "role": "worker",
                "host": self.name,
                "capacity": self.capacity,
                "salt": self.salt,
            },
        )
        return await self.recv()

    async def recv(self, timeout=5.0):
        return await asyncio.wait_for(protocol.recv(self.reader), timeout)

    async def send(self, message):
        await protocol.send(self.writer, message)

    async def request(self):
        """Ask for one lease: returns ``(leases, grant_end_message)``,
        at most one lease, skipping pokes."""
        await self.send({"type": "request"})
        leases = []
        while True:
            message = await self.recv()
            if message is None or message["type"] == "grant-end":
                return leases, message
            if message["type"] == "lease":
                leases.append(message)

    async def request_times(self, n):
        """Ask ``n`` times: returns ``(leases, granted count per request)``."""
        leases, granted = [], []
        for _ in range(n):
            got, end = await self.request()
            leases += got
            granted.append(end["granted"])
        return leases, granted

    async def finish(self, lease, payload):
        await self.send(
            {
                "type": "result",
                "lease_id": lease["lease_id"],
                "key": lease["key"],
                "payload": encode_payload(payload),
            }
        )

    def close(self):
        if self.writer is not None:
            self.writer.close()


async def until(predicate, timeout=5.0):
    """Poll until ``predicate()`` holds (the orchestrator shares the loop)."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        await asyncio.sleep(0.002)


async def submit_cells(orch, cells, name="test", resume=True, timeout=10.0, docs=None):
    """A protocol-level client: returns ``(payloads, statuses,
    done_message)``.  ``docs`` replaces the wire form of ``cells``."""
    reader, writer = await protocol.open_connection("127.0.0.1", orch.port)
    try:
        await protocol.send(
            writer,
            {"type": "hello", "role": "client", "salt": orch.store.salt},
        )
        await protocol.send(
            writer,
            {
                "type": "submit",
                "name": name,
                "resume": resume,
                "cells": docs or [spec.canonical() for spec in cells],
            },
        )
        payloads = [None] * len(cells)
        statuses = [None] * len(cells)
        while True:
            message = await asyncio.wait_for(protocol.recv(reader), timeout)
            assert message is not None, "service hung up mid-campaign"
            if message["type"] == "error":
                raise AssertionError(message["error"])
            if message["type"] == "done":
                return payloads, statuses, message
            index = message["index"]
            statuses[index] = message["status"]
            if "payload" in message:
                payloads[index] = decode_payload(message["payload"])
    finally:
        writer.close()


class TestOrchestratorScheduling:
    def _run(self, scenario, **orch_kwargs):
        async def main():
            orch = Orchestrator(CellCache(None, salt="s1"), **orch_kwargs)
            await orch.start()
            try:
                await asyncio.wait_for(scenario(orch), timeout=30.0)
            finally:
                await orch.stop()

        asyncio.run(main())

    def test_salt_mismatch_is_refused(self):
        async def scenario(orch):
            worker = FakeWorker(orch, "w0", salt="other-salt")
            reply = await worker.connect()
            assert reply["type"] == "error"
            assert "salt" in reply["error"]
            worker.close()

        self._run(scenario)

    def test_lease_result_delivery_and_warm_resubmit(self):
        cells = specs(3)

        async def scenario(orch):
            worker = FakeWorker(orch, "w0", capacity=4)
            welcome = await worker.connect()
            assert welcome["type"] == "welcome"
            client = asyncio.ensure_future(submit_cells(orch, cells))
            await until(lambda: orch.queue)  # the submit landed
            leases, granted = await worker.request_times(4)
            assert granted == [1, 1, 1, 0]
            for lease in leases:
                spec = CellSpec.from_canonical(lease["spec"])
                await worker.finish(lease, {"seed": spec.seed})
            payloads, statuses, done = await client
            assert statuses == ["done"] * 3
            assert payloads == [{"seed": s.seed} for s in cells]
            assert done["executed"] == 3 and done["failed"] == 0
            # The store answers for finished cells; the scheduler has
            # forgotten them.
            assert not orch.cells
            # Second submit: all hits, no worker involvement at all.
            payloads2, statuses2, done2 = await submit_cells(orch, cells)
            assert statuses2 == ["hit"] * 3
            assert payloads2 == payloads
            assert done2["hits"] == 3 and done2["executed"] == 0
            worker.close()

        self._run(scenario)

    def test_a_key_sent_beside_a_spec_is_never_trusted(self):
        """The address is recomputed from the spec as sent: a client
        that names another cell's key gets its own spec's result, and
        a fresh result is stored under the spec's key."""
        stored, victim, cold = specs(3)

        async def scenario(orch):
            orch.store.put(stored, {"cell": "stored"})
            orch.store.put(victim, {"cell": "victim"})
            victim_key = orch.store.key_for(victim)
            tampered = [
                dict(stored.canonical(), key=victim_key),
                dict(cold.canonical(), key=victim_key),
            ]
            worker = FakeWorker(orch, "w0", capacity=2)
            await worker.connect()
            client = asyncio.ensure_future(
                submit_cells(orch, [stored, cold], docs=tampered)
            )
            await until(lambda: orch.queue)
            leases, granted = await worker.request_times(2)
            assert granted == [1, 0]
            assert [lease["key"] for lease in leases] == [orch.store.key_for(cold)]
            assert CellSpec.from_canonical(leases[0]["spec"]) == cold
            await worker.finish(leases[0], {"cell": "cold"})
            payloads, statuses, _ = await client
            assert statuses == ["hit", "done"]
            assert payloads == [{"cell": "stored"}, {"cell": "cold"}]
            assert orch.store.get(cold) == {"cell": "cold"}
            assert orch.store.get(victim) == {"cell": "victim"}
            worker.close()

        self._run(scenario)

    def test_failure_is_final_and_streamed(self):
        cells = specs(2)

        async def scenario(orch):
            worker = FakeWorker(orch, "w0", capacity=2)
            await worker.connect()
            client = asyncio.ensure_future(submit_cells(orch, cells))
            await until(lambda: orch.queue)
            leases, _ = await worker.request_times(2)
            await worker.finish(leases[0], {"ok": True})
            await worker.send(
                {
                    "type": "failure",
                    "lease_id": leases[1]["lease_id"],
                    "key": leases[1]["key"],
                    "error": "kaboom",
                    "error_type": "SimulationError",
                    "classification": "deterministic",
                }
            )
            payloads, statuses, done = await client
            assert sorted(statuses) == ["done", "failed"]
            assert done["failed"] == 1
            assert orch.stats["failed"] == 1
            # Streamed and forgotten, like a completed cell: the
            # submitter's store keeps the verdict, and a resubmit
            # leases the cell again.
            assert not orch.cells
            client2 = asyncio.ensure_future(submit_cells(orch, cells))
            await until(lambda: orch.queue)
            leases2, _ = await worker.request_times(2)
            assert [lease["key"] for lease in leases2] == [leases[1]["key"]]
            await worker.finish(leases2[0], {"ok": "second time"})
            payloads2, statuses2, done2 = await client2
            assert sorted(statuses2) == ["done", "hit"]
            assert done2["hits"] == 1 and done2["failed"] == 0
            assert orch.stats["leases"] == 3
            assert not orch.cells
            worker.close()

        self._run(scenario)

    def test_each_submit_gets_exactly_one_done(self, tmp_path):
        """A submit answered entirely from the store, and one with no
        cells at all, each end with one ``done`` message and one
        ``campaign-done`` event — counted on the raw wire, where a
        second ``done`` would otherwise be read as the next submit's."""
        cells = specs(3)
        log = tmp_path / "service.events.jsonl"

        async def scenario(orch):
            for spec in cells:
                orch.store.put(spec, {"seed": spec.seed})
            reader, writer = await protocol.open_connection("127.0.0.1", orch.port)
            await protocol.send(
                writer, {"type": "hello", "role": "client", "salt": orch.store.salt}
            )
            for name, docs in (("stored", cells), ("empty", [])):
                await protocol.send(
                    writer,
                    {
                        "type": "submit",
                        "name": name,
                        "cells": [spec.canonical() for spec in docs],
                    },
                )
            messages = []
            while not messages or messages[-1] != ("done", "empty"):
                message = await asyncio.wait_for(protocol.recv(reader), 5.0)
                messages.append((message["type"], message.get("name")))
            writer.close()
            assert messages == [("cell", None)] * 3 + [
                ("done", "stored"),
                ("done", "empty"),
            ]

        self._run(scenario, log_path=str(log))
        done_events = [
            e["name"] for e in iter_events(log) if e["event"] == "campaign-done"
        ]
        assert done_events == ["stored", "empty"]

    def test_host_engine_error_requeues_until_host_loss(self, tmp_path):
        """A worker host whose engine broke reports its leases as
        ``host-error``: the cell goes back on the queue at once and is
        granted again, and the ``MAX_REQUEUES`` bound still ends a cell
        that keeps doing it as ``host-loss``."""
        cells = specs(1)
        log = tmp_path / "service.events.jsonl"

        async def scenario(orch):
            worker = FakeWorker(orch, "w0")
            await worker.connect()
            client = asyncio.ensure_future(submit_cells(orch, cells))
            await until(lambda: orch.queue)
            keys = []
            for _ in range(MAX_REQUEUES + 1):
                leases, _ = await worker.request()
                assert len(leases) == 1
                keys.append(leases[0]["key"])
                await worker.send(
                    {
                        "type": "failure",
                        "lease_id": leases[0]["lease_id"],
                        "key": leases[0]["key"],
                        "error": "worker host engine error: boom",
                        "classification": "host-error",
                    }
                )
                if len(keys) == 1:
                    await until(lambda: orch.stats["requeues"] == 1)
                    assert not client.done()
            assert keys == [orch.store.key_for(cells[0])] * (MAX_REQUEUES + 1)
            payloads, statuses, done = await client
            assert statuses == ["failed"] and payloads == [None]
            assert done["failed"] == 1
            assert not orch.cells
            assert orch.stats["requeues"] == MAX_REQUEUES
            worker.close()

        self._run(scenario, log_path=str(log))
        requeues = [e for e in iter_events(log) if e["event"] == "requeue"]
        assert [e["reason"] for e in requeues] == ["host-error"] * MAX_REQUEUES
        assert failed_classifications(log) == ["host-loss"]

    def test_lease_expiry_requeues_and_late_result_is_deduped(self):
        cells = specs(1)

        async def scenario(orch):
            slow = FakeWorker(orch, "slow")
            await slow.connect()
            client = asyncio.ensure_future(submit_cells(orch, cells))
            await until(lambda: orch.queue)
            leases, _ = await slow.request()
            assert len(leases) == 1
            # No heartbeat lists the lease, so it expires and requeues.
            await until(lambda: orch.stats["requeues"] >= 1)
            assert orch.stats["expired"] >= 1
            fast = FakeWorker(orch, "fast")
            await fast.connect()
            leases2, _ = await fast.request()
            assert len(leases2) == 1
            assert leases2[0]["key"] == leases[0]["key"]
            await fast.finish(leases2[0], {"winner": "fast"})
            payloads, _, _ = await client
            assert payloads == [{"winner": "fast"}]
            # The original host reports late: logged and discarded.
            await slow.finish(leases[0], {"winner": "slow"})
            await until(lambda: orch.stats["duplicates"] == 1)
            assert orch.store.get(cells[0]) == {"winner": "fast"}
            slow.close()
            fast.close()

        self._run(
            scenario,
            lease_duration=0.3,
            heartbeat_interval=0.2,
            miss_limit=1000,  # isolate lease expiry from heartbeat lapse
        )

    def test_invalid_payload_does_not_win(self):
        cells = specs(1)

        async def scenario(orch):
            worker = FakeWorker(orch, "w0")
            await worker.connect()
            client = asyncio.ensure_future(submit_cells(orch, cells))
            await until(lambda: orch.queue)
            leases, _ = await worker.request()
            await worker.send(
                {
                    "type": "result",
                    "lease_id": leases[0]["lease_id"],
                    "key": leases[0]["key"],
                    "payload": {"bogus": "shape"},
                }
            )
            await until(lambda: orch.stats["requeues"] >= 1)
            assert orch.stats["completed"] == 0
            leases2, _ = await worker.request()
            await worker.finish(leases2[0], {"ok": 1})
            payloads, _, _ = await client
            assert payloads == [{"ok": 1}]
            worker.close()

        self._run(scenario)

    def test_heartbeat_lapse_kills_host_and_penalizes_reconnect(self):
        cells = specs(2)

        async def scenario(orch):
            worker = FakeWorker(orch, "w0")
            await worker.connect()
            client = asyncio.ensure_future(submit_cells(orch, cells))
            await until(lambda: orch.queue)
            leases, _ = await worker.request()
            assert leases
            # Silence: miss_limit heartbeats lapse, the host is declared
            # dead and its leases requeue immediately.
            await until(lambda: orch.stats["dead_hosts"] >= 1)
            assert orch.stats["requeues"] >= 1
            # The reconnect pays a doubled-per-death, capped penalty
            # before it is trusted with leases again.
            reborn = FakeWorker(orch, "w0")
            await reborn.connect()
            leases2, end = await reborn.request()
            assert leases2 == []
            assert end["retry_after"] > 0
            # Heartbeat through the penalty window (silence would get
            # this incarnation declared dead as well).
            wait_until = time.monotonic() + end["retry_after"] + 0.15
            seq = 0
            while time.monotonic() < wait_until:
                await reborn.send(
                    {"type": "heartbeat", "seq": seq, "running": []}
                )
                seq += 1
                await asyncio.sleep(0.05)
            leases3, _ = await reborn.request()
            assert len(leases3) == 1
            await reborn.finish(leases3[0], {"seed": 1})
            leases4, _ = await reborn.request()
            await reborn.finish(leases4[0], {"seed": 2})
            await client
            worker.close()
            reborn.close()

        self._run(
            scenario,
            lease_duration=30.0,
            heartbeat_interval=0.1,
            miss_limit=2,
        )

    #: The two asking hosts of the exhaustive queue check.
    CAPACITY = {"a": 1, "b": 2}

    @classmethod
    def request_orders(cls, cells):
        """Every order in which the two hosts can ask, one lease per
        request, until ``cells`` are leased."""
        return list(itertools.product(cls.CAPACITY, repeat=cells))

    async def _drive_queue(self, orch, order, join_late=(), kill_at=None):
        """Four cells, hosts asking in ``order``, checked lease by
        lease against a plain deque.  A host holding its capacity is
        refused while cold cells wait (the capacity cap), then
        finishes its oldest lease and asks again, so the other host's
        leases are open while it is served.  With ``kill_at``, the
        host asking at that position dies holding every lease it has,
        the one just granted among them."""
        cells = specs(4)
        hosts = {}

        async def join(name, capacity, host_name=None):
            hosts[name] = FakeWorker(orch, host_name or name, capacity=capacity)
            assert (await hosts[name].connect())["type"] == "welcome"

        async def finish_oldest(name):
            lease = held[name].pop(0)
            spec = CellSpec.from_canonical(lease["spec"])
            await hosts[name].finish(lease, {"seed": spec.seed})

        await join("idle", 8)  # connected, never asks
        for name, capacity in self.CAPACITY.items():
            if name not in join_late:
                await join(name, capacity)
        client = asyncio.ensure_future(submit_cells(orch, cells))
        await until(lambda: len(orch.queue) == len(cells))
        for name in join_late:
            await join(name, self.CAPACITY[name])
        model = deque(orch.store.key_for(spec) for spec in cells)
        held = {name: [] for name in self.CAPACITY}
        killed = 0
        # (After a kill the given order runs out before the queue does.)
        for position, name in enumerate(
            itertools.chain(order, itertools.cycle(self.CAPACITY))
        ):
            if not model:
                break
            if len(held[name]) == self.CAPACITY[name]:
                leases, end = await hosts[name].request()
                assert leases == [] and end["granted"] == 0
                await finish_oldest(name)
            leases, end = await hosts[name].request()
            # Oldest first, each once, and never refused while a cold
            # cell exists and the host has a free slot.
            assert [lease["key"] for lease in leases] == [model.popleft()]
            assert end["granted"] == 1
            held[name] += leases
            if position == kill_at:
                hosts[name].close()
                # Back at the tail, in lease order.
                model.extend(lease["key"] for lease in held[name])
                killed += len(held[name])
                held[name] = []
                await until(lambda: orch.stats["requeues"] == killed)
                # A replacement under a new name: the old one would sit
                # out its reconnect penalty.
                await join(name, self.CAPACITY[name], f"{name}-reborn")
        for name in self.CAPACITY:
            while held[name]:
                await finish_oldest(name)
            leases, end = await hosts[name].request()
            assert leases == [] and end["granted"] == 0
        payloads, statuses, done = await client
        assert payloads == [{"seed": spec.seed} for spec in cells]
        assert statuses == ["done"] * len(cells)
        assert orch.stats["leases"] == len(cells) + killed
        assert orch.stats["failed"] == 0 and not orch.cells and not orch.queue
        for host in hosts.values():
            host.close()

    def test_one_queue_over_every_interleaving_of_two_hosts(self):
        """Which host runs a cell is decided by who asks first, so the
        whole decision fits an exhaustive check: every order in which
        a capacity-1 and a capacity-2 host can ask for four cells, with
        a third host connected that never asks (it strands nothing),
        and with hosts that join only after the submit (they are
        served from the same queue; nothing is re-dealt on a join)."""
        orders = self.request_orders(4)
        assert len(orders) == 16
        for order in orders:
            for join_late in ((), ("b",), ("a", "b")):
                self._run(
                    lambda orch: self._drive_queue(orch, order, join_late=join_late)
                )

    def test_lost_leases_rejoin_the_tail_at_every_position(self):
        """For every interleaving and every position in it, the host
        asking there dies holding its leases: the cells reappear at
        the tail of the queue, and the campaign still completes with
        every payload.  (The bound on this,
        ``MAX_REQUEUES``, is the next test.)"""
        for order in self.request_orders(4):
            for kill_at in range(len(order)):
                self._run(
                    lambda orch: self._drive_queue(orch, order, kill_at=kill_at)
                )

    def test_cell_that_keeps_losing_its_host_fails_as_host_loss(self, tmp_path):
        """A cell that takes every host down with it must get a verdict:
        after a bounded number of lost leases it fails as ``host-loss``
        instead of being handed to the next host for ever."""
        cells = specs(1)
        log = tmp_path / "service.events.jsonl"

        async def scenario(orch):
            client = asyncio.ensure_future(submit_cells(orch, cells))
            await until(lambda: orch.queue)
            for n in range(8):
                if client.done():
                    break
                doomed = FakeWorker(orch, f"doomed-{n}")
                await doomed.connect()
                leases, _ = await doomed.request()
                assert len(leases) == 1
                doomed.close()  # dies holding the lease
                # Requeued, or failed for good and streamed to the client.
                await until(lambda: orch.queue or client.done())
            payloads, statuses, done = await asyncio.wait_for(client, 5.0)
            assert statuses == ["failed"] and payloads == [None]
            assert done["failed"] == 1
            assert not orch.cells
            assert 1 <= orch.stats["requeues"] < 8
            assert orch.stats["dead_hosts"] == orch.stats["requeues"] + 1

        self._run(scenario, log_path=str(log))
        assert failed_classifications(log) == ["host-loss"]


def failed_classifications(log):
    """The classifications of an orchestrator log's ``cell-failed`` events."""
    return [e["classification"] for e in iter_events(log) if e["event"] == "cell-failed"]


def wait_for(predicate, timeout=10.0):
    """``until`` for a test thread beside a cluster's serving thread."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


# ----------------------------------------------------------------------
# Local cluster: worker hosts forked from the test process
# ----------------------------------------------------------------------
class TestLocalCluster:
    def test_chaos_sigkill_worker_bit_identical_and_warm_rerun(self, tmp_path):
        """The acceptance scenario: 3 worker hosts, one SIGKILLed
        mid-campaign.  The campaign must finish, match a single-host
        run bit for bit, serve a warm rerun 100% from the store, and
        leave the full lease/heartbeat record in the merged event
        log."""
        cells = sim_cells(seeds=(1, 2, 3, 4, 5, 6))
        single, _ = execute_cells(cells, workers=2)

        cache_dir = tmp_path / "store"
        log_path = tmp_path / "service.events.jsonl"
        killed = {}

        with LocalCluster(
            3,
            cache_dir=cache_dir,
            heartbeat_interval=0.25,
            miss_limit=2,
            lease_duration=10.0,
            log_path=log_path,
        ) as cluster:

            def on_result(index, spec, payload, was_hit):
                if not killed:
                    victim = cluster.workers[-1]
                    victim.kill()
                    victim.join()
                    killed["name"] = victim.name

            from repro.campaign.service import execute_cells_remote

            payloads, stats = execute_cells_remote(
                cells, cluster.address, name="chaos", on_result=on_result
            )
            # Fast cells can finish inside the first heartbeat window;
            # keep the cluster up until a survivor's heartbeat is logged.
            wait_for(
                lambda: any(
                    e["event"] == "heartbeat" and e["host_name"] != killed["name"]
                    for e in iter_events(log_path)
                )
            )

        assert killed, "the chaos kill never fired"
        assert stats.failed == 0
        assert all(p is not None for p in payloads)
        # Bit-identical to the undisturbed single-host run.
        assert [payload_hash(p) for p in payloads] == [
            payload_hash(p) for p in single
        ]

        # Warm rerun against the same store: 100% hits, no worker ever
        # sees a cell.
        warm_payloads, warm_stats = execute_cells(
            cells, hosts="local:2", name="chaos-warm", cache=CellCache(cache_dir)
        )
        assert warm_stats.hits == len(cells) and warm_stats.executed == 0
        assert [payload_hash(p) for p in warm_payloads] == [
            payload_hash(p) for p in single
        ]

        # The merged event stream tells the whole story, stamped with
        # per-host identity and sequence.
        events = merged_events(log_path)
        kinds = {e.get("event") for e in events}
        assert "lease" in kinds and "heartbeat" in kinds
        assert "submit" in kinds and "result" in kinds
        hosts_seen = {e.get("host") for e in events}
        assert "orchestrator" in hosts_seen
        for e in events:
            assert "seq" in e and "ts" in e
        # The SIGKILLed host was noticed and its work recovered.
        assert {"host-dead", "host-leave"} & kinds

    def test_hosted_campaign_matches_engine(self, tmp_path):
        cells = sim_cells(seeds=(1, 2))
        single, _ = execute_cells(cells)
        campaign = Campaign(name="svc-int", cells=tuple(cells))
        payloads = campaign.run(
            hosts="local:2", cache_dir=tmp_path / "store"
        )
        assert [payload_hash(p) for p in payloads] == [
            payload_hash(p) for p in single
        ]
        assert campaign.last_stats.executed == len(cells)
        # Warm rerun through the Campaign front door: pure hits.
        payloads2 = campaign.run(
            hosts="local:2", cache_dir=tmp_path / "store"
        )
        assert campaign.last_stats.hits == len(cells)
        assert campaign.last_stats.executed == 0
        assert [payload_hash(p) for p in payloads2] == [
            payload_hash(p) for p in single
        ]

    def test_standing_cluster_leases_an_exhausted_cell_again(
        self, tmp_path, monkeypatch
    ):
        """A flaky cell whose budget ran out is not condemned: a second
        campaign on the same standing cluster runs it again, exactly as
        a second pool campaign would."""
        attempts = itertools.count(1)

        def flaky(spec):
            raise SimulationError(f"flaky kaboom #{next(attempts)}")

        # Hosts are forked from this process: they run the patched cell.
        monkeypatch.setattr("repro.campaign.engine.run_cell", flaky)
        cells = specs(1)
        cache = CellCache(tmp_path / "store")
        with LocalCluster(1, max_retries=2) as cluster:
            for campaign in (1, 2):
                _, stats = execute_cells(
                    cells, hosts=cluster.address, cache=cache, failure_mode="continue"
                )
                assert (stats.failed, stats.quarantined) == (1, 0)
                assert cluster.orchestrator.stats["leases"] == campaign
            assert not cluster.orchestrator.cells
        assert cache.lookup(cells[0]).classification == "exhausted"


class TestHostSlots:
    def test_a_free_slot_does_not_wait_for_its_neighbour(
        self, tmp_path, monkeypatch
    ):
        """A capacity-2 host given three cells: when cell 2 ends, its
        slot takes cell 3 while cell 1 still runs.  Cell 1 holds its
        slot until cell 3's sentinel exists (one bounded poll) and
        reports whether it saw it."""
        started = tmp_path / "cell-3-started"

        def staged(spec):
            if spec.seed == 3:
                started.touch()
            deadline = time.monotonic() + 10.0
            while spec.seed == 1 and not started.exists():
                if time.monotonic() > deadline:
                    break
                time.sleep(0.005)
            return {"seed": spec.seed, "saw_cell_3": started.exists()}

        # Hosts are forked from this process: they run the patched cell.
        monkeypatch.setattr("repro.campaign.engine.run_cell", staged)
        with LocalCluster(1, capacity=2) as cluster:
            began = time.monotonic()
            payloads, stats = execute_cells(specs(3), hosts=cluster.address)
            elapsed = time.monotonic() - began
        assert payloads[0] == {"seed": 1, "saw_cell_3": True}
        assert stats.executed == 3 and stats.failed == 0
        # Cell 3 started at once, not after cell 1's 10 s poll gave up.
        assert elapsed < 5.0, elapsed


def failing_cell():
    """A real cell that fails the same way every time: a permanently
    stalled router wedges traffic and the small watchdog trips."""
    spec = CellSpec.synthetic(
        "uniform_random",
        0.05,
        "PowerPunch-PG",
        warmup=50,
        measurement=250,
        seed=1,
        config=NoCConfig(width=4, height=4),
    )
    return spec.with_config_overrides(
        {
            "strict_invariants": True,
            "watchdog": 150,
            "faults": "router_stall,router=5,start=10",
        }
    )


def final_cell_events(log_path):
    """``label -> (status, classification)`` of each cell's last event."""
    return {
        e["label"]: (e["status"], e.get("classification"))
        for e in iter_events(log_path)
        if e.get("event") == "cell"
    }


class TestOneFrontDoor:
    """``execute_cells`` is the same campaign under every carrier."""

    CELLS = sim_cells(seeds=(1, 2), schemes=("No-PG",)) + [failing_cell()] + sim_cells(
        seeds=(3,), schemes=("PowerPunch-PG",)
    )

    @pytest.fixture(scope="class")
    def reference(self):
        payloads, stats = execute_cells(self.CELLS, failure_mode="continue")
        return payloads, stats

    @pytest.mark.parametrize(
        "carrier", [{"workers": 1}, {"workers": 2}, {"hosts": "local:2"}], ids=str
    )
    def test_carriers_agree(self, tmp_path, reference, carrier):
        expected, expected_stats = reference
        log = tmp_path / "campaign.events.jsonl"
        cache = CellCache(tmp_path / "cache")
        payloads, stats = execute_cells(
            self.CELLS,
            cache=cache,
            log_path=log,
            failure_mode="continue",
            **carrier,
        )
        assert payloads[2] is None and expected[2] is None
        assert [p and payload_hash(p) for p in payloads] == [
            p and payload_hash(p) for p in expected
        ]
        assert (stats.hits, stats.executed, stats.failed) == (0, 3, 1)
        assert (stats.hits, stats.executed, stats.failed) == (
            expected_stats.hits,
            expected_stats.executed,
            expected_stats.failed,
        )
        assert final_cell_events(log) == {
            spec.label: ("failed", "deterministic") if i == 2 else ("done", None)
            for i, spec in enumerate(self.CELLS)
        }
        events = [e["event"] for e in iter_events(log)]
        assert events[0] == "campaign-start" and events[-1] == "campaign-end"
        # The verdict reached the caller's own store, whoever ran the cell.
        assert stats.quarantined == 1
        report = cache.lookup(self.CELLS[2])
        assert report.condemned and report.error_type == "DeadlockError"

    def test_hosted_failure_keeps_the_hosts_error(self, tmp_path):
        """A verdict streamed back from a host is stored as the pool
        stores it: same classification, exception type and text."""
        cells = [failing_cell()] + sim_cells(seeds=(1,), schemes=("No-PG",))
        stored = []
        for carrier in ({"workers": 2}, {"hosts": "local:1"}):
            cache = CellCache(tmp_path / f"store-{len(stored)}")
            execute_cells(cells, cache=cache, failure_mode="continue", **carrier)
            report = cache.lookup(cells[0])
            stored.append((report.classification, report.error_type, report.error))
        assert stored[0] == stored[1]
        assert stored[0][:2] == ("deterministic", "DeadlockError")

    def test_hosted_campaign_leaves_what_a_pool_campaign_leaves(self, tmp_path):
        """The artifacts ``Campaign.run(cache_dir=D)`` promises — the
        store, holding payloads and the failure verdict, and the event
        log — under ``hosts`` too, and a failed cell is raised only
        after the others are done."""
        campaign = Campaign(name="probe", cells=tuple(self.CELLS))
        with pytest.raises(CampaignError) as first:
            campaign.run(cache_dir=tmp_path, hosts="local:1")
        assert first.value.spec == self.CELLS[2]
        assert campaign.last_stats is None  # raised, like the pool does

        events = list(iter_events(tmp_path / "probe.events.jsonl"))
        assert [e["event"] for e in events if e["event"].startswith("campaign-")] == [
            "campaign-start",
            "campaign-end",
        ]
        assert events[-1]["executed"] == 3 and events[-1]["failed"] == 1
        store = CellCache(tmp_path)
        assert [store.get(cell) is not None for cell in self.CELLS] == [
            True, True, False, True
        ]
        assert store.lookup(self.CELLS[2]).condemned
        assert not (tmp_path / "quarantine").exists()
        # The service's own logs are separate files beside the campaign's.
        service_log = tmp_path / "service.events.jsonl"
        kinds = {e.get("event") for e in merged_events(service_log)}
        assert {"submit", "lease", "result", "cell-failed"} <= kinds

        # Second run: three hits, the condemned cell skipped unrun — so
        # no cluster, no lease.
        service_log.unlink()
        with pytest.raises(CampaignError) as second:
            campaign.run(cache_dir=tmp_path, hosts="local:1")
        assert isinstance(second.value.cause, QuarantinedCellError)
        assert second.value.attempts == 0
        assert not service_log.exists()
        last = list(iter_events(tmp_path / "probe.events.jsonl"))[-1]
        assert last["hits"] == 3 and last["quarantined"] == 1

    def test_explicit_artifact_paths_are_honoured_under_hosts(self, tmp_path):
        cells = sim_cells(seeds=(1,))
        campaign = Campaign(name="explicit", cells=tuple(cells))
        store = tmp_path / "store"
        campaign.run(
            hosts="local:1",
            cache_dir=store,
            log_path=tmp_path / "logs" / "mine.jsonl",
        )
        assert campaign.last_stats.executed == len(cells)
        assert (tmp_path / "logs" / "mine.jsonl").exists()
        assert (tmp_path / "logs" / "service.events.jsonl").exists()
        assert not list(store.glob("*.jsonl"))
        # Resumes from the store alone, with nothing left to carry.
        campaign.run(hosts="local:1", cache_dir=store)
        assert campaign.last_stats.hits == len(cells)
        assert campaign.last_stats.executed == 0


def _stat_fields(pid):
    """Fields of ``/proc/<pid>/stat`` after the command name (state,
    ppid, ...), or ``None`` once the process is gone."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None


def _alive(pid):
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def _children_of(pid):
    """Live (non-zombie) child PIDs of ``pid``."""
    children = []
    for entry in Path("/proc").glob("[0-9]*"):
        fields = _stat_fields(entry.name)
        if fields is not None and fields[0] != "Z" and int(fields[1]) == pid:
            children.append(int(entry.name))
    return children


def _descriptors(pid):
    """What the open descriptors of ``pid`` point at (``socket:[N]``,
    paths, ...)."""
    links = set()
    for fd in Path(f"/proc/{pid}/fd").iterdir():
        try:
            links.add(os.readlink(fd))
        except OSError:
            pass  # closed while listed
    return links


def _repro_env():
    """Environment of a ``python`` subprocess that imports this ``repro``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


#: A client that starts a two-host cluster, prints the host pids and
#: holds the cluster until it is killed.
_CLUSTER_HOLDER = """
import sys
from repro.campaign.service import LocalCluster
cluster = LocalCluster(2).start()
print(*(host.pid for host in cluster.workers), flush=True)
sys.stdin.read()
"""


class TestWorkerHostProcess:
    def test_start_returns_once_every_host_has_joined(self):
        with LocalCluster(2) as cluster:
            hosts = cluster.orchestrator.hosts
            assert sorted(hosts) == ["w0", "w1"]
            assert all(host.connected for host in hosts.values())

    def test_start_raises_once_every_host_exited_unjoined(self, monkeypatch):
        monkeypatch.setattr(
            service_client, "run_worker", lambda address, **options: sys.exit(3)
        )
        started = time.monotonic()
        with pytest.raises(RuntimeError, match=r"exit codes \[3, 3\]"):
            LocalCluster(2).start()
        assert time.monotonic() - started < 2.0

    def test_start_raises_once_a_lease_passes_without_every_host(self, monkeypatch):
        """A host that neither joins nor exits (wedged at birth) must not
        hold ``start()`` for good: it is killed once a lease has passed."""
        monkeypatch.setattr(
            service_client, "run_worker", lambda address, **options: signal.pause()
        )
        started = time.monotonic()
        with pytest.raises(RuntimeError, match=r"\['w0', 'w1'\] never joined"):
            LocalCluster(2, lease_duration=0.5).start()
        assert time.monotonic() - started < 3.0

    def test_exit_without_stop_does_not_hang(self):
        """Interpreter exit joins live non-daemon children: a cluster
        nobody stopped must not hold its client's exit hostage."""
        code = (
            "from repro.campaign.service import LocalCluster\n"
            "LocalCluster(2).start()\n"
        )
        subprocess.run(
            [sys.executable, "-c", code], env=_repro_env(), check=True, timeout=30
        )

    def test_forked_hosts_hold_no_listening_socket(self):
        """A forked host inherits every descriptor of its client; it
        must keep no copy of its own orchestrator's listening socket,
        nor of another cluster's open beside it."""
        with LocalCluster(1) as first, LocalCluster(2) as second:
            listening = {
                f"socket:[{os.fstat(sock.fileno()).st_ino}]"
                for cluster in (first, second)
                for sock in cluster.orchestrator._server.sockets
            }
            for cluster in (first, second):
                for host in cluster.workers:
                    assert not _descriptors(host.pid) & listening, host.name

    def test_hosts_of_a_killed_client_exit(self):
        """SIGKILL the client holding a cluster: with nothing left to
        dial, both hosts exit within their ``reconnect=3`` budget."""
        with subprocess.Popen(
            [sys.executable, "-c", _CLUSTER_HOLDER],
            env=_repro_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        ) as holder:
            pids = [int(pid) for pid in holder.stdout.readline().split()]
            holder.kill()
        assert len(pids) == 2
        try:
            wait_for(lambda: not any(_alive(pid) for pid in pids), timeout=8.0)
        finally:
            for pid in pids:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)

    def test_exec_host_joins_beside_forked_hosts(self, tmp_path):
        """``repro.cli work``, the standalone host, is a program of its
        own: it joins a local cluster, takes leases, returns payloads
        bit-identical to an inline run and exits 128+SIGTERM when
        terminated."""
        cells = sim_cells()
        inline, _ = execute_cells(cells)
        log = tmp_path / "service.events.jsonl"
        with LocalCluster(1, log_path=log) as cluster:
            host = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "work",
                    "--connect", cluster.address, "--name", "exec",
                    "--capacity", "1", "--reconnect", "0",
                ],
                env=_repro_env(),
            )
            try:
                wait_for(lambda: "exec" in cluster.orchestrator.hosts, timeout=60.0)
                with ThreadPoolExecutor(1) as pool:
                    campaign = pool.submit(execute_cells, cells, hosts=cluster.address)
                    wait_for(
                        lambda: any(
                            e["event"] == "lease" and e["host_name"] == "exec"
                            for e in iter_events(log)
                        )
                    )
                    payloads, stats = campaign.result(timeout=60.0)
                assert stats.executed == len(cells)
                assert [payload_hash(p) for p in payloads] == [
                    payload_hash(p) for p in inline
                ]
                host.terminate()
                assert host.wait(timeout=10.0) == 128 + signal.SIGTERM
            finally:
                host.kill()
                host.wait()

    def test_terminated_host_takes_its_pool_workers_with_it(self):
        """SIGTERM a capacity-2 host mid-batch: the engine's pool
        workers must not survive it as orphans."""
        cells = [
            CellSpec.synthetic(
                "uniform_random", 0.02, "PowerPunch-PG",
                warmup=100, measurement=60_000, drain=False, seed=seed,
            )
            for seed in (1, 2)
        ]
        with LocalCluster(1, capacity=2) as cluster:
            host = cluster.workers[0]

            async def submit_and_leave():
                host_addr, port = parse_address(cluster.address)
                reader, writer = await protocol.open_connection(host_addr, port)
                await protocol.send(
                    writer, {"type": "hello", "role": "client", "salt": code_salt()}
                )
                await protocol.send(
                    writer,
                    {
                        "type": "submit",
                        "name": "orphans",
                        "resume": False,
                        "cells": [spec.canonical() for spec in cells],
                    },
                )
                deadline = time.monotonic() + 30.0
                while len(_children_of(host.pid)) < 2:
                    assert time.monotonic() < deadline, "pool workers never started"
                    assert host.is_alive(), "host exited early"
                    await asyncio.sleep(0.05)
                writer.close()

            asyncio.run(submit_and_leave())
            pool_workers = _children_of(host.pid)
            assert len(pool_workers) >= 2
            host.terminate()
            host.join(timeout=10.0)
            assert host.exitcode == 128 + signal.SIGTERM
            try:
                wait_for(lambda: not any(_alive(pid) for pid in pool_workers), 5.0)
            finally:
                for pid in pool_workers:
                    if _alive(pid):
                        os.kill(pid, signal.SIGKILL)

    def test_cluster_whose_hosts_are_all_gone_hangs_up(self):
        """Hosts of an ephemeral cluster are never respawned; with the
        last one gone a waiting campaign must fail, not wait for good."""
        cells = [
            CellSpec.synthetic(
                "uniform_random", 0.02, "No-PG",
                warmup=100, measurement=60_000, drain=False, seed=1,
            )
        ]
        with LocalCluster(1) as cluster:
            host = cluster.workers[0]

            def kill_the_only_host():
                wait_for(lambda: cluster.orchestrator.hosts["w0"].leases)
                host.kill()

            killer = threading.Thread(target=kill_the_only_host)
            killer.start()
            try:
                with pytest.raises(ServiceError, match="went away"):
                    execute_cells(cells, hosts=cluster.address)
            finally:
                killer.join(timeout=5.0)
            assert not killer.is_alive()

    def test_killed_host_is_seen_gone_while_its_pool_workers_live(self):
        """SIGKILL the only host mid-batch at capacity 2: its orphaned
        pool workers still hold every pipe it had, yet the cluster must
        see it gone and hang up on the campaign at once."""
        cells = [
            CellSpec.synthetic(
                "uniform_random", 0.02, "No-PG",
                warmup=100, measurement=60_000, drain=False, seed=seed,
            )
            for seed in (1, 2)
        ]
        pool_workers, killed_at, hung_up = [], [], threading.Event()
        with LocalCluster(1, capacity=2) as cluster:
            host = cluster.workers[0]

            def kill_the_host_mid_batch():
                wait_for(lambda: len(_children_of(host.pid)) >= 2, timeout=30.0)
                pool_workers.extend(_children_of(host.pid))
                killed_at.append(time.monotonic())
                host.kill()
                # Bounded either way: a watcher blind to the host's exit
                # waits for these orphans, so end them after a while.
                hung_up.wait(timeout=10.0)
                for pid in pool_workers:
                    if _alive(pid):
                        os.kill(pid, signal.SIGKILL)

            killer = threading.Thread(target=kill_the_host_mid_batch)
            killer.start()
            try:
                with pytest.raises(ServiceError, match="went away"):
                    execute_cells(cells, hosts=cluster.address)
                waited = time.monotonic() - killed_at[0]
            finally:
                hung_up.set()
                killer.join(timeout=15.0)
            assert not killer.is_alive()
        assert len(pool_workers) >= 2
        assert waited < 5.0, f"campaign hung up {waited:.1f} s after the kill"
