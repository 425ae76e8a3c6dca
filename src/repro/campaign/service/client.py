"""Client side of the campaign service.

:func:`carry_on_service` is the service carrier of
:func:`~repro.campaign.engine.execute_cells`: it submits the cells the
front door could not answer itself, and reports each streamed verdict
into the run — a payload, a store hit, or a failure a worker host
already classified.  Everything else (counting, the cache, quarantine,
the event log, ``failure_mode``) is the front door's, exactly as under
the process pool, and because cells are pure functions of their specs
the payloads are bit-identical to a single-host run.

:class:`LocalCluster` spins up an ephemeral service on this machine
(orchestrator on a background thread, worker hosts as subprocesses);
``hosts="local:N"`` starts one for the length of a campaign.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter
from typing import List, Optional, Sequence, Tuple, Union

from ..cache import CellCache, Payload, code_salt, decode_payload
from ..engine import CampaignStats, execute_cells
from ..spec import CellSpec
from . import protocol
from .orchestrator import Orchestrator

class ServiceError(RuntimeError):
    """The service refused the request (salt mismatch, protocol error)
    or went away before every cell had a verdict."""


def execute_cells_remote(
    cells: Sequence[CellSpec], address: str, **options
) -> Tuple[List[Optional[Payload]], CampaignStats]:
    """``execute_cells(cells, hosts=address, **options)``."""
    return execute_cells(cells, hosts=address, **options)


def carry_on_service(
    run, runnable: List[int], hosts: str, *, workers: int, resume: bool
) -> None:
    """Carry the ``runnable`` cells of ``run`` (the engine's ``_Run``)
    on the service ``hosts`` names: ``local:N`` or ``HOST:PORT``."""
    if not hosts.startswith("local:"):
        asyncio.run(_submit_and_stream(run, runnable, hosts, resume))
        return
    # The ephemeral cluster's own logs go beside the campaign's: the
    # orchestrator's here, the hosts' under ``hosts/``.
    log_path = run.log.path and run.log.path.parent / "service.events.jsonl"
    with LocalCluster(
        int(hosts[len("local:"):]),
        capacity=workers,
        timeout=run.policy.timeout,
        max_retries=run.policy.max_retries,
        log_path=log_path,
        name=run.name,
    ) as cluster:
        asyncio.run(_submit_and_stream(run, runnable, cluster.address, resume))


async def _submit_and_stream(
    run, runnable: List[int], address: str, resume: bool
) -> None:
    """Submit the cells as canonical spec JSON and report the per-cell
    verdicts as they stream back (store hits first, then completions
    in arrival order) until the service says ``done``."""
    host, port = protocol.parse_address(address)
    reader, writer = await protocol.open_connection(host, port)
    try:
        await protocol.send(
            writer,
            {
                "type": "hello",
                "role": "client",
                "salt": code_salt(),
            },
        )
        await protocol.send(
            writer,
            {
                "type": "submit",
                "name": run.name,
                "resume": resume,
                "cells": [run.cells[index].canonical() for index in runnable],
            },
        )
        submitted = perf_counter()
        reported = 0
        while True:
            message = await protocol.recv(reader)
            if message is None:
                raise ServiceError(
                    "service went away mid-campaign "
                    f"({reported}/{len(runnable)} submitted cells reported)"
                )
            kind = message.get("type")
            if kind == "error":
                raise ServiceError(message.get("error", "refused"))
            if kind == "done":
                return
            if kind != "cell":
                raise protocol.ProtocolError(f"unexpected service message {kind!r}")
            index = runnable[int(message["index"])]
            status = message["status"]
            reported += 1
            if status in ("hit", "done"):
                # The service does not say how long the cell ran; the
                # time since submission is what this client waited.
                run.complete(
                    index,
                    decode_payload(message["payload"]),
                    perf_counter() - submitted,
                    was_hit=status == "hit",
                )
            else:
                # One attempt as seen from here, however many the host
                # spent before it gave its verdict.
                run.attempts[index] += 1
                classification = message.get("classification", "unknown")
                run.fail(
                    index,
                    RuntimeError(
                        f"[{classification}] "
                        f"{message.get('error', 'unknown failure')}"
                    ),
                    classification,
                )
    finally:
        writer.close()


class LocalCluster:
    """An ephemeral local service: in-process orchestrator plus worker
    subprocesses.

    The orchestrator runs on a daemon thread with its own event loop;
    each worker host is a real ``python -m repro.campaign.service``
    subprocess, so chaos tests can SIGKILL one exactly as a machine
    failure would.  Use as a context manager::

        with LocalCluster(3, cache_dir=cache) as cluster:
            payloads, stats = execute_cells(cells, hosts=cluster.address)
    """

    def __init__(
        self,
        num_workers: int,
        *,
        cache_dir: Optional[Union[str, Path]] = None,
        capacity: int = 1,
        timeout: Optional[float] = None,
        max_retries: Optional[int] = 2,
        lease_duration: float = 20.0,
        heartbeat_interval: float = 0.5,
        miss_limit: int = 3,
        log_path: Optional[Union[str, Path]] = None,
        name: str = "local-cluster",
    ) -> None:
        if num_workers < 1:
            raise ValueError("a cluster needs at least one worker host")
        self.num_workers = num_workers
        self.capacity = max(1, capacity)
        self.timeout = timeout
        self.max_retries = max_retries
        self.log_path = Path(log_path) if log_path is not None else None
        self.orchestrator = Orchestrator(
            CellCache(cache_dir),
            lease_duration=lease_duration,
            heartbeat_interval=heartbeat_interval,
            miss_limit=miss_limit,
            log_path=str(self.log_path) if self.log_path else None,
            name=name,
        )
        self.workers: List[subprocess.Popen] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> str:
        return self.orchestrator.address

    def start(self) -> "LocalCluster":
        started = threading.Event()

        def _serve() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            loop.run_until_complete(self.orchestrator.start())
            started.set()
            loop.run_until_complete(self.orchestrator.serve_forever())
            loop.close()

        self._thread = threading.Thread(
            target=_serve, name="campaign-orchestrator", daemon=True
        )
        self._thread.start()
        if not started.wait(timeout=10.0):  # pragma: no cover - defensive
            raise RuntimeError("orchestrator failed to start")
        for index in range(self.num_workers):
            self.workers.append(self.spawn_worker(f"w{index}"))
        # A worker that dies this fast is a launch bug (bad argv, import
        # error); fail loudly instead of letting a campaign hang on a
        # cluster that will never produce results.
        time.sleep(0.2)
        dead = [p.poll() for p in self.workers if p.poll() is not None]
        if len(dead) == len(self.workers):
            self.stop()
            raise RuntimeError(
                f"all {len(dead)} worker hosts exited at launch "
                f"(exit codes {dead})"
            )
        threading.Thread(
            target=self._stop_serving_when_hosts_are_gone,
            name="campaign-hosts",
            daemon=True,
        ).start()
        return self

    def _stop_serving_when_hosts_are_gone(self) -> None:
        # Hosts here are never respawned: once the last one has exited
        # no cell will ever get a verdict.  Stopping the orchestrator
        # hangs up on every waiting client, which raises there instead
        # of waiting for good.
        for proc in list(self.workers):
            proc.wait()
        self._signal_stop()

    def _signal_stop(self) -> None:
        try:
            self._loop.call_soon_threadsafe(self.orchestrator.signal_stop)
        except RuntimeError:
            pass  # the loop is closed: the service already stopped

    def spawn_worker(self, name: str) -> subprocess.Popen:
        """Start one worker-host subprocess dialed into this cluster."""
        command = [
            sys.executable,
            "-m",
            "repro.campaign.service",
            "--connect",
            self.address,
            "--name",
            name,
            "--capacity",
            str(self.capacity),
            "--reconnect",
            "3",
        ]
        if self.max_retries is not None:
            command += ["--max-retries", str(self.max_retries)]
        if self.timeout is not None:
            command += ["--timeout", str(self.timeout)]
        if self.log_path is not None:
            command += ["--log-dir", str(self.log_path.parent)]
        env = os.environ.copy()
        src_root = str(Path(__file__).resolve().parents[3])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_root, env.get("PYTHONPATH")) if p
        )
        return subprocess.Popen(command, env=env)

    def stop(self) -> None:
        for proc in self.workers:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.workers:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
                proc.wait()
        if self._loop is not None and self._thread is not None:
            # serve_forever performs the full shutdown before returning,
            # so signalling is all the other thread needs from us.
            self._signal_stop()
            self._thread.join(timeout=10.0)

    def __enter__(self) -> "LocalCluster":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
