"""Client side of the campaign service.

:func:`carry_on_service` is the service carrier of
:func:`~repro.campaign.engine.execute_cells`: it submits the cells the
front door could not answer itself, and reports each streamed verdict
into the run — a payload, a store hit, or a failure a worker host
already classified.  Everything else (counting, the cache and the
verdicts it keeps, the event log, ``failure_mode``) is the front
door's, exactly as under the process pool, and because cells are pure
functions of their specs the payloads are bit-identical to a
single-host run.

:class:`LocalCluster` spins up an ephemeral service on this machine
(orchestrator on a background thread, worker hosts forked from this
process); ``hosts="local:N"`` starts one for the length of a campaign.
"""

from __future__ import annotations

import asyncio
import atexit
import multiprocessing
import os
import select
import stat
import threading
from pathlib import Path
from time import perf_counter
from typing import List, Optional, Sequence, Set, Tuple, Union

from ..cache import CellCache, Payload, code_salt, decode_payload
from ..engine import CampaignStats, execute_cells
from ..spec import CellSpec
from ..supervisor import HostedCellError
from . import protocol
from .orchestrator import Orchestrator
from .worker import run_worker

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
        await protocol.send(writer, {"type": "hello", "role": "client", "salt": code_salt()})
        cells = [run.cells[index].canonical() for index in runnable]
        await protocol.send(
            writer, {"type": "submit", "name": run.name, "resume": resume, "cells": cells}
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
                run.fail(
                    index,
                    HostedCellError(
                        message.get("error", "unknown failure"),
                        message.get("error_type"),
                    ),
                    message.get("classification", "unknown"),
                )
    finally:
        writer.close()


def _forked_host(address: str, **options) -> None:
    """A forked worker host's entry: point every socket inherited from
    the client at ``/dev/null``, then run the host.  ``dup2``, not
    ``close``: the number stays taken, so a late finalizer of an
    inherited socket object can never close a socket the host opened
    itself, and no host keeps its client's listening socket alive."""
    devnull = os.open(os.devnull, os.O_RDWR)
    for fd in map(int, os.listdir("/dev/fd")):
        try:
            if fd > 2 and stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.dup2(devnull, fd)
        except OSError:
            pass  # the descriptor the listing itself read through
    os.close(devnull)
    run_worker(address, **options)


def _exits_within(pid: int, timeout: float) -> bool:
    """Whether process ``pid`` exits within ``timeout`` s, seen on its
    pidfd: a host's sentinel stays open while its pool workers live."""
    pidfd = os.pidfd_open(pid)
    exited = select.select([pidfd], [], [], timeout)[0]
    os.close(pidfd)
    return bool(exited)


class LocalCluster:
    """An ephemeral local service: an in-process orchestrator plus
    worker hosts forked from this process.

    :meth:`start` binds the orchestrator, forks the hosts (no re-exec,
    no re-import) and returns once every host has joined; only then
    does the orchestrator's loop move to a daemon thread, so no thread
    of the cluster's own is ever forked over.  :attr:`workers` holds
    the hosts' :class:`~multiprocessing.Process` handles, so chaos
    tests can SIGKILL one exactly as a machine failure would::

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
        max_retries: int = 2,
        lease_duration: float = 20.0,
        heartbeat_interval: float = 0.5,
        miss_limit: int = 3,
        log_path: Optional[Union[str, Path]] = None,
        name: str = "local-cluster",
    ) -> None:
        if num_workers < 1:
            raise ValueError("a cluster needs at least one worker host")
        self.num_workers = num_workers
        #: ``run_worker`` arguments of every host, its name aside.
        self._host_options = dict(
            capacity=max(1, capacity),
            timeout=timeout,
            max_retries=max_retries,
            log_dir=log_path and Path(log_path).parent,
            reconnect=3,
        )
        self.orchestrator = Orchestrator(
            CellCache(cache_dir),
            lease_duration=lease_duration,
            heartbeat_interval=heartbeat_interval,
            miss_limit=miss_limit,
            log_path=log_path,
            name=name,
        )
        self.workers: List[multiprocessing.Process] = []
        self._exited: Set[str] = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> str:
        return self.orchestrator.address

    def start(self) -> "LocalCluster":
        # Bind, fork and wait for the joins on this thread: the hosts
        # are forked before the cluster has started any thread.
        loop = self._loop = asyncio.new_event_loop()
        fork = multiprocessing.get_context("fork")
        try:
            loop.run_until_complete(self.orchestrator.start())
            for index in range(self.num_workers):
                host = fork.Process(
                    target=_forked_host,
                    args=(self.address,),
                    kwargs=dict(self._host_options, name=f"w{index}"),
                    name=f"w{index}",
                )
                host.start()
                self.workers.append(host)
                # Plain values: asyncio debug mode reprs callback args; a Process repr reaps.
                pidfd = os.pidfd_open(host.pid)
                loop.add_reader(pidfd, self._host_exited, pidfd, host.name)
            loop.run_until_complete(self._until_hosts_joined())
        except BaseException:
            for host in self.workers:
                host.kill()  # none has started a pool to take along
            self.stop()
            loop.run_until_complete(self.orchestrator.stop())
            loop.close()
            raise
        self._thread = threading.Thread(
            target=self._serve, name="campaign-orchestrator", daemon=True
        )
        self._thread.start()
        # Interpreter exit joins every live non-daemon child: stop the
        # hosts before that, or a forgotten stop() hangs the exit.
        atexit.register(self.stop)
        return self

    async def _until_hosts_joined(self) -> None:
        """Until every host has joined or exited, for at most a lease;
        raise if one did neither, or if none joined."""
        names = {host.name for host in self.workers}
        changed = self.orchestrator.hosts_changed
        deadline = self._loop.time() + self.orchestrator.lease_duration
        while late := names - self.orchestrator.hosts.keys() - self._exited:
            changed.clear()
            try:
                await asyncio.wait_for(changed.wait(), deadline - self._loop.time())
            except asyncio.TimeoutError:
                break
        unjoined = [host for host in self.workers if host.name not in self.orchestrator.hosts]
        if late or len(unjoined) == len(self.workers):
            raise RuntimeError(
                f"worker hosts {[host.name for host in unjoined]} never joined (exit codes "
                f"{[host.exitcode for host in unjoined]}, None: alive after a lease)"
            )

    def _host_exited(self, pidfd: int, name: str) -> None:
        # On the loop, from a host's pidfd (readable once the host exits,
        # whoever holds its pipes); never reaps.  Hosts are never respawned:
        # with the last one gone, stopping hangs up on waiting clients.
        self._loop.remove_reader(pidfd)
        os.close(pidfd)
        self._exited.add(name)
        self.orchestrator.hosts_changed.set()  # a leave it may never see
        if len(self._exited) == len(self.workers):
            self.orchestrator.signal_stop()

    def _serve(self) -> None:
        self._loop.run_until_complete(self.orchestrator.serve_forever())
        self._loop.close()

    def stop(self) -> None:
        atexit.unregister(self.stop)
        for host in self.workers:
            host.terminate()
        for host in self.workers:
            if host.exitcode is None and not _exits_within(host.pid, 10.0):
                host.kill()  # pragma: no cover - defensive
            host.join()
        if self._thread is not None:
            # serve_forever performs the full shutdown before returning,
            # so signalling is all the other thread needs from us.
            try:
                self._loop.call_soon_threadsafe(self.orchestrator.signal_stop)
            except RuntimeError:
                pass  # the loop is closed: the service already stopped
            self._thread.join(timeout=10.0)

    def __enter__(self) -> "LocalCluster":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
