"""Trace record/replay helpers for kernel benchmarking.

The benchmark itself lives in ``bench/`` (see ``bench/README.md``); it
times these public functions from outside.

Open-loop synthetic traffic is state-independent: the generator never
looks at the network beyond its topology.  A benchmark therefore
**pre-records an injection trace** (cycle, source, destination, vnet,
size — plus slack-2 early notices) by driving :class:`SyntheticTraffic`
against a lightweight recorder (:func:`record_trace`), then **replays**
the identical trace into a fresh network (:func:`replay`).  The timed
region contains only trace application and ``Network.step`` — no RNG,
no pattern math — so a measurement isolates the kernel instead of
diluting it with traffic-generation overhead, and every kernel or
scheme consuming the same trace can be compared stat for stat
(:func:`_stats_fingerprint`).
"""

from __future__ import annotations

from contextlib import closing
from time import perf_counter
from typing import Callable, Dict, List, Tuple

from .experiments.common import ALL_SCHEMES
from .noc import Network, NoCConfig
from .noc.packet import Packet, VirtualNetwork
from .traffic import SyntheticTraffic

#: The experiments' scheme registry, keyed by class name ("NoPG", ...).
SCHEMES: Dict[str, Callable] = {cls.__name__: cls for cls in ALL_SCHEMES.values()}

#: One replayed event: ("inject", source, dest, vnet, size) or ("notice", node).
ReplayEvent = Tuple
#: A recorded trace: events per cycle over a fixed window.
Trace = Dict[int, List[ReplayEvent]]


class _RecorderNI:
    """Stand-in NI that records slack-2 early notices."""

    def __init__(self, recorder: "_TraceRecorder", node: int) -> None:
        self._recorder = recorder
        self._node = node

    def early_notice(self, cycle: int) -> None:
        self._recorder.events.setdefault(cycle, []).append(("notice", self._node))


class _TraceRecorder:
    """Duck-typed :class:`Network` facade for :class:`SyntheticTraffic`.

    The generator only uses ``topology``, ``interfaces[n].early_notice``
    and ``inject``; recording those calls captures everything needed to
    replay the workload verbatim.
    """

    def __init__(self, config: NoCConfig) -> None:
        self.topology = config.make_topology()
        self.cycle = 0
        self.events: Trace = {}
        self.interfaces = [
            _RecorderNI(self, node) for node in range(config.num_nodes)
        ]

    def inject(self, packet: Packet) -> None:
        self.events.setdefault(self.cycle, []).append(
            (
                "inject",
                packet.source,
                packet.destination,
                int(packet.vnet),
                packet.size_flits,
            )
        )


def record_trace(
    config: NoCConfig, pattern: str, rate: float, seed: int, cycles: int
) -> Trace:
    """Record ``cycles`` cycles of synthetic traffic for ``config``."""
    recorder = _TraceRecorder(config)
    traffic = SyntheticTraffic(recorder, pattern, rate, seed=seed)
    for cycle in range(cycles):
        recorder.cycle = cycle
        traffic.step(cycle)
    # Packets still deferred past the window are dropped: both kernels
    # replay the identical truncated trace.
    return recorder.events


def replay(
    config: NoCConfig,
    scheme_name: str,
    trace: Trace,
    cycles: int,
    drain_cycles: int = 500_000,
) -> Tuple[Network, float]:
    """Replay ``trace`` into a fresh network; return it, closed
    (``Network.close``: results readable, nothing left to step), and
    the wall time of the timed region (trace application + every
    ``step``)."""
    net = Network(config, SCHEMES[scheme_name]())
    interfaces = net.interfaces
    inject = net.inject
    step = net.step
    with closing(net):
        start = perf_counter()
        for cycle in range(cycles):
            for event in trace.get(cycle, ()):
                if event[0] == "inject":
                    _kind, source, dest, vnet, size = event
                    inject(Packet(source, dest, VirtualNetwork(vnet), size, cycle))
                else:
                    interfaces[event[1]].early_notice(cycle)
            step()
        net.run_until_drained(drain_cycles)
        elapsed = perf_counter() - start
    return net, elapsed


def _stats_fingerprint(net: Network) -> Dict[str, int]:
    dump = dict(net.stats.as_dict())
    policy = net.policy
    if hasattr(policy, "controllers") and policy.controllers:
        dump["total_off_cycles"] = policy.total_off_cycles()
        dump["total_wake_events"] = policy.total_wake_events()
    return dump
