"""Full-chip assembly: cores + L1s + L2/directory banks + MCs on the NoC.

This is the closed-loop substitute for the paper's gem5 full-system
setup: every L1 miss becomes a MESI transaction whose messages travel
through the simulated NoC under the configured power-gating scheme, and
the requesting core stalls until the transaction completes.  Execution
time (the paper's Fig. 8 metric) is the cycle at which every core has
retired its instruction quota.

Timing per Table 2: 1-cycle L1 (folded into the core's issue cycle),
6-cycle L2/directory access, 128-cycle memory, 3-cycle NI, four memory
controllers at the mesh corners, block addresses interleaved across the
64 L2 banks.

Slack-2 wiring: when a request arrives at a home node, the directory's
L2 access is about to produce a response message — the NI early notice
fires right there, giving Power Punch-PG its ~6 cycles of local-router
wakeup slack (valid bit 1 for L2/directory, 0 for L1-sourced requests,
exactly as in the paper's Sec. 4.2).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache, partial
from types import MappingProxyType
from typing import Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from ..noc.config import NoCConfig
from ..noc.network import Network
from ..noc.packet import Packet
from ..noc.policy import PowerPolicy
from .cache import BLOCK_BYTES, SetAssociativeCache
from .cpu import Core
from .directory import DirectoryController, L2Line
from .l1 import L1Controller, L1Line
from .memctrl import Memory, MemoryController
from .memtrace import _PRIVATE_STRIDE, _SHARED_BASE, AccessStream, StreamProfile
from .messages import CoherenceMessage, MessageType

#: Processing latencies (cycles) applied when a message reaches a node.
L2_ACCESS_LATENCY = 6
L1_PROCESS_LATENCY = 1
RESPONSE_PROCESS_LATENCY = 1
#: Latency of a message that never enters the NoC (same-node L1<->L2).
LOCAL_HOP_LATENCY = 2

_DIRECTORY_TYPES = frozenset(
    {
        MessageType.GETS,
        MessageType.GETM,
        MessageType.PUTS,
        MessageType.PUTM,
        MessageType.OWNER_DATA,
        MessageType.FWD_NACK,
        MessageType.MEM_DATA,
    }
)
_MC_TYPES = frozenset({MessageType.MEM_READ, MessageType.MEM_WRITE})
#: Directory requests that pay the L2 access before the home acts.
_L2_ACCESS_TYPES = frozenset(
    {MessageType.GETS, MessageType.GETM, MessageType.PUTM, MessageType.PUTS}
)
#: Request types whose arrival at the home implies a response will be
#: generated after the L2 access — the slack-2 notice point.
_NOTICE_TYPES = frozenset(
    {MessageType.GETS, MessageType.GETM, MessageType.PUTM}
)


#: One cache's content per set index: its blocks, oldest first.
SetImage = Tuple[Tuple[int, ...], ...]


class WarmImage(NamedTuple):
    """What warm-up leaves behind, without the lines it evicts on the way.

    The read-only bottom layer of every chip built from it: a cache set
    or directory entry of the chip is created from the image the first
    time it is indexed (``SetAssociativeCache.preload``,
    ``DirectoryController.preload_owners``).  Tuples and read-only
    mappings only — it is shared by all those chips.
    """

    #: Per node: the L1's resident blocks.
    l1_sets: Tuple[SetImage, ...]
    #: Per home bank: the L2's resident blocks.
    l2_sets: Tuple[SetImage, ...]
    #: Per home bank: owning node of every private hot block.
    owners: Tuple[Mapping[int, int], ...]


def _surviving_sets(blocks: Iterable[int], geometry: Tuple[int, int]) -> SetImage:
    """What a (sets, ways) cache holds after inserting ``blocks`` in order."""
    num_sets, ways = geometry
    cache: SetAssociativeCache[None] = SetAssociativeCache(
        num_sets * ways * BLOCK_BYTES, ways
    )
    cache.fill((block, None) for block in blocks)
    sets: List[List[int]] = [[] for _ in range(num_sets)]
    for block, _line in cache.items():
        sets[block % num_sets].append(block)
    return tuple(map(tuple, sets))


@lru_cache(maxsize=8)
def _private_image(
    num_nodes: int, hot_blocks: int, l1_geometry: Tuple[int, int]
) -> Tuple[Tuple[SetImage, ...], Tuple[Mapping[int, int], ...]]:
    """The part of a warm image the shared pool has no say in: L1
    contents per node and block owners per home (one copy for all the
    suite's profiles, which differ in ``shared_blocks`` only)."""
    l1_sets = []
    owners: List[Dict[int, int]] = [{} for _ in range(num_nodes)]
    for node in range(num_nodes):
        base = node * _PRIVATE_STRIDE
        hot = range(base, base + hot_blocks)
        l1_sets.append(_surviving_sets(hot, l1_geometry))
        for block in hot:
            owners[block % num_nodes][block] = node  # Chip.home_of
    return tuple(l1_sets), tuple(MappingProxyType(o) for o in owners)


@lru_cache(maxsize=8)
def _warm_image(
    num_nodes: int,
    hot_blocks: int,
    shared_blocks: int,
    l1_geometry: Tuple[int, int],
    l2_geometry: Tuple[int, int],
) -> WarmImage:
    """The warmed state: every core touches its ``hot_blocks`` private
    blocks (L1 line in E, home L2 line, directory owner), then the
    ``shared_blocks`` pool is read into the home L2 banks.

    Pure and the same for every cell of a profile, so it is worked out
    once per process.  With home = block % 64 and 256 L2 sets a bank
    only ever indexes 4 of its sets, so most of what is inserted is
    evicted again on the way (DESIGN.md, "Known modelling deviations").
    """
    l1_sets, owners = _private_image(num_nodes, hot_blocks, l1_geometry)
    # A home's owned blocks, in the order the cores touched them.
    l2_inserts = [list(owned) for owned in owners]
    for block in range(_SHARED_BASE, _SHARED_BASE + shared_blocks):
        l2_inserts[block % num_nodes].append(block)
    return WarmImage(
        l1_sets,
        tuple(_surviving_sets(blocks, l2_geometry) for blocks in l2_inserts),
        owners,
    )


#: What a warm block's line is made by, the first time its set is
#: indexed (``partial``: no Python frame between the set and the line).
_warm_l1_line = partial(L1Line, "E", 0)
_warm_l2_line = partial(L2Line, 0)


@dataclass
class ChipResult:
    """Outcome of one full-system run."""

    benchmark: str
    scheme: str
    execution_time: int
    avg_packet_latency: float
    avg_total_latency: float
    avg_blocked_routers: float
    avg_wakeup_wait: float
    injection_rate: float
    l1_miss_rate: float
    packets: int
    cycles: int


class Chip:
    """A mesh CMP running a synthetic multi-threaded workload."""

    def __init__(
        self,
        config: NoCConfig,
        policy: PowerPolicy,
        profile: StreamProfile,
        instructions_per_core: int = 3000,
        seed: int = 1,
        memory_latency: int = 128,
        benchmark: str = "custom",
        warm_caches: bool = True,
    ) -> None:
        self.config = config
        self.network = Network(config, policy)
        self.benchmark = benchmark
        n = config.num_nodes
        w, h = config.width, config.height
        self.mc_nodes = [0, w - 1, (h - 1) * w, h * w - 1]
        self.memory = Memory()

        #: Pending (ready_cycle, seq, node, message) controller work.
        self._work: List[Tuple[int, int, int, CoherenceMessage]] = []
        self._seq = 0

        def home_of(block: int) -> int:
            return block % n

        mc_nodes = self.mc_nodes

        def mc_of(block: int) -> int:
            return mc_nodes[block % len(mc_nodes)]

        self.home_of = home_of
        self.l1s: List[L1Controller] = []
        self.directories: List[DirectoryController] = []
        self.mcs: Dict[int, MemoryController] = {}
        self.cores: List[Core] = []

        for node in range(n):
            sender = self._make_sender(node)
            self.l1s.append(L1Controller(node, home_of, sender))
            self.directories.append(
                DirectoryController(node, mc_of, sender, l2_ways=16)
            )
            stream = AccessStream(node, profile, seed=seed)
            self.cores.append(
                Core(node, self.l1s[node], stream, quota=instructions_per_core)
            )
        for node in self.mc_nodes:
            ni = self.network.interfaces[node]
            self.mcs[node] = MemoryController(
                node,
                self.memory,
                self._make_sender(node),
                latency=memory_latency,
                early_notice=ni.early_notice,
            )
        self.network.subscribe("delivered", self._on_packet_delivered)
        #: Cores not yet seen finished, and the latest ``done_at`` of
        #: those that were (a core may finish ahead of the clock).
        self._cores_remaining = n
        self._last_done_at = 0
        self.execution_time: Optional[int] = None
        if warm_caches:
            self._warm_caches(profile)

    def _warm_caches(self, profile: StreamProfile) -> None:
        """Pre-install each core's hot working set and the shared pool.

        Removes compulsory first-touch misses so the measured run
        reflects steady-state behaviour (the paper collects statistics
        from PARSEC regions of interest, not cold caches).  Nothing is
        instantiated here: lines and entries appear, from the image,
        when the run first touches them.
        """
        l1_cache, l2_cache = self.l1s[0].cache, self.directories[0].l2
        image = _warm_image(
            self.config.num_nodes,
            profile.hot_blocks,
            profile.shared_blocks,
            (l1_cache.num_sets, l1_cache.ways),
            (l2_cache.num_sets, l2_cache.ways),
        )
        for l1, sets in zip(self.l1s, image.l1_sets):
            l1.cache.preload(sets, _warm_l1_line)
        for home, sets, owners in zip(
            self.directories, image.l2_sets, image.owners
        ):
            home.l2.preload(sets, _warm_l2_line)
            home.preload_owners(owners)

    # ------------------------------------------------------------------
    # Message plumbing
    # ------------------------------------------------------------------
    def _make_sender(self, node: int) -> Callable[[CoherenceMessage, int, int], None]:
        def send(msg: CoherenceMessage, dest: int, cycle: int) -> None:
            if dest == node:
                # Same-node hop (e.g. the home bank is local): bypass
                # the NoC with a short fixed latency.
                self._schedule(dest, msg, cycle + LOCAL_HOP_LATENCY, cycle)
            else:
                self.network.inject(msg.to_packet(node, dest, cycle))

        return send

    def _on_packet_delivered(self, packet: Packet, cycle: int) -> None:
        msg = packet.payload
        if not isinstance(msg, CoherenceMessage):
            return
        self._schedule(packet.destination, msg, cycle, cycle)

    def _schedule(
        self, node: int, msg: CoherenceMessage, arrival: int, cycle: int
    ) -> None:
        if msg.mtype in _MC_TYPES:
            ready = arrival  # the MC applies its own latency
        elif msg.mtype in _DIRECTORY_TYPES:
            if msg.mtype in _L2_ACCESS_TYPES:
                ready = arrival + L2_ACCESS_LATENCY
                if msg.mtype in _NOTICE_TYPES:
                    # Slack 2: a response will leave this node's NI in
                    # ~L2_ACCESS_LATENCY cycles.
                    self.network.interfaces[node].early_notice(cycle)
            else:
                ready = arrival + RESPONSE_PROCESS_LATENCY
        else:
            ready = arrival + L1_PROCESS_LATENCY
        heapq.heappush(self._work, (ready, self._seq, node, msg))
        self._seq += 1

    def _process_work(self, cycle: int) -> None:
        work = self._work
        while work and work[0][0] <= cycle:
            _ready, _seq, node, msg = heapq.heappop(work)
            if msg.mtype in _MC_TYPES:
                self.mcs[node].handle(msg, cycle)
            elif msg.mtype in _DIRECTORY_TYPES:
                self.directories[node].handle(msg, cycle)
            else:
                self.l1s[node].handle(msg, cycle)

    # ------------------------------------------------------------------
    # Simulation loop
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the chip one cycle: controllers, MCs, cores, network."""
        cycle = self.network.cycle
        self._process_work(cycle)
        for mc in self.mcs.values():
            mc.step(cycle)
        # Ascending node order: it fixes the injection order in a cycle.
        for core in self.cores:
            if core.wake_at <= cycle:
                core.step(cycle)
                if core.done_at is not None:
                    # Finished (or parked): never due again.
                    self._cores_remaining -= 1
                    if core.done_at > self._last_done_at:
                        self._last_done_at = core.done_at
        self.network.step()

    def run(self, max_cycles: int = 2_000_000) -> ChipResult:
        """Run until every core retires its quota; return the results."""
        while self.execution_time is None:
            if self.network.cycle >= max_cycles:
                self._dump_stall_state()
                raise RuntimeError(
                    f"chip did not finish within {max_cycles} cycles"
                )
            self.step()
            if not self._cores_remaining and self.network.cycle > self._last_done_at:
                self.execution_time = self.network.cycle
        return self.result()

    def close(self) -> None:
        """Finish the run: close the network (``Network.close``) and
        release the node models, whose senders, completion callbacks
        and ``delivered`` subscription all point back at this chip — so
        nothing the chip built outlives it.  Take :meth:`result` first (``run``
        returns it); ``execution_time`` stays.  Idempotent.
        """
        self.network.close()
        for l1 in self.l1s:
            l1.on_complete = None
        self.cores = []
        self.l1s = []
        self.directories = []
        self.mcs = {}
        self._work = []

    def result(self) -> ChipResult:
        """Summarize the run (execution time, NoC and cache statistics)."""
        stats = self.network.stats
        mem_ops = sum(c.mem_ops for c in self.cores)
        misses = sum(c.misses for c in self.cores)
        cycles = self.network.cycle
        return ChipResult(
            benchmark=self.benchmark,
            scheme=self.network.policy.name,
            execution_time=self.execution_time or cycles,
            avg_packet_latency=stats.avg_packet_latency,
            avg_total_latency=stats.avg_total_latency,
            avg_blocked_routers=stats.avg_blocked_routers,
            avg_wakeup_wait=stats.avg_wakeup_wait,
            injection_rate=(
                stats.injected_flits / (cycles * self.config.num_nodes)
                if cycles
                else 0.0
            ),
            l1_miss_rate=misses / mem_ops if mem_ops else 0.0,
            packets=stats.delivered,
            cycles=cycles,
        )

    # ------------------------------------------------------------------
    def _dump_stall_state(self) -> None:  # pragma: no cover - debug aid
        stuck = [
            (c.node, c._waiting_on, self.l1s[c.node].mshrs.get(c._waiting_on))
            for c in self.cores
            if c.is_stalled
        ]
        print(f"[chip] stuck cores: {stuck[:8]} (of {len(stuck)})")
        busy = [
            (d.node, b, e.pending, len(e.waiting))
            for d in self.directories
            for b, e in d.iter_entries()
            if e.busy
        ]
        print(f"[chip] busy directory entries: {busy[:8]} (of {len(busy)})")
