"""Structure-of-arrays cycle kernel (``NoCConfig.kernel == "vector"``).

The object kernels (``active``/``naive``) walk routers, VCs and
controllers pointer-by-pointer every cycle.  This module mirrors the
entire per-cycle hot state of the mesh into flat numpy arrays indexed
by ``(router, port, vc)`` and advances a whole cycle with masked
whole-mesh array operations:

* flit occupancy, ring-buffered slot contents and arrival cycles,
* credit counters and downstream-VC ownership,
* VC allocator state (``IDLE``/``WAIT_VA``/``ACTIVE`` codes, routes,
  eligibility cycles) and every round-robin arbitration pointer,
* punch-slack bookkeeping and the PG-controller FSMs (via
  :class:`repro.powergate.bank.ControllerArrayBank`).

The engine is **cycle-exact** against the object kernels: every
arbitration order, event-queue ordering and counter update replicates
the reference semantics (the equivalence arguments live next to each
phase below).  Network interfaces and the punch fabric stay
object-based — their per-cycle work is proportional to *activity*, not
mesh size, and both are shared verbatim with the object kernels, which
keeps the wakeup/forewarning timing identical by construction.

Flat indexing: with ``V = config.num_vcs`` VCs per port and ``P =
topology.num_ports`` ports per router (5 on the mesh), input VC
``(router r, port p, vc v)`` lives at flat index ``f = (r * P + p) * V
+ v``; output VC ``(r, p, v)`` uses the same formula on the
output side (``credits_out`` / ``owner_out``).  Port codes are the
:class:`~repro.noc.topology.Direction` values (LOCAL=0), contiguous
``0..P-1`` by the topology port-model contract.  Routing uses the XY
closed forms over node ids.

Engagement: :func:`try_engage` builds the engine **from live state** at
any step boundary (the importer in ``VectorEngine._import`` is the
inverse of :meth:`VectorEngine.materialize`), and only for
configurations it covers exactly — no fault injector, an empty
dead-router set and a whitelisted power policy; a per-flit subscriber
(``Network.subscribe``) never lets it be asked.
``Network`` decides *when*: ``kernel="vector"`` engages at the first
step, the default ``kernel="auto"`` engages when the active set is
dense and materializes back when it thins (see ``Network._select_engine``).
Anything the engine does not cover (including faults or a per-flit
subscriber added mid-run, which trigger :meth:`VectorEngine.materialize`) runs on the active
kernel, which is cycle-exact by construction.

The engine keeps a registry of every packet it has carried (flat
"entity ids" backing the destination/size/hops arrays); for the
bounded benchmark and test workloads this is a few MB at most.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional

try:  # numpy backs the vector kernel only
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is a declared dependency
    _np = None

from .buffers import VC_STATE_CODES, VC_STATE_FROM_CODE, VCState
from .errors import BufferOverflowError, SimulationError
from .packet import Flit, meet_powered_off
from .topology import Direction

# ----------------------------------------------------------------------
# Vectorized XY (closed forms over node-id arrays)
# ----------------------------------------------------------------------
# The vector kernel's RC stage routes whole batches of head flits at
# once.  XY on a row-major mesh has closed forms for all three lookups
# the object layer walks pointer-by-pointer, so no N^2 tables are
# needed: each helper is a handful of whole-array ops.  All of them are
# exact mirrors of the scalar code in ``routing.py`` (x resolved first,
# then y).

def xy_direction_codes(current, destination, width: int):
    """Vector :meth:`XYRouting.output_direction`: int8 Direction values."""
    cx = current % width
    cy = current // width
    dx = destination % width
    dy = destination // width
    out = _np.where(
        cx < dx,
        int(Direction.XPOS),
        _np.where(
            cx > dx,
            int(Direction.XNEG),
            _np.where(
                cy < dy,
                int(Direction.YPOS),
                _np.where(cy > dy, int(Direction.YNEG), int(Direction.LOCAL)),
            ),
        ),
    )
    return out.astype(_np.int8)


def xy_next_hops(current, destination, width: int):
    """Vector :meth:`XYRouting.next_hop` (callers guarantee cur != dest)."""
    cx = current % width
    cy = current // width
    dx = destination % width
    dy = destination // width
    step = _np.where(
        cx < dx, 1, _np.where(cx > dx, -1, _np.where(cy < dy, width, -width))
    )
    return current + step


def xy_routers_ahead(current, destination, hops: int, width: int):
    """Vector :meth:`XYRouting.router_ahead`.

    The scalar walk moves min(\\|dx\\|, hops) steps in x, then whatever
    budget remains in y, stopping at the destination — the closed form
    below is exactly that.
    """
    cx = current % width
    cy = current // width
    dx = destination % width
    dy = destination // width
    steps_x = _np.minimum(_np.abs(dx - cx), hops)
    nx = cx + _np.sign(dx - cx) * steps_x
    steps_y = _np.minimum(_np.abs(dy - cy), hops - steps_x)
    ny = cy + _np.sign(dy - cy) * steps_y
    return ny * width + nx


def _opposite_codes(num_ports: int):
    """Opposite-direction lookup by Direction code (``LOCAL`` maps to
    itself); valid for any contiguous ``0..P-1`` port model."""
    return [int(Direction(p).opposite) for p in range(num_ports)]


def _group_bounds(keys):
    """Start indices and run lengths of the equal-key runs in a sorted
    1-D array.

    This replaces ``np.unique(keys, return_index=True,
    return_counts=True)`` on the per-cycle hot path: the callers'
    keys are already sorted, so group boundaries are just neighbour
    inequalities, and the ``out=`` forms dodge the allocation-heavy
    ``np.r_``/``np.diff`` conveniences (~20 microseconds each, several
    calls per cycle).
    """
    mask = _np.empty(keys.size, dtype=_np.bool_)
    mask[0] = True
    _np.not_equal(keys[1:], keys[:-1], out=mask[1:])
    start = _np.flatnonzero(mask)
    cnt = _np.empty(start.size, dtype=start.dtype)
    _np.subtract(start[1:], start[:-1], out=cnt[:-1])
    cnt[-1] = keys.size - start[-1]
    return start, cnt


# ----------------------------------------------------------------------
# The object/array seam
# ----------------------------------------------------------------------
# ``VectorEngine._import`` and ``materialize`` are loops over the two
# tables below, read in opposite directions; ``__init__`` allocates from
# the first.  Conversions take the engine first (a VC's owner is a packet
# id on the object side, a registry index in the arrays).

def _as_is(eng, value, *_router):
    return value


def _only(eng, row, *_router):
    return row[0]


def _optional(kind=int):
    """Conversions of an optional small int: ``None`` is -1 in the array."""
    return (
        lambda eng, value: -1 if value is None else int(value),
        lambda eng, code: None if code < 0 else kind(code),
    )


#: Allocation state of a live (non-``IDLE``) input VC, one row per
#: field: engine array, ``VirtualChannel`` attribute, dtype, value of an
#: ``IDLE`` VC, to-array, to-object.
VC_FIELDS = (
    ("state", "state", "int8", 0,
     lambda eng, state: VC_STATE_CODES[state], lambda eng, code: VC_STATE_FROM_CODE[code]),
    ("route", "route", "int8", -1, *_optional(Direction)),
    ("out_vc", "out_vc", "int64", -1, *_optional()),
    ("owner_eid", "owner_packet", "int64", -1,
     lambda eng, pid: eng._pid_eid[pid], lambda eng, eid: eng.packets[eid].packet_id),
    ("va_el", "va_eligible_at", "int64", 0, _as_is, _as_is),
    ("sa_el", "sa_eligible_at", "int64", 0, _as_is, _as_is),
)
#: The other ``VirtualChannel`` slots: flits cross slot by slot through
#: the ring buffers; position and depth are the flat index and ``depth_flat``.
VC_FIELDS_ELSEWHERE = ("flits", "arrivals", "port_direction", "vc_index", "depth")

#: Output-side state, one engine array per row: which of the router's
#: port maps (built in port-code order) holds the field, under what
#: attribute, and the conversions of one port's value, which also get
#: the router id.  ``credits`` and ``owner`` are lists, one entry per
#: downstream VC — an owner is ``(direction, vc)`` of an input VC of the
#: same router, its flat index in the array; the rest are one pointer.
PORT_FIELDS = (
    ("credits_out", "output_ports", "credits", _as_is, _as_is),
    ("owner_out", "output_ports", "owner",
     lambda eng, owners, router: [-1 if o is None else eng._flat(router, *o) for o in owners],
     lambda eng, flats, router: [None if f < 0 else eng._unflat(f)[1:] for f in flats]),
    ("out_vc_rr", "output_ports", "vc_rr_pointer", _as_is, _only),
    ("sa_rr_in", "input_ports", "sa_rr_pointer", _as_is, _only),
    ("sa_rr_out", "output_ports", "sa_rr_pointer", _as_is, _only),
)


def try_engage(net) -> Optional["VectorEngine"]:
    """Build a :class:`VectorEngine` from ``net``'s live state if the
    configuration qualifies.

    Returns ``None`` unless every covered-configuration condition
    holds.  All of them are permanent properties of a network (faults
    are never uninstalled, the policy and topology never change), so a
    ``None`` is final: the caller stops asking.
    """
    if _np is None:
        return None
    if net.faults is not None:
        return None
    if net.dead_routers or getattr(net.routing, "dead", None):
        return None
    from ..core import schemes
    from .policy import PowerPolicy

    ptype = type(net.policy)
    if ptype in (PowerPolicy, schemes.NoPG):
        gated = False
    elif ptype in (
        schemes.ConvOptPG,
        schemes.PowerPunchSignal,
        schemes.PowerPunchPG,
    ):
        gated = True
    else:
        # Unknown subclass: its hooks may read controller objects the
        # engine keeps stale mid-run.
        return None
    return VectorEngine(net, gated)


def _static_tables(net):
    """Per-network constants of the flat layout, built at the first
    engagement and kept on the network for later ones: per-VC buffer
    depths and the neighbor table.
    """
    if net._vector_static is not None:
        return net._vector_static
    cfg = net.config
    R = cfg.num_nodes
    P = net.topology.num_ports
    depths = cfg.depths_by_vc()
    depth_flat = _np.array(
        [depths[v] for v in range(cfg.num_vcs)] * (R * P), dtype=_np.int64
    )
    conn = _np.full(R * P, -1, dtype=_np.int64)
    for router in net.routers:
        base = router.router_id * P
        for d, nb in router.connected.items():
            if nb is not None:
                conn[base + int(d)] = nb
    net._vector_static = (depth_flat, conn)
    return net._vector_static


class VectorEngine:
    """One engaged vector kernel instance for one network."""

    def __init__(self, net, gated: bool) -> None:
        from ..powergate.bank import ControllerArrayBank

        self.net = net
        cfg = net.config
        self.R = R = cfg.num_nodes
        self.V = V = cfg.num_vcs
        self.per = cfg.vcs_per_vnet
        self.width = cfg.width
        self.P = P = net.topology.num_ports
        self._pv = P * V
        S = R * P * V
        self._stage_gate = cfg.router_stages - 2
        self._sa_delta = 1 if cfg.router_stages == 4 else 0
        self.OPP = _np.array(_opposite_codes(P), dtype=_np.int64)
        self.depth_flat, self.connected_flat = _static_tables(net)
        self.D = D = int(self.depth_flat[:V].max())

        # --- input VC state (flat, one entry per (router, port, vc)) ---
        self.occ = _np.zeros(S, dtype=_np.int64)
        for array, _attr, dtype, idle, _to_array, _to_object in VC_FIELDS:
            setattr(self, array, _np.full(S, idle, dtype=dtype))
        #: ``_occupied`` insertion order: assigned from a global counter
        #: on every 0 -> 1 occupancy transition, in event order.
        self.seq = _np.zeros(S, dtype=_np.int64)
        self.next_seq = 0
        # Ring buffers: slot contents as (packet entity id, flit index,
        # arrival cycle), head pointer per VC.
        self.h = _np.zeros(S, dtype=_np.int64)
        self.buf_eid = _np.zeros((S, D), dtype=_np.int64)
        self.buf_idx = _np.zeros((S, D), dtype=_np.int64)
        self.buf_arr = _np.zeros((S, D), dtype=_np.int64)
        self.buffered_total = 0

        #: Flit counts per (router, out direction); folded into the
        #: network's ``link_counts`` dicts on read / materialize.
        self.lc_flat = _np.zeros(R * P, dtype=_np.int64)
        self.router_occ = _np.zeros(R, dtype=_np.int64)

        # --- packet registry -----------------------------------------
        self.packets: List = []
        self._pid_eid: Dict[int, int] = {}
        cap = 1024
        self.pkt_dest = _np.zeros(cap, dtype=_np.int64)
        self.pkt_nflits = _np.zeros(cap, dtype=_np.int64)
        self.pkt_hops = _np.zeros(cap, dtype=_np.int64)

        # --- event queues (cycle -> list of chunks, see _event_queues) -
        #: ``(f, eid, idx)``: arrays (a whole SA round, list order =
        #: emission order) or python ints (one NI send).
        self._flit_ev: Dict[int, list] = {}
        #: Int arrays of ``_credit_code`` values.
        self._credit_ev: Dict[int, list] = {}
        #: ``(router, eid, idx)`` array triples.
        self._eject_ev: Dict[int, list] = {}

        self._import()

        # --- power-gating substrate ----------------------------------
        self.scheme = net.policy if gated else None
        if gated:
            sch = net.policy
            # Parked and lazily-accounted controllers are settled by the
            # snapshot, so the bank starts from what per-cycle stepping
            # through the previous cycle would have left.
            self.bank = ControllerArrayBank(sch._controllers)
            sch._vector_bank = self.bank
            sch._bank_dirty = False
            self._wants = _np.zeros(R, dtype=bool)
            #: Routers punched during one phase, flushed in a single
            #: ``request_batch`` (per-node requests commute).
            self._punch_sink = []
            # --- punch wavefront as encoded pair arrays --------------
            # A queued (router, target) pair is the key ``r * R + t``;
            # ``_pend_writes`` collects this cycle's relay/send arrays
            # and the next ``_deliver_punches`` merges them with one
            # ``np.unique`` — the array twin of the fabric's
            # dict-of-frozensets merge (which costs ~40% of a PG run in
            # hashing and route-cache misses).
            self._pend_writes = []
            # The wavefront queued through the object fabric last cycle.
            for router, targets in sch.fabric._pending.items():
                self._pend_writes.append(
                    router * R
                    + _np.fromiter(targets, dtype=_np.int64, count=len(targets))
                )
            sch.fabric._pending.clear()
        else:
            self.bank = None

        # --- NI wiring and the cycle ---------------------------------
        for ni in net.interfaces:
            ni._send_flit = self._ni_send
            ni._vc_probe = self._probe_local_vc
        net.phases = self._cycle_phases()

    def _import(self) -> None:
        """Move the object model's live datapath state into the arrays
        — the inverse of :meth:`materialize`; both read the seam tables
        at the top of this module.

        Buffered flits, VC allocations and the three in-flight event
        queues are *moved*: the objects are left empty, so
        ``materialize`` can write back without first clearing them.
        Output-side state (credits, owners, round-robin pointers) and
        ``incoming_in_flight`` are copied; ``materialize`` overwrites
        every one of them.
        """
        net = self.net
        register = self._register
        for array, ports, attr, to_array, _to_object in PORT_FIELDS:
            # ``ravel`` lays (router, port[, vc]) out in flat-index order.
            per_port = [
                to_array(self, getattr(port, attr), router.router_id)
                for router in net.routers
                for port in getattr(router, ports).values()
            ]
            setattr(self, array, _np.array(per_port, dtype=_np.int64).ravel())
        seq = 0
        for router in net.routers:
            # Buffers in ``_occupied`` order: only the order *within* a
            # router is ever compared (every sort keys on a per-router
            # port first), so a per-router walk reproduces it.
            for vc in router._occupied:
                f = self._flat(router.router_id, vc.port_direction, vc.vc_index)
                self.seq[f] = seq
                seq += 1
                for j, flit in enumerate(vc.flits):
                    self.buf_eid[f, j] = register(flit.packet)
                    self.buf_idx[f, j] = flit.index
                    self.buf_arr[f, j] = vc.arrivals[j]
                self.occ[f] = len(vc.flits)
                self.router_occ[router.router_id] += len(vc.flits)
                vc.flits.clear()
                vc.arrivals.clear()
            router._occupied.clear()
        self.next_seq = seq
        self.buffered_total = int(self.router_occ.sum())
        self.incoming = _np.array(
            [router.incoming_in_flight for router in net.routers], dtype=_np.int64
        )
        net._active_routers.clear()

        # In-flight events: one cycle's object list becomes one chunk
        # in the same order (all its flits target distinct VCs and all
        # its credits distinct output VCs — they are at most one SA
        # round plus one NI pass).
        for engine_queue, object_queue, encode, _decode in self._event_queues():
            for c, events in object_queue.items():
                if events:
                    engine_queue[c] = [encode(events)]
            object_queue.clear()

        # Allocation state, including drained-but-owned ACTIVE VCs.  The
        # owner of such a VC may have no flit buffered or in flight
        # anywhere (the rest of the stream still sits in its source
        # NI), so streaming packets are registered too.
        for node in net.active_nis:
            for stream in net.interfaces[node].streams.values():
                register(stream.packet)
        for router in net.routers:
            if not router._live_vcs:
                continue
            for port in router.input_ports.values():
                for vc in port.vcs:
                    if vc.state is VCState.IDLE:
                        continue
                    f = self._flat(router.router_id, vc.port_direction, vc.vc_index)
                    for array, attr, _dtype, _idle, to_array, _to_object in VC_FIELDS:
                        getattr(self, array)[f] = to_array(self, getattr(vc, attr))
                    vc.reset_for_next_packet()

    # ==================================================================
    # The flat index and the event-queue encodings, each direction once
    # ==================================================================
    def _flat(self, router: int, direction: int, vc: int) -> int:
        """Flat index of input (or output) VC ``(router, direction, vc)``."""
        return (router * self.P + direction) * self.V + vc

    def _unflat(self, f: int):
        """``(router, Direction, vc)`` of a flat VC index."""
        return f // self._pv, Direction((f // self.V) % self.P), f % self.V

    def _pack(self, events, code):
        """One cycle's ``(*where, flit)`` events as one array chunk:
        ``code(*where)``, the packet's registry id, the flit's index."""
        return (
            _np.array([code(*event[:-1]) for event in events]),
            _np.array([self._register(event[-1].packet) for event in events]),
            _np.array([event[-1].index for event in events]),
        )

    def _unpack(self, chunk, where):
        """``(*where(code), Flit)`` events of a chunk (arrays, or the
        python ints of one NI send)."""
        codes, eids, idxs = (
            part.tolist() if isinstance(part, _np.ndarray) else (part,) for part in chunk
        )
        packets = self.packets
        return [(*where(c), Flit(packets[e], i)) for c, e, i in zip(codes, eids, idxs)]

    def _credit_code(self, router: int, direction, vc: int) -> int:
        """An object credit event names an NI as a negative router id;
        its code is a flat output-VC index, or ``-(node * V + vc) - 1``."""
        if router >= 0:
            return self._flat(router, direction, vc)
        return -((-router - 1) * self.V + vc) - 1

    def _credit_event(self, code: int):
        if code >= 0:
            return self._unflat(code)
        node, vc = divmod(-code - 1, self.V)
        return -node - 1, Direction.LOCAL, vc

    def _event_queues(self):
        """The three in-flight event queues: (engine queue, network
        queue, one cycle's object events -> one chunk, one chunk ->
        object events).  List order on either side is delivery order."""
        net = self.net
        return (
            (self._flit_ev, net._flit_events,
             partial(self._pack, code=self._flat), partial(self._unpack, where=self._unflat)),
            (self._credit_ev, net._credit_events,
             lambda events: _np.array([self._credit_code(*event) for event in events]),
             lambda chunk: [self._credit_event(code) for code in chunk.tolist()]),
            (self._eject_ev, net._eject_events,
             partial(self._pack, code=int), partial(self._unpack, where=lambda node: (node,))),
        )

    # ==================================================================
    # NI-facing hooks (object NIs drive the SoA mirror directly)
    # ==================================================================
    def _register(self, packet) -> int:
        """Entity id for ``packet``, allocating arrays as needed."""
        pid = packet.packet_id
        eid = self._pid_eid.get(pid)
        if eid is not None:
            return eid
        eid = len(self.packets)
        self.packets.append(packet)
        if eid >= self.pkt_dest.size:
            grow = self.pkt_dest.size * 2
            self.pkt_dest = _np.resize(self.pkt_dest, grow)
            self.pkt_nflits = _np.resize(self.pkt_nflits, grow)
            self.pkt_hops = _np.resize(self.pkt_hops, grow)
        self.pkt_dest[eid] = packet.destination
        self.pkt_nflits[eid] = packet.size_flits
        self.pkt_hops[eid] = packet.hops_taken
        self._pid_eid[pid] = eid
        return eid

    def _ni_send(self, node: int, vc: int, flit, cycle: int) -> None:
        """Replaces ``Network._ni_send`` while engaged."""
        eid = self._register(flit.packet)
        self.incoming[node] += 1
        self._flit_ev.setdefault(cycle + 1, []).append(
            (node * self._pv + vc, eid, flit.index)
        )

    def _probe_local_vc(self, ni, vnet):
        """Replaces ``NetworkInterface._free_local_vc``'s port scan."""
        base = ni.node * self._pv
        occ = self.occ
        state = self.state
        streams = ni.streams
        for vc in self.net.config.vcs_of_vnet(vnet):
            if vc in streams:
                continue
            f = base + vc
            if occ[f] == 0 and state[f] == 0:
                return vc
        return None

    # ==================================================================
    # The cycle (installed as ``net.phases`` while engaged)
    # ==================================================================
    def _cycle_phases(self):
        """The engine's cycle, in ``Network._cycle_phases``' order: the
        NI phase and the cycle close are the object kernel's own, and
        the power-gating phases are in the table only for a gated scheme."""
        net = self.net
        if self.bank is None:
            return (self._deliver, self._credits, net._step_interfaces, self._va, self._sa,
                    self._census, net._close_cycle)
        return (self._deliver, self._credits, self._pg_begin, net._step_interfaces, self._va,
                self._sa, self._pg_end, self._census, net._close_cycle)

    def _census(self, cycle: int) -> None:
        """The engine-selection quantity (``Network._select_engine``):
        routers holding flits, the twin of ``len(active_routers)``."""
        self.net._occupied_sum += int(_np.count_nonzero(self.router_occ))

    # ------------------------------------------------------------------
    # Phase 1: link arrivals and ejections
    # ------------------------------------------------------------------
    def _deliver(self, cycle: int) -> None:
        ev = self._flit_ev.pop(cycle, None)
        if ev:
            # List order is the reference event order (the SA chunk was
            # appended at T-3, NI singles at T-1, matching the object
            # kernel's chronological appends) — occupancy sequence
            # numbers are assigned in exactly this order.  Consecutive
            # NI singles are batched into one chunk push: they always
            # hit distinct VCs (each NI sends at most one flit per
            # cycle, onto its own node's LOCAL port) and a chunk
            # assigns sequence numbers in array order, so batching
            # preserves the event order exactly.
            run = []
            for entry in ev:
                if isinstance(entry[0], _np.ndarray):
                    if run:
                        self._flush_singles(run, cycle)
                        run = []
                    self._push_chunk(*entry, cycle)
                else:
                    run.append(entry)
            if run:
                self._flush_singles(run, cycle)
        ej = self._eject_ev.pop(cycle, None)
        if ej:
            eject = self.net._eject
            packets = self.packets
            for nodes, eids, idxs in ej:
                # Non-tail ejections are no-ops in the object kernel
                # (``eject_flit`` only acts on tails, and nothing
                # subscribes to ``ejected`` while engaged).
                tails = idxs == (self.pkt_nflits[eids] - 1)
                if not tails.any():
                    continue
                for node, eid, idx in zip(
                    nodes[tails].tolist(),
                    eids[tails].tolist(),
                    idxs[tails].tolist(),
                ):
                    packet = packets[eid]
                    packet.hops_taken = int(self.pkt_hops[eid])
                    eject(node, Flit(packet, idx), cycle)

    def _push_chunk(self, fs, eids, idxs, cycle: int) -> None:
        """Buffer one SA round's arrivals (flat VC indices are unique:
        at most one flit lands per VC per cycle under credit flow
        control, and router-to-router arrivals never share a VC with
        the NI singles, which target LOCAL ports)."""
        occ = self.occ
        o = occ[fs]
        if _np.any(o >= self.depth_flat[fs]):
            self._overflow(fs, o, eids, cycle)
        slot = (self.h[fs] + o) % self.D
        self.buf_eid[fs, slot] = eids
        self.buf_idx[fs, slot] = idxs
        self.buf_arr[fs, slot] = cycle
        occ[fs] = o + 1
        self.buffered_total += fs.size
        r = fs // self._pv
        _np.add.at(self.router_occ, r, 1)
        _np.add.at(self.incoming, r, -1)
        was_empty = o == 0
        if was_empty.any():
            ne = fs[was_empty]
            k = ne.size
            self.seq[ne] = _np.arange(self.next_seq, self.next_seq + k)
            self.next_seq += k
            e_idx = idxs[was_empty]
            heads = e_idx == 0
            if heads.any():
                nh = ne[heads]
                he = eids[was_empty][heads]
                self.state[nh] = 1
                self.owner_eid[nh] = he
                self.out_vc[nh] = -1
                self.va_el[nh] = cycle + 1
                self.route[nh] = xy_direction_codes(
                    nh // self._pv, self.pkt_dest[he], self.width
                )
            # A body flit landing in a drained-but-owned ACTIVE VC needs
            # nothing here: every allocator round runs, on both kernels.

    def _flush_singles(self, run, cycle: int) -> None:
        """Batch a run of NI-injected ``(f, eid, idx)`` flits (distinct
        LOCAL-port VCs) into one chunk push (route codes are identical:
        engagement precludes dead routers, so ``output_direction`` is
        the static XY relation)."""
        self._push_chunk(
            *(_np.array(part, dtype=_np.int64) for part in zip(*run)), cycle
        )

    def _overflow(self, fs, o, eids, cycle: int) -> None:
        """Raise the reference overflow error for the first offender."""
        bad = int(fs[_np.argmax(o >= self.depth_flat[fs])])
        _router, port, vc = self._unflat(bad)
        raise BufferOverflowError(
            f"VC overflow: {int(self.occ[bad])}/{int(self.depth_flat[bad])} "
            "flits buffered, credit flow control violated",
            cycle=cycle,
            port=port,
            vc=vc,
            packet=self.packets[int(eids[0])].packet_id,
        )

    # ------------------------------------------------------------------
    # Phase 2: credits
    # ------------------------------------------------------------------
    def _credits(self, cycle: int) -> None:
        ev = self._credit_ev.pop(cycle, None)
        if not ev:
            return
        interfaces = self.net.interfaces
        V = self.V
        for enc in ev:
            pos = enc[enc >= 0]
            if pos.size:
                # One departure per input VC per cycle and a bijection
                # from input VCs to upstream output VCs: indices are
                # unique, a fancy-indexed add is exact.
                self.credits_out[pos] += 1
            neg = enc[enc < 0]
            if neg.size:
                for v in (-neg - 1).tolist():
                    interfaces[v // V].credit_from_router(v % V)

    # ------------------------------------------------------------------
    # Phase 3: power-gating begin (punch delivery + controller FSMs)
    # ------------------------------------------------------------------
    def _flush_sink(self, cycle: int) -> None:
        """Deliver the phase's collected punch wakeups in one
        ``request_batch`` (full sleep-cancel semantics, deduplicated —
        repeated same-node requests collapse to one, exactly like the
        scalar sequence where the second call sees the updated state)."""
        sink = self._punch_sink
        if sink:
            self.bank.request_batch(
                _np.unique(_np.asarray(sink, dtype=_np.int64)),
                cycle,
                self.scheme.expectation_window,
                True,
            )
            sink.clear()

    def _relay_pairs(self, key, cycle: int) -> None:
        """Process one pass's unique (router, target) pair keys: drop
        local deliveries, count one link transmission per distinct
        (router, next-hop) relay group, and queue relays one hop out —
        the batched body shared by ``PunchFabric.deliver`` /
        ``send_local`` twins (counter-exact because pair keys within a
        pass are unique, mirroring the per-call frozensets)."""
        R = self.R
        fab = self.scheme.fabric
        r_arr = key // R
        t_arr = key - r_arr * R
        selfhit = t_arr == r_arr
        if selfhit.any():
            rel = ~selfhit
            r_arr = r_arr[rel]
            t_arr = t_arr[rel]
        if r_arr.size:
            nx = xy_next_hops(r_arr, t_arr, self.width)
            fab.link_transmissions += int(_np.unique(r_arr * R + nx).size)
            self._pend_writes.append(nx * R + t_arr)

    def _deliver_punches(self, cycle: int) -> None:
        """Batched twin of ``PunchFabric.deliver``: merge the queued
        relay arrays (one ``np.unique`` replaces the per-router
        dict-of-sets merge), process every pair, and flush one
        ``request_batch`` for the punched routers."""
        w = self._pend_writes
        if not w:
            return
        key = _np.unique(w[0] if len(w) == 1 else _np.concatenate(w))
        w.clear()
        self._relay_pairs(key, cycle)
        # ``key`` is sorted, so the punched routers (one ``on_punch``
        # per pending router in the dict fabric) are the group firsts.
        r_all = key // self.R
        start, _ = _group_bounds(r_all)
        self.bank.request_batch(
            r_all[start], cycle, self.scheme.expectation_window, True
        )

    def _pg_begin(self, cycle: int) -> None:
        """Batched twin of ``PowerGatedScheme.begin_cycle``.

        The object kernel interleaves per-node ``request_wakeup`` /
        ``step`` calls; batching is exact because controllers are
        independent and, within one phase, per-node request order is
        commutative (``wu_seen`` sticky, ``expect_until`` a max, the
        OFF->WAKING transition idempotent).  Begin-phase requests can
        never hit the same-cycle sleep-cancel edge: a sleep decided at
        step ``c`` sets ``last_sleep = c + 1`` and every begin-phase
        request arrives at ``c + 1`` or later.
        """
        bank = self.bank
        sch = self.scheme
        # Punch wavefront: batched matrix delivery, wakeups flushed in
        # one ``request_batch`` before anything below reads the bank.
        self._deliver_punches(cycle)
        if sch._slack2_hold:
            for node in sch._slack2_held(cycle):
                bank.request_scalar(node, cycle, 0)
        wants = self._wants
        wants[:] = False
        nodes = []
        interfaces = self.net.interfaces
        for node in sorted(self.net.active_nis):
            if interfaces[node].wants_local_router(cycle):
                wants[node] = True
                nodes.append(node)
        if nodes:
            bank.request_batch(
                _np.asarray(nodes, dtype=_np.int64), cycle, 0, False
            )
        # ``datapath_empty`` twin: buffers empty, nothing in flight,
        # and no input VC holding a live allocation (a drained
        # mid-packet stream must keep its router powered — its stalled
        # body/tail flits assert no punch wires of their own).
        empty = (
            (self.router_occ == 0)
            & (self.incoming == 0)
            & (self.state.reshape(self.R, self._pv).max(axis=1) == 0)
        )
        bank.step_all(cycle, empty, wants)
        sch._bank_dirty = True

    # ------------------------------------------------------------------
    # Phase 4: VC allocation
    # ------------------------------------------------------------------
    def _va(self, cycle: int) -> None:
        """Whole-mesh VA round.

        The object kernel scans ``_occupied`` in insertion (``seq``)
        order; grants interact only through their output *port* (shared
        ``owner``/``vc_rr_pointer``), so ports with a single candidate
        are granted with array ops and only ports contended by several
        candidates fall back to a scalar loop in ``seq`` order.
        """
        if not self.buffered_total:
            return
        cand = _np.where((self.state == 1) & (self.va_el <= cycle))[0]
        if cand.size == 0:
            return
        if cand.size == 1:
            f = int(cand[0])
            self._va_grant_one(
                f, (f // self._pv) * self.P + int(self.route[f]), cycle
            )
            return
        okey = (cand // self._pv) * self.P + self.route[cand]
        # One lexsort = the reference's seq-order scan stably regrouped
        # by output port (okey primary, seq secondary).
        osort = _np.lexsort((self.seq[cand], okey))
        cs = cand[osort]
        ks = okey[osort]
        # Group boundaries on the sorted keys (np.unique would re-sort).
        start, cnt = _group_bounds(ks)
        singles = cnt == 1
        if singles.any():
            first = start[singles]
            self._va_grant_vec(cs[first], ks[first], cycle)
        if not singles.all():
            for kidx in _np.flatnonzero(~singles).tolist():
                s = int(start[kidx])
                k = int(ks[s])
                for f in cs[s : s + int(cnt[kidx])].tolist():
                    self._va_grant_one(f, k, cycle)

    def _va_grant_vec(self, fs, ks, cycle: int) -> None:
        """Probe/grant for unique-output-port candidates (vectorized
        twin of ``OutputPort.free_vc_in`` + the grant effects)."""
        per = self.per
        V = self.V
        vstart = ((fs % V) // per) * per
        rr = self.out_vc_rr[ks]
        chosen = _np.full(fs.size, -1, dtype=_np.int64)
        for i in range(per):
            vci = vstart + (rr + i) % per
            pick = (chosen < 0) & (self.owner_out[ks * V + vci] < 0)
            if pick.any():
                chosen[pick] = vci[pick]
        g = chosen >= 0
        if not g.any():
            return
        fg = fs[g]
        kg = ks[g]
        vg = chosen[g]
        self.owner_out[kg * V + vg] = fg
        self.out_vc_rr[kg] = (vg + 1) % V
        self.out_vc[fg] = vg
        self.state[fg] = 2
        self.sa_el[fg] = cycle + self._sa_delta

    def _va_grant_one(self, f: int, k: int, cycle: int) -> None:
        per = self.per
        V = self.V
        vstart = ((f % V) // per) * per
        rr = int(self.out_vc_rr[k])
        for i in range(per):
            vci = vstart + (rr + i) % per
            if self.owner_out[k * V + vci] < 0:
                self.owner_out[k * V + vci] = f
                self.out_vc_rr[k] = (vci + 1) % V
                self.out_vc[f] = vci
                self.state[f] = 2
                self.sa_el[f] = cycle + self._sa_delta
                return

    # ------------------------------------------------------------------
    # Phase 5: switch allocation + traversal
    # ------------------------------------------------------------------
    def _sa(self, cycle: int) -> None:
        """Whole-mesh SA round: readiness masks, the two round-robin
        arbitration stages as grouped array ops, then a batched commit.
        """
        if not self.buffered_total:
            return
        occ = self.occ
        act = _np.where((self.state == 2) & (occ > 0))[0]
        if act.size == 0:
            return
        gate = _np.maximum(
            self.buf_arr[act, self.h[act]] + self._stage_gate, self.sa_el[act]
        )
        act = act[gate <= cycle]
        if act.size == 0:
            return
        rt = self.route[act]
        okey = (act // self._pv) * self.P + rt
        local = rt == 0
        ready = local.copy()
        nonloc = ~local
        if nonloc.any():
            an = act[nonloc]
            kn = okey[nonloc]
            nb = self.connected_flat[kn]
            if self.bank is not None:
                ok_av = self.bank.available_by(cycle + 3)[nb]
                if not ok_av.all():
                    self._note_blocked(an[~ok_av], nb[~ok_av], cycle)
            else:
                ok_av = _np.ones(an.size, dtype=bool)
            has_credit = self.credits_out[kn * self.V + self.out_vc[an]] > 0
            ready[nonloc] = ok_av & has_credit
        rdy = act[ready]
        n = rdy.size
        if n == 0:
            return
        if n == 1:
            # Single ready VC: it nominates and wins unopposed; its
            # port and output pointers advance exactly as the general
            # path would move them.
            f = int(rdy[0])
            self.sa_rr_in[f // self.V] += 1
            g = (f // self._pv) * self.P + int(self.route[f])
            self.sa_rr_out[g] += 1
            self._commit(rdy, _np.array([g], dtype=_np.int64), cycle)
            return
        # Stage 1 — each input port nominates one ready VC.  One
        # lexsort = the reference seq-order scan stably regrouped by
        # input port; group boundaries come from the sorted keys
        # directly (np.unique would re-sort).  The port's RR pointer
        # picks the nomination and every nominating port advances.
        seq = self.seq
        pkey = rdy // self.V
        order = _np.lexsort((seq[rdy], pkey))
        rs = rdy[order]
        pk = pkey[order]
        pstart, pcnt = _group_bounds(pk)
        up = pk[pstart]
        nom = rs[pstart + self.sa_rr_in[up] % pcnt]
        self.sa_rr_in[up] += 1
        # Reference nomination-group order: ports are visited in order
        # of their first ready VC's seq, and each output's contender
        # list inherits that order.
        pf = seq[rs[pstart]]
        if up.size == 1:
            # One nominating port → one output group, granted outright.
            g = (int(nom[0]) // self._pv) * self.P + int(self.route[nom[0]])
            self.sa_rr_out[g] += 1
            self._commit(nom, _np.array([g], dtype=_np.int64), cycle)
            return
        gkey = (nom // self._pv) * self.P + self.route[nom]
        gsort = _np.lexsort((pf, gkey))
        nm = nom[gsort]
        pfs = pf[gsort]
        gs = gkey[gsort]
        gstart, gcnt = _group_bounds(gs)
        ug = gs[gstart]
        # Stage 2 — each output port grants one contender by its RR
        # pointer; only granting outputs advance.
        winners = nm[gstart + self.sa_rr_out[ug] % gcnt]
        self.sa_rr_out[ug] += 1
        # Departure emission order: the object kernel visits routers in
        # ascending id and, within one router, output groups in
        # first-contender order.
        emit = _np.lexsort((pfs[gstart], ug // self.P))
        self._commit(winners[emit], ug[emit], cycle)

    def _note_blocked(self, fs, nbs, cycle: int) -> None:
        """Per-cycle blocked accounting for VCs stalled by a gated
        neighbor (``PowerGatedScheme.note_blocked`` itself is a no-op
        while engaged: the blocking fallback only arms with faults)."""
        packets = self.packets
        subscribers = self.net._subscribers
        eids = self.buf_eid[fs, self.h[fs]]
        routers = fs // self._pv
        for eid, at, nb in zip(eids.tolist(), routers.tolist(), nbs.tolist()):
            meet_powered_off(subscribers, packets[eid], at, nb, True, cycle)

    def _commit(self, W, gk, cycle: int) -> None:
        """Apply every grant's departure effects (batched
        ``Router._commit_departure`` + the network's departure sink)."""
        V = self.V
        hh = self.h[W]
        eids = self.buf_eid[W, hh]
        idxs = self.buf_idx[W, hh]
        self.h[W] = (hh + 1) % self.D
        self.occ[W] -= 1
        self.buffered_total -= W.size
        rw = W // self._pv
        _np.add.at(self.router_occ, rw, -1)
        odir = gk % self.P
        ovc = self.out_vc[W]
        o = gk * V + ovc
        stats = self.net.stats
        stats.router_traversals += int(W.size)
        self.lc_flat[gk] += 1
        # Credit return toward the sender (upstream router output port,
        # or the local NI for LOCAL-port departures).
        in_dir = (W // V) % self.P
        in_vc = W % V
        upstream = self.connected_flat[rw * self.P + in_dir]
        enc = _np.where(
            in_dir == 0,
            -(rw * V + in_vc) - 1,
            (upstream * self.P + self.OPP[in_dir]) * V + in_vc,
        )
        self._credit_ev.setdefault(cycle + 2, []).append(enc)
        nonloc = odir != 0
        if nonloc.any():
            self.credits_out[o[nonloc]] -= 1
            stats.link_traversals += int(nonloc.sum())
            hn = eids[nonloc & (idxs == 0)]
            if hn.size:
                self.pkt_hops[hn] += 1
            nb = self.connected_flat[gk[nonloc]]
            _np.add.at(self.incoming, nb, 1)
            fo = (nb * self.P + self.OPP[odir[nonloc]]) * V + ovc[nonloc]
            self._flit_ev.setdefault(cycle + 3, []).append(
                (fo, eids[nonloc], idxs[nonloc])
            )
        if not nonloc.all():
            loc = ~nonloc
            self._eject_ev.setdefault(cycle + 1, []).append(
                (rw[loc], eids[loc], idxs[loc])
            )
        tails = idxs == (self.pkt_nflits[eids] - 1)
        if tails.any():
            tw = W[tails]
            self.owner_out[o[tails]] = -1
            self.state[tw] = 0
            self.route[tw] = -1
            self.out_vc[tw] = -1
            self.owner_eid[tw] = -1
            # Follow-on packet already buffered behind the departed
            # tail: its head restarts from VA (rare; scalar loop).
            for f in tw[self.occ[tw] > 0].tolist():
                self._activate_follow_on(f, cycle)

    def _activate_follow_on(self, f: int, cycle: int) -> None:
        hh = int(self.h[f])
        eid = int(self.buf_eid[f, hh])
        if int(self.buf_idx[f, hh]) != 0:
            router, port, vc = self._unflat(f)
            raise SimulationError(
                "VC activation without a head flit at the buffer front",
                cycle=cycle, router=router, port=port, vc=vc,
            )
        self.state[f] = 1
        self.owner_eid[f] = eid
        self.out_vc[f] = -1
        # The front flit arrived at or before this cycle, so the
        # reference ``max(cycle + 1, front_arrival + 1)`` is cycle + 1.
        self.va_el[f] = cycle + 1
        self.route[f] = int(
            self.net.routing.output_direction(
                f // self._pv, int(self.pkt_dest[eid])
            )
        )

    # ------------------------------------------------------------------
    # Phase 6: power-gating end (punch generation)
    # ------------------------------------------------------------------
    def _pg_end(self, cycle: int) -> None:
        """Twin of ``PowerGatedScheme.end_cycle``: mesh punches from
        every buffered front head flit (vectorized targeted-router
        computation, per-router delivery in ascending id order exactly
        like the sorted active-set scan), then the sends of the
        scheme's own injection-punch generator (it reads only the NIs,
        which are object-based and shared)."""
        sch = self.scheme
        occ_f = _np.where(self.occ > 0)[0]
        if occ_f.size:
            heads = occ_f[
                (self.buf_idx[occ_f, self.h[occ_f]] == 0)
                & (self.route[occ_f] > 0)
            ]
            if heads.size:
                r = heads // self._pv
                dests = self.pkt_dest[self.buf_eid[heads, self.h[heads]]]
                targets = xy_routers_ahead(r, dests, sch.punch_hops, self.width)
                # One batched pass over every (router, target) punch
                # pair.  Routers are disjoint across the per-router
                # sends this replaces, so the global pair dedup equals
                # the per-call frozenset dedup (two heads at one router
                # can punch the same target), and the punched-router
                # set is the unique ``r`` values.
                key = _np.unique(r * self.R + targets)
                self._relay_pairs(key, cycle)
                r_all = key // self.R
                start, _ = _group_bounds(r_all)
                self._punch_sink.extend(r_all[start].tolist())
        # The injection pass only builds target sets (no bank reads),
        # so its sends batch the same way and its wakeups join the same
        # phase flush.
        interfaces = self.net.interfaces
        working = [interfaces[node] for node in sorted(self.net.active_nis)]
        sends = sch._generate_injection_punches(cycle, working)
        if sends:
            inj_r = [node for node, _targets in sends]
            counts = [len(targets) for _node, targets in sends]
            rs = _np.repeat(_np.asarray(inj_r, dtype=_np.int64), counts)
            ts = _np.fromiter(
                (t for _node, targets in sends for t in targets),
                dtype=_np.int64,
                count=rs.size,
            )
            self._relay_pairs(rs * self.R + ts, cycle)
            self._punch_sink.extend(inj_r)
        self._flush_sink(cycle)

    # ==================================================================
    # Drain / census queries (engine twins of the Network methods)
    # ==================================================================
    def is_drained(self) -> bool:
        net = self.net
        for node in sorted(net.active_nis):
            if net.interfaces[node].pending_packets():
                return False
        net.active_nis.clear()
        if self.buffered_total:
            return False
        if self._flit_ev or self._eject_ev or self._credit_ev:
            return False
        return net.policy.pending_work() == 0

    def in_flight_packets(self) -> int:
        pending = sum(ni.pending_packets() for ni in self.net.interfaces)
        # ``np.size`` of a chunk's first part counts an array's flits and
        # takes the python int of one NI send for one.
        flying = sum(
            _np.size(chunk[0])
            for queue in (self._flit_ev, self._eject_ev)
            for chunks in queue.values()
            for chunk in chunks
        )
        return pending + int(self.buffered_total) + flying

    def occupied_routers(self) -> set:
        """Routers holding flits: ``Network.active_routers`` while engaged."""
        return set(_np.flatnonzero(self.router_occ).tolist())

    def fold_link_counts(self) -> None:
        """Fold the engine's link counters into the network's dicts."""
        lc = self.lc_flat
        if not lc.any():
            return
        counts = self.net._link_counts
        P = self.P
        for k in _np.nonzero(lc)[0].tolist():
            counts[k // P][Direction(k % P)] += int(lc[k])
        lc[:] = 0

    # ==================================================================
    # Disengagement
    # ==================================================================
    def materialize(self) -> None:
        """Write every mirrored field back onto the object model, unhook
        the engine and restore the object kernel's phase table, so the
        active kernel can continue mid-run (e.g. when a fault injector
        or a per-flit subscriber is added).
        """
        net = self.net
        routers = net.routers
        packets = self.packets
        pv = self._pv
        # Buffered flits, in global seq order so each router's
        # ``_occupied`` dict regains the reference insertion order.
        occ_f = _np.where(self.occ > 0)[0]
        occ_f = occ_f[_np.argsort(self.seq[occ_f], kind="stable")]
        for f in occ_f.tolist():
            r, direction, index = self._unflat(f)
            vc = routers[r].input_ports[direction].vcs[index]
            hh = int(self.h[f])
            for j in range(int(self.occ[f])):
                slot = (hh + j) % self.D
                vc.flits.append(
                    Flit(packets[int(self.buf_eid[f, slot])], int(self.buf_idx[f, slot]))
                )
                vc.arrivals.append(int(self.buf_arr[f, slot]))
            routers[r]._occupied[vc] = None
        # Allocation state — includes drained-but-owned ACTIVE VCs,
        # which hold no flits and live outside ``_occupied``.
        for f in _np.where(self.state != 0)[0].tolist():
            r, direction, index = self._unflat(f)
            vc = routers[r].input_ports[direction].vcs[index]
            for array, attr, _dtype, _idle, _to_array, to_object in VC_FIELDS:
                setattr(vc, attr, to_object(self, int(getattr(self, array)[f])))
        for array, ports, attr, _to_array, to_object in PORT_FIELDS:
            rows = iter(getattr(self, array).reshape(self.R * self.P, -1).tolist())
            for router in routers:
                for port in getattr(router, ports).values():
                    setattr(port, attr, to_object(self, next(rows), router.router_id))
        for r, router in enumerate(routers):
            router.incoming_in_flight = int(self.incoming[r])
            router._live_vcs = int(
                _np.count_nonzero(self.state[r * pv : (r + 1) * pv])
            )
        for eid, packet in enumerate(packets):
            packet.hops_taken = int(self.pkt_hops[eid])
        # In-flight events back into the object queues (list order is
        # the delivery order the object kernel will honor).
        for engine_queue, object_queue, _encode, decode in self._event_queues():
            for c, chunks in engine_queue.items():
                for chunk in chunks:
                    object_queue[c].extend(decode(chunk))
            engine_queue.clear()
        net._active_routers.update(self.occupied_routers())
        self.fold_link_counts()
        for ni in net.interfaces:
            ni._send_flit = net._ni_send
            ni._vc_probe = None
        if self.bank is not None:
            sch = self.scheme
            controllers = sch._controllers
            self.bank.flush_into(controllers)
            sch._vector_bank = None
            sch._bank_dirty = False
            # Active-kernel bookkeeping: every non-OFF controller is
            # armed.  ``_armed`` is refilled in place: every
            # controller's ``wake_hook`` is this very set's bound
            # ``add`` (``PowerGatedScheme.attach``), so a rebound set
            # would never hear a controller leave OFF.
            sch._armed.clear()
            sch._armed.update(c.router_id for c in controllers if not c.is_off)
            # In-flight punch wavefronts return to the object fabric's
            # pending dict.
            w = self._pend_writes
            if w:
                pending = sch.fabric._pending
                for key in _np.unique(_np.concatenate(w)).tolist():
                    pending.setdefault(key // self.R, set()).add(key % self.R)
                w.clear()
        net.phases = net._cycle_phases()
        net._engine = None
