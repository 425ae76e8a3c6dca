"""Private L1 cache controller (MESI, directory-based).

Stable states live in the cache (S/E/M); transient states live in
MSHRs.  The directory (home) is mostly blocking, which keeps the race
surface small; the races that remain are handled explicitly:

* ``Inv`` racing our own upgrade (``SM_AD`` -> ``IM_AD``);
* ``Inv`` racing the data of our own ``GetS`` (``IS_D`` -> ``IS_D_I``:
  use the data once, then drop to I);
* a forward arriving while we are still waiting for our own data
  (buffer it, service it on completion — ownership handoff chains);
* a forward racing our writeback (service it from the WB buffer).

Evictions are non-silent (``PutS``/``PutM``) so the directory's sharer
list stays exact.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from .cache import SetAssociativeCache
from .messages import CoherenceMessage, MessageType


class L1Line:
    """One stable L1 line: MESI state letter and data version."""

    __slots__ = ("state", "version")

    def __init__(self, state: str, version: int) -> None:
        self.state = state  # "S", "E" or "M"
        self.version = version


class MSHR:
    """In-flight transaction state (transient MESI states)."""

    __slots__ = (
        "op",
        "state",
        "acks_needed",
        "acks_got",
        "data_version",
        "deferred",
        "issued_at",
    )

    def __init__(
        self,
        op: str,
        state: str,
        acks_needed: Optional[int] = None,
        acks_got: int = 0,
        data_version: Optional[int] = None,
        deferred: Optional[List[CoherenceMessage]] = None,
        issued_at: int = 0,
    ) -> None:
        self.op = op  # "load" or "store"
        self.state = state  # "IS_D", "IS_D_I", "IM_AD", "SM_AD"
        self.acks_needed = acks_needed
        self.acks_got = acks_got
        self.data_version = data_version
        #: Forward received while the transaction was still in flight.
        self.deferred: List[CoherenceMessage] = [] if deferred is None else deferred
        self.issued_at = issued_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"MSHR({fields})"


class WBEntry:
    """Writeback buffer entry holding evicted M data until WbAck."""

    __slots__ = ("version", "forwarded")

    def __init__(self, version: int, forwarded: bool = False) -> None:
        self.version = version
        #: Data already handed to a racing forward; home will see a stale
        #: PutM and must still WB_ACK it.
        self.forwarded = forwarded

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WBEntry(version={self.version!r}, forwarded={self.forwarded!r})"


class L1Controller:
    """One core's private L1 cache + coherence engine."""

    def __init__(
        self,
        node: int,
        home_of: Callable[[int], int],
        send: Callable[[CoherenceMessage, int, int], None],
        size_bytes: int = 32 * 1024,
        ways: int = 2,
        mshr_limit: int = 8,
    ) -> None:
        self.node = node
        self.home_of = home_of
        #: Send callback: (message, destination_node, cycle).
        self._send = send
        self.cache: SetAssociativeCache[L1Line] = SetAssociativeCache(size_bytes, ways)
        self.mshrs: Dict[int, MSHR] = {}
        self.wb_buffers: Dict[int, WBEntry] = {}
        self.mshr_limit = mshr_limit
        #: Completion callback set by the core: (block, cycle).
        self.on_complete: Optional[Callable[[int, int], None]] = None
        # statistics
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations_received = 0

    # ------------------------------------------------------------------
    # Core-facing interface
    # ------------------------------------------------------------------
    def can_accept(self, block: int) -> bool:
        """Whether a new miss to ``block`` may be issued now."""
        if block in self.mshrs or block in self.wb_buffers:
            return False
        return len(self.mshrs) < self.mshr_limit

    def access(self, block: int, is_write: bool, cycle: int) -> bool:
        """Perform a load/store; returns True on hit.

        On a miss the caller must have checked :meth:`can_accept`; the
        request is sent and ``on_complete`` fires when it finishes.
        """
        line = self.cache.lookup(block)
        if line is not None:
            if not is_write:
                self.hits += 1
                return True
            if line.state in ("E", "M"):
                # Silent E->M upgrade.
                line.state = "M"
                line.version += 1
                self.hits += 1
                return True
            # Store to S: upgrade miss.
            self.misses += 1
            self.mshrs[block] = MSHR(op="store", state="SM_AD", issued_at=cycle)
            self._request(MessageType.GETM, block, cycle)
            return False
        self.misses += 1
        if is_write:
            self.mshrs[block] = MSHR(op="store", state="IM_AD", issued_at=cycle)
            self._request(MessageType.GETM, block, cycle)
        else:
            self.mshrs[block] = MSHR(op="load", state="IS_D", issued_at=cycle)
            self._request(MessageType.GETS, block, cycle)
        return False

    def _request(self, mtype: MessageType, block: int, cycle: int) -> None:
        msg = CoherenceMessage(mtype, block, sender=self.node, requester=self.node)
        self._send(msg, self.home_of(block), cycle)

    # ------------------------------------------------------------------
    # Network-facing interface
    # ------------------------------------------------------------------
    def handle(self, msg: CoherenceMessage, cycle: int) -> None:
        """Dispatch one incoming protocol message."""
        self._HANDLERS[msg.mtype](self, msg, cycle)

    # --- data and acks -------------------------------------------------
    def _on_data(self, msg: CoherenceMessage, cycle: int) -> None:
        mshr = self.mshrs[msg.block]
        mshr.data_version = msg.version
        if mshr.state in ("IS_D", "IS_D_I"):
            if mshr.state == "IS_D_I":
                # Invalidation raced our GetS: use the value once.
                self._complete(msg.block, None, cycle)
            else:
                state = "E" if msg.mtype is MessageType.DATA_E else "S"
                self._complete(msg.block, L1Line(state, msg.version), cycle)
            return
        # IM_AD / SM_AD
        mshr.acks_needed = msg.ack_count
        self._maybe_finish_store(msg.block, cycle)

    def _on_ack_count(self, msg: CoherenceMessage, cycle: int) -> None:
        mshr = self.mshrs[msg.block]
        # Upgrade without data: current S copy's version carries over.
        line = self.cache.lookup(msg.block, touch=False)
        mshr.data_version = msg.version if line is None else line.version
        mshr.acks_needed = msg.ack_count
        self._maybe_finish_store(msg.block, cycle)

    def _on_inv_ack(self, msg: CoherenceMessage, cycle: int) -> None:
        mshr = self.mshrs[msg.block]
        mshr.acks_got += 1
        self._maybe_finish_store(msg.block, cycle)

    def _maybe_finish_store(self, block: int, cycle: int) -> None:
        mshr = self.mshrs[block]
        if mshr.acks_needed is None or mshr.acks_got < mshr.acks_needed:
            return
        if mshr.data_version is None:
            return
        self._complete(block, L1Line("M", mshr.data_version + 1), cycle)

    # --- invalidations and forwards -------------------------------------
    def _on_inv(self, msg: CoherenceMessage, cycle: int) -> None:
        self.invalidations_received += 1
        mshr = self.mshrs.get(msg.block)
        if mshr is not None:
            if mshr.state == "SM_AD":
                # We lost our S copy while upgrading; data now required.
                self.cache.remove(msg.block)
                mshr.state = "IM_AD"
            elif mshr.state == "IS_D":
                mshr.state = "IS_D_I"
        else:
            self.cache.remove(msg.block)
        ack = CoherenceMessage(
            MessageType.INV_ACK, msg.block, sender=self.node, requester=msg.requester
        )
        self._send(ack, msg.requester, cycle)

    def _on_fwd(self, msg: CoherenceMessage, cycle: int) -> None:
        block = msg.block
        mshr = self.mshrs.get(block)
        if mshr is not None:
            # A forward racing our own in-flight transaction: we may be
            # the owner-elect whose data has not arrived yet (even an
            # IS_D load can be about to receive DataExclusive), so the
            # only safe response is to buffer the forward and service
            # it when the transaction completes.  If we turn out not to
            # own the block, the deferred service NACKs then.
            mshr.deferred.append(msg)
            return
        wb = self.wb_buffers.get(block)
        if wb is not None:
            # Forward raced our writeback (PutM in flight).
            if msg.mtype is MessageType.FWD_GETM:
                # Serve the new owner from the WB buffer; our stale
                # PutM will only be acked by the home.
                self._serve_forward(msg, wb.version, cycle)
                wb.forwarded = True
            # FWD_GETS: stay silent — the home is blocking on this
            # block and our in-flight PutM carries the data it needs
            # to complete the GetS itself (single data source).
            return
        line = self.cache.lookup(block, touch=False)
        if line is None or line.state == "S":
            # Truly stale forward (we dropped the block cleanly); tell
            # the home to serve from its own copy.  ack_count encodes
            # which kind of forward this answers so the home can tell
            # concurrent GetS/GetM transactions apart.
            nack = CoherenceMessage(
                MessageType.FWD_NACK,
                block,
                sender=self.node,
                requester=msg.requester,
                ack_count=1 if msg.mtype is MessageType.FWD_GETM else 0,
            )
            self._send(nack, self.home_of(block), cycle)
            return
        self._serve_forward(msg, line.version, cycle)
        if msg.mtype is MessageType.FWD_GETM:
            self.cache.remove(block)
        else:
            line.state = "S"

    def _serve_forward(self, msg: CoherenceMessage, version: int, cycle: int) -> None:
        data = CoherenceMessage(
            MessageType.DATA,
            msg.block,
            sender=self.node,
            requester=msg.requester,
            version=version,
        )
        self._send(data, msg.requester, cycle)
        if msg.mtype is MessageType.FWD_GETS:
            copy = CoherenceMessage(
                MessageType.OWNER_DATA,
                msg.block,
                sender=self.node,
                requester=msg.requester,
                version=version,
            )
            self._send(copy, self.home_of(msg.block), cycle)

    def _on_wb_ack(self, msg: CoherenceMessage, cycle: int) -> None:
        self.wb_buffers.pop(msg.block, None)

    #: Message type -> handler (plain functions: one table per class).
    _HANDLERS = {
        MessageType.DATA: _on_data,
        MessageType.DATA_E: _on_data,
        MessageType.ACK_COUNT: _on_ack_count,
        MessageType.INV_ACK: _on_inv_ack,
        MessageType.INV: _on_inv,
        MessageType.FWD_GETS: _on_fwd,
        MessageType.FWD_GETM: _on_fwd,
        MessageType.WB_ACK: _on_wb_ack,
    }

    # ------------------------------------------------------------------
    # Completion and eviction
    # ------------------------------------------------------------------
    def _complete(self, block: int, line: Optional[L1Line], cycle: int) -> None:
        mshr = self.mshrs.pop(block)
        if line is not None:
            self._insert(block, line, cycle)
        if self.on_complete is not None:
            self.on_complete(block, cycle)
        for fwd in mshr.deferred:
            self._on_fwd(fwd, cycle)

    def _insert(self, block: int, line: L1Line, cycle: int) -> None:
        victim = self.cache.victim_for(
            block, evictable=lambda b: b not in self.mshrs
        )
        if victim is not None:
            vblock, vline = victim
            self._evict(vblock, vline, cycle)
        self.cache.insert(block, line)

    def _evict(self, block: int, line: L1Line, cycle: int) -> None:
        self.evictions += 1
        self.cache.remove(block)
        home = self.home_of(block)
        if line.state == "M":
            self.wb_buffers[block] = WBEntry(version=line.version)
            msg = CoherenceMessage(
                MessageType.PUTM,
                block,
                sender=self.node,
                requester=self.node,
                version=line.version,
            )
        else:
            msg = CoherenceMessage(
                MessageType.PUTS, block, sender=self.node, requester=self.node
            )
        self._send(msg, home, cycle)

    # ------------------------------------------------------------------
    def state_of(self, block: int) -> str:
        """Stable or transient state name for tests/debugging."""
        if block in self.mshrs:
            return self.mshrs[block].state
        if block in self.wb_buffers:
            return "MI_WB"
        line = self.cache.lookup(block, touch=False)
        return line.state if line is not None else "I"
