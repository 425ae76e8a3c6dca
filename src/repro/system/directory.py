"""Shared-L2 bank + directory controller (the *home* of a block).

One bank lives at every node (16 MB shared L2 across 64 nodes, paper
Sec. 5); the directory is full-map and co-located.  The directory is
blocking only where it must be (GetS forwarded to an owner, memory
fetches); ownership handoffs on GetM are non-blocking and rely on the
L1-side deferred-forward chain.

The L2 data array is a finite set-associative cache; directory state is
kept exactly for every block (a "perfect" directory — DESIGN.md notes
this substitution).  Dirty L2 victims are written back to the memory
controller that owns the block.
"""

from __future__ import annotations

from collections import deque
from types import MappingProxyType
from typing import (
    AbstractSet,
    Callable,
    Deque,
    Dict,
    FrozenSet,
    Iterator,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from .cache import SetAssociativeCache
from .messages import CoherenceMessage, MessageType


class L2Line:
    """One L2 data line: version and dirty bit."""

    __slots__ = ("version", "dirty")

    def __init__(self, version: int, dirty: bool = False) -> None:
        self.version = version
        self.dirty = dirty


#: Shared empty ``sharers`` / ``waiting`` of entries that never had any:
#: most entries only ever carry an owner, and a warmed chip holds 16k.
_NO_SHARERS: FrozenSet[int] = frozenset()
_NO_WAITING: Tuple[CoherenceMessage, ...] = ()
_NO_OWNERS: Mapping[int, int] = MappingProxyType({})


class DirEntry:
    """Directory state for one block: owner, sharers, blocking context."""

    __slots__ = ("owner", "sharers", "busy", "pending", "waiting")

    def __init__(self, owner: Optional[int] = None) -> None:
        self.owner = owner
        #: A real set whenever non-empty, so mutate only under that test.
        self.sharers: AbstractSet[int] = _NO_SHARERS
        self.busy = False
        #: Context of the in-flight blocking operation:
        #: ("gets_fwd", requester, owner) or ("mem_gets"/"mem_getm",
        #: requester, ack_count).
        self.pending: Optional[tuple] = None
        #: Requests queued behind ``busy``; grow through :meth:`enqueue`.
        self.waiting: Union[Deque[CoherenceMessage], tuple] = _NO_WAITING

    def enqueue(self, msg: CoherenceMessage) -> None:
        """Queue a request behind the in-flight operation."""
        if self.waiting is _NO_WAITING:
            self.waiting = deque()
        self.waiting.append(msg)


class DirectoryController:
    """Home-node coherence engine for the blocks this node owns."""

    def __init__(
        self,
        node: int,
        mc_of: Callable[[int], int],
        send: Callable[[CoherenceMessage, int, int], None],
        l2_size_bytes: int = 256 * 1024,
        l2_ways: int = 16,
    ) -> None:
        self.node = node
        self.mc_of = mc_of
        self._send = send
        self.l2: SetAssociativeCache[L2Line] = SetAssociativeCache(
            l2_size_bytes, l2_ways
        )
        #: Entries asked for so far; read the whole directory through
        #: :meth:`iter_entries`.
        self.entries: Dict[int, DirEntry] = {}
        #: Owner a block starts with when its entry is first asked for.
        self._initial_owners: Mapping[int, int] = _NO_OWNERS
        #: Memory-fetch contexts per block: (kind, requester, acks,
        #: blocking).  Kept outside DirEntry.pending so a chained
        #: non-blocking fetch can coexist with a blocking transaction.
        self._fetches: Dict[int, Deque[tuple]] = {}
        # statistics
        self.requests_served = 0
        self.memory_fetches = 0
        self.forwards_sent = 0
        self.invalidations_sent = 0

    # ------------------------------------------------------------------
    def preload_owners(self, owners: Mapping[int, int]) -> None:
        """Let every block without an entry yet start owned per ``owners``.

        The mapping is read, never written, so directories may share it.
        """
        self._initial_owners = owners

    def entry(self, block: int) -> DirEntry:
        """The (possibly fresh) directory entry for a block."""
        e = self.entries.get(block)
        if e is None:
            e = self.entries[block] = DirEntry(self._initial_owners.get(block))
        return e

    def iter_entries(self) -> Iterator[Tuple[int, DirEntry]]:
        """Every (block, entry) the directory has state for.

        A preloaded block nobody asked about yet is reported, as a
        fresh entry holding its initial owner, without being created.
        """
        entries = self.entries
        yield from entries.items()
        for block, owner in self._initial_owners.items():
            if block not in entries:
                yield block, DirEntry(owner)

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def handle(self, msg: CoherenceMessage, cycle: int) -> None:
        """Dispatch one incoming protocol message."""
        mtype = msg.mtype
        if mtype in (MessageType.GETS, MessageType.GETM):
            self._on_request(msg, cycle)
        elif mtype is MessageType.PUTM:
            self._on_putm(msg, cycle)
        elif mtype is MessageType.PUTS:
            self._on_puts(msg, cycle)
        elif mtype is MessageType.OWNER_DATA:
            self._on_owner_data(msg, cycle)
        elif mtype is MessageType.FWD_NACK:
            self._on_fwd_nack(msg, cycle)
        elif mtype is MessageType.MEM_DATA:
            self._on_mem_data(msg, cycle)
        else:  # pragma: no cover - protocol hole guard
            raise RuntimeError(f"directory {self.node} cannot handle {msg}")

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def _on_request(self, msg: CoherenceMessage, cycle: int) -> None:
        entry = self.entry(msg.block)
        if entry.busy:
            entry.enqueue(msg)
            return
        self.requests_served += 1
        if msg.mtype is MessageType.GETS:
            self._serve_gets(entry, msg, cycle)
        else:
            self._serve_getm(entry, msg, cycle)

    def _serve_gets(self, entry: DirEntry, msg: CoherenceMessage, cycle: int) -> None:
        block, req = msg.block, msg.requester
        if entry.owner is not None:
            # Owner may hold a newer (M) copy: forward and wait for the
            # owner's copy so the L2 is refreshed too.
            entry.busy = True
            entry.pending = ("gets_fwd", req, entry.owner)
            self.forwards_sent += 1
            fwd = CoherenceMessage(
                MessageType.FWD_GETS, block, sender=self.node, requester=req
            )
            self._send(fwd, entry.owner, cycle)
            return
        line = self.l2.lookup(block)
        if line is None:
            self._start_memory_fetch(entry, msg, cycle, kind="mem_gets", acks=0)
            return
        if entry.sharers:
            entry.sharers.add(req)
            self._send_data(MessageType.DATA, block, req, line.version, 0, cycle)
        else:
            entry.owner = req
            self._send_data(MessageType.DATA_E, block, req, line.version, 0, cycle)

    def _serve_getm(self, entry: DirEntry, msg: CoherenceMessage, cycle: int) -> None:
        block, req = msg.block, msg.requester
        if entry.owner is not None and entry.owner != req:
            # Non-blocking ownership handoff: the old owner sends data
            # straight to the requester (or NACKs if it raced an evict).
            self.forwards_sent += 1
            fwd = CoherenceMessage(
                MessageType.FWD_GETM, block, sender=self.node, requester=req
            )
            self._send(fwd, entry.owner, cycle)
            entry.owner = req
            return
        others = entry.sharers - {req}
        for sharer in others:
            self.invalidations_sent += 1
            inv = CoherenceMessage(
                MessageType.INV, block, sender=self.node, requester=req
            )
            self._send(inv, sharer, cycle)
        requester_had_copy = req in entry.sharers
        entry.sharers = _NO_SHARERS
        entry.owner = req
        if requester_had_copy:
            # Upgrade: no data needed.
            ack = CoherenceMessage(
                MessageType.ACK_COUNT,
                block,
                sender=self.node,
                requester=req,
                ack_count=len(others),
            )
            self._send(ack, req, cycle)
            return
        line = self.l2.lookup(block)
        if line is None:
            self._start_memory_fetch(
                entry, msg, cycle, kind="mem_getm", acks=len(others)
            )
            return
        self._send_data(MessageType.DATA, block, req, line.version, len(others), cycle)

    # ------------------------------------------------------------------
    # Writebacks and owner copies
    # ------------------------------------------------------------------
    def _on_putm(self, msg: CoherenceMessage, cycle: int) -> None:
        entry = self.entry(msg.block)
        if entry.busy and entry.pending and entry.pending[0] == "gets_fwd":
            kind, req, owner = entry.pending
            if msg.sender == owner:
                # The owner's writeback raced our Fwd_GetS and carries
                # the data we were waiting for: complete the GetS here.
                self._install(msg.block, msg.version, dirty=True, cycle=cycle)
                entry.owner = None
                entry.sharers = {req}
                self._send_data(
                    MessageType.DATA, msg.block, req, msg.version, 0, cycle
                )
                self._ack_writeback(msg, cycle)
                self._finish(entry, cycle)
                return
        if msg.sender == entry.owner:
            self._install(msg.block, msg.version, dirty=True, cycle=cycle)
            entry.owner = None
        # A stale PutM (ownership already moved on) is only acked; its
        # data may be older than the current owner's copy.
        self._ack_writeback(msg, cycle)

    def _ack_writeback(self, msg: CoherenceMessage, cycle: int) -> None:
        ack = CoherenceMessage(
            MessageType.WB_ACK, msg.block, sender=self.node, requester=msg.sender
        )
        self._send(ack, msg.sender, cycle)

    def _on_puts(self, msg: CoherenceMessage, cycle: int) -> None:
        entry = self.entry(msg.block)
        if entry.sharers:
            entry.sharers.discard(msg.sender)
        if entry.owner == msg.sender:
            # Clean E copy dropped.
            entry.owner = None

    def _on_owner_data(self, msg: CoherenceMessage, cycle: int) -> None:
        entry = self.entry(msg.block)
        assert entry.busy and entry.pending[0] == "gets_fwd", msg
        _, req, owner = entry.pending
        self._install(msg.block, msg.version, dirty=True, cycle=cycle)
        entry.owner = None
        entry.sharers = {owner, req}
        self._finish(entry, cycle)

    def _on_fwd_nack(self, msg: CoherenceMessage, cycle: int) -> None:
        """The forwarded-to owner no longer had the block (clean drop).

        ``ack_count`` says which forward this answers: 0 = Fwd_GetS,
        1 = Fwd_GetM.  A GetS NACK that no longer matches the blocking
        transaction is stale (the owner's racing PutM already completed
        it) and must be ignored; a GetM NACK always means the new owner
        is still waiting for data.
        """
        entry = self.entry(msg.block)
        req = msg.requester
        line = self.l2.lookup(msg.block)
        if msg.ack_count == 0:
            matches = (
                entry.busy
                and entry.pending
                and entry.pending[0] == "gets_fwd"
                and entry.pending[1] == req
            )
            if not matches:
                return  # stale: the PutM race already served this GetS
            entry.owner = None
            if line is None:
                fake = CoherenceMessage(
                    MessageType.GETS, msg.block, sender=req, requester=req
                )
                entry.busy = False
                self._start_memory_fetch(entry, fake, cycle, "mem_gets", 0)
                return
            entry.sharers = {req}
            self._send_data(MessageType.DATA, msg.block, req, line.version, 0, cycle)
            self._finish(entry, cycle)
            return
        # GetM handoff NACK: the requester owns the block but has no
        # data.
        fake = CoherenceMessage(
            MessageType.GETM, msg.block, sender=req, requester=req
        )
        if entry.busy:
            if entry.pending[0] == "gets_fwd" and entry.pending[2] == req:
                # The blocking GetS is itself waiting for this very
                # requester's data — queueing would deadlock.  Serve the
                # data out-of-band; the requester will then answer the
                # pending Fwd_GetS it deferred.
                if line is None:
                    self._start_memory_fetch(
                        entry, fake, cycle, "chain_data", 0, blocking=False
                    )
                else:
                    self._send_data(
                        MessageType.DATA, msg.block, req, line.version, 0, cycle
                    )
                return
            entry.enqueue(fake)
            return
        if line is None:
            self._start_memory_fetch(entry, fake, cycle, "mem_getm", 0)
            return
        self._send_data(MessageType.DATA, msg.block, req, line.version, 0, cycle)

    # ------------------------------------------------------------------
    # Memory path
    # ------------------------------------------------------------------
    def _start_memory_fetch(
        self,
        entry: DirEntry,
        msg: CoherenceMessage,
        cycle: int,
        kind: str,
        acks: int,
        blocking: bool = True,
    ) -> None:
        if blocking:
            entry.busy = True
            entry.pending = (kind, msg.requester, acks)
        self._fetches.setdefault(msg.block, deque()).append(
            (kind, msg.requester, acks, blocking)
        )
        self.memory_fetches += 1
        read = CoherenceMessage(
            MessageType.MEM_READ, msg.block, sender=self.node, requester=msg.requester
        )
        self._send(read, self.mc_of(msg.block), cycle)

    def _on_mem_data(self, msg: CoherenceMessage, cycle: int) -> None:
        entry = self.entry(msg.block)
        queue = self._fetches[msg.block]
        kind, req, acks, blocking = queue.popleft()
        if not queue:
            del self._fetches[msg.block]
        self._install(msg.block, msg.version, dirty=False, cycle=cycle)
        if kind == "mem_gets":
            if entry.sharers:
                entry.sharers.add(req)
                self._send_data(
                    MessageType.DATA, msg.block, req, msg.version, 0, cycle
                )
            else:
                entry.owner = req
                self._send_data(
                    MessageType.DATA_E, msg.block, req, msg.version, 0, cycle
                )
        elif kind == "mem_getm":
            entry.owner = req
            self._send_data(MessageType.DATA, msg.block, req, msg.version, acks, cycle)
        else:  # chain_data: owner already set; just deliver the bits.
            self._send_data(MessageType.DATA, msg.block, req, msg.version, acks, cycle)
        if blocking:
            self._finish(entry, cycle)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _send_data(
        self,
        mtype: MessageType,
        block: int,
        dest: int,
        version: int,
        acks: int,
        cycle: int,
    ) -> None:
        msg = CoherenceMessage(
            mtype,
            block,
            sender=self.node,
            requester=dest,
            ack_count=acks,
            version=version,
        )
        self._send(msg, dest, cycle)

    def _install(self, block: int, version: int, dirty: bool, cycle: int) -> None:
        line = self.l2.lookup(block)
        if line is not None:
            if version >= line.version:
                line.version = version
                line.dirty = line.dirty or dirty
            return
        victim = self.l2.victim_for(block, evictable=self._l2_evictable)
        if victim is not None:
            vblock, vline = victim
            self.l2.remove(vblock)
            if vline.dirty:
                wb = CoherenceMessage(
                    MessageType.MEM_WRITE,
                    vblock,
                    sender=self.node,
                    requester=self.node,
                    version=vline.version,
                )
                self._send(wb, self.mc_of(vblock), cycle)
        self.l2.insert(block, L2Line(version=version, dirty=dirty))

    def _l2_evictable(self, block: int) -> bool:
        entry = self.entries.get(block)
        return entry is None or not entry.busy

    def _finish(self, entry: DirEntry, cycle: int) -> None:
        entry.busy = False
        entry.pending = None
        # Drain queued requests until one blocks the entry again (GetM
        # handoffs are non-blocking, so several may complete at once).
        while entry.waiting and not entry.busy:
            nxt = entry.waiting.popleft()
            self.requests_served += 1
            if nxt.mtype is MessageType.GETS:
                self._serve_gets(entry, nxt, cycle)
            else:
                self._serve_getm(entry, nxt, cycle)
