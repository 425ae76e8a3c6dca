"""In-order core model.

One instruction per cycle while computing; a memory operation accesses
the L1 (hits cost the issue cycle, as in the paper's 1-cycle L1) and a
miss blocks the core until the coherence transaction completes.  This
blocking behaviour is what closes the loop between NoC latency and
execution time: every cycle a packet waits on a gated-off router is a
cycle the requesting core makes no progress — the paper's Fig. 8
execution-time penalty emerges from exactly this coupling.

The core is event-driven.  Compute instructions touch nothing outside
the core, so a gap of *g* of them is credited in one go (``retired``
runs ahead of the clock, ``done_at`` is computed) and the core sleeps
until ``wake_at``, the cycle of its next memory operation.  A blocking
miss sleeps until the L1's completion callback; the stall is credited
then, as a difference.  Counters therefore agree with a per-cycle model
whenever the core is due or done, not in the middle of a sleep.
"""

from __future__ import annotations

import sys
from typing import Optional

from .l1 import L1Controller
from .memtrace import AccessStream

#: ``wake_at`` of a core that only a miss completion (or nothing) wakes.
NEVER = sys.maxsize


class Core:
    """One blocking in-order core."""

    def __init__(
        self,
        node: int,
        l1: L1Controller,
        stream: AccessStream,
        quota: int,
    ) -> None:
        self.node = node
        self.l1 = l1
        self.stream = stream
        #: Total instructions (compute + memory ops) to retire.
        self.quota = quota
        self.retired = 0
        self.stall_cycles = 0
        #: Cycle in which the quota-th instruction retires (may lie ahead
        #: of the clock while the core sleeps through its last gap).
        self.done_at: Optional[int] = None
        #: Next cycle :meth:`step` has work (set by ``_begin_next_access``).
        self.wake_at = 0
        self._waiting_on: Optional[int] = None
        self._stalled_since = 0
        l1.on_complete = self._on_miss_complete
        # statistics
        self.mem_ops = 0
        self.misses = 0
        self._begin_next_access(0)

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """Whether the core has retired its instruction quota."""
        return self.done_at is not None

    @property
    def is_stalled(self) -> bool:
        """Whether the core is blocked on an outstanding miss."""
        return self._waiting_on is not None

    # ------------------------------------------------------------------
    def step(self, cycle: int) -> None:
        """Issue the pending memory operation if the core is due."""
        if self.done_at is not None:
            self.wake_at = NEVER
            return
        if cycle < self.wake_at:
            return
        block = self._next_block
        if not self.l1.can_accept(block):
            # e.g. our own writeback of this block is still in flight:
            # retry the same access next cycle.
            self.stall_cycles += 1
            self.wake_at = cycle + 1
            return
        self.mem_ops += 1
        if not self.l1.access(block, self._next_write, cycle):
            self.misses += 1
            overlap = self.stream.profile.overlap_fraction
            if not (overlap > 0.0 and self.stream.rng.random() < overlap):
                self._waiting_on = block
                self._stalled_since = cycle
                self.wake_at = NEVER
                return
            # Miss overlapped with execution (store buffer /
            # prefetch-like): the core keeps retiring.
        self._retire_op(cycle, resume=cycle + 1)
        if self.done_at is not None:
            self.wake_at = NEVER

    def _on_miss_complete(self, block: int, cycle: int) -> None:
        if block != self._waiting_on:
            return
        self._waiting_on = None
        self.stall_cycles += cycle - self._stalled_since - 1
        # The controllers run before the cores within a cycle, so the
        # core resumes in this very cycle.
        self._retire_op(cycle, resume=cycle)

    def _retire_op(self, cycle: int, resume: int) -> None:
        """Retire the memory op at ``cycle``; compute on from ``resume``."""
        self.retired += 1
        if self.retired >= self.quota:
            self.done_at = cycle
        self._begin_next_access(resume)

    def _begin_next_access(self, start: int) -> None:
        """Draw the next access and credit its compute gap from ``start``.

        Gap instructions retire one per cycle from ``start``; the memory
        operation issues in the cycle after the last of them.
        """
        gap, self._next_block, self._next_write = self.stream.next_access()
        if self.done_at is None:
            left = self.quota - self.retired
            if gap >= left:
                self.done_at = start + left - 1
                gap = left
            self.retired += gap
        # A finished core stays due so its owner sees it finish in time.
        self.wake_at = start if self.done_at is not None else start + gap
