"""Structure-of-arrays controller bank: the vector kernel's twin of
:class:`~repro.powergate.controller.PowerGateController`.

It mirrors the controller's eight per-cycle fields (``MIRRORED_FIELDS``):
the six FSM fields and the two counters a result reads, ``on_cycles``
and ``wake_events``.  It steps every controller every cycle, so OFF time
stays the remainder of ``on_cycles`` here too.

The only module of the package that needs numpy; ``repro.noc.vector``
imports it when an engine engages, nothing else does.
"""

from __future__ import annotations

import numpy as _np

from .controller import PGState

#: Integer codes of :class:`PGState` inside the array bank.
PG_STATE_CODES = {PGState.ACTIVE: 0, PGState.OFF: 1, PGState.WAKING: 2}
PG_STATE_FROM_CODE = {code: state for state, code in PG_STATE_CODES.items()}

#: ``wake_at`` sentinel for "no wakeup scheduled" (compares above any
#: reachable cycle) and ``last_sleep_cycle`` sentinel for None (real
#: values are always ``cycle + 1 >= 1``).
_NO_WAKE = 1 << 60
_NO_SLEEP = -1


def _optional(none: int):
    """Conversions of an ``Optional[int]`` field kept as ``none``."""
    return (
        lambda value: none if value is None else value,
        lambda stored: None if stored == none else stored,
    )


#: The object/array seam, one row per mirrored field: bank array,
#: :class:`PowerGateController` attribute, dtype, to-array, to-object.
#: The constructor and ``flush_into`` read this table and name no field
#: themselves.
MIRRORED_FIELDS = (
    ("state", "state", _np.int8, PG_STATE_CODES.get, PG_STATE_FROM_CODE.get),
    ("idle", "idle_cycles", _np.int64, int, int),
    ("wake_at", "wake_at", _np.int64, *_optional(_NO_WAKE)),
    ("expect", "expect_until", _np.int64, int, int),
    ("wu", "wu_seen", bool, bool, bool),
    ("last_sleep", "last_sleep_cycle", _np.int64, *_optional(_NO_SLEEP)),
    ("on_cycles", "on_cycles", _np.int64, int, int),
    ("wake_events", "wake_events", _np.int64, int, int),
)
#: What only the objects hold.  The bank steps every controller every
#: cycle, fault-free, so it carries no retry: a flush leaves these as
#: an unfaulted controller has them ...
RESET_BY_FLUSH = {
    "retry_at": None,
    "retry_backoff": 0,
}
#: ... and never touches these: identity and configuration (the two
#: latencies are bank-wide scalars) and the scheme's hooks.
OBJECT_ONLY_FIELDS = (
    "router_id", "wakeup_latency", "timeout", "faults", "wake_hook", "stats",
)


class ControllerArrayBank:
    """All :class:`PowerGateController` FSMs of one mesh as flat arrays.

    The vector kernel steps every controller with a handful of masked
    array ops instead of N method calls.  Semantics mirror
    :meth:`PowerGateController.step` / :meth:`request_wakeup` on the
    fault-free path exactly (the vector engine never engages with a
    fault injector installed, so the retry/backoff machinery has no
    array twin).  Two phase-batching facts make the
    batched request path exact:

    * Controllers are independent; within one delivery phase the
      per-node request order is commutative (``expect_until`` is a max,
      ``wu_seen`` sticky, the OFF->WAKING transition idempotent).
    * A begin-phase request can never hit the same-cycle sleep-cancel
      edge (a sleep decided at step ``c`` sets ``last_sleep_cycle =
      c + 1``; begin-phase requests at ``c + 1`` fail ``cycle <
      last_sleep_cycle``), so only end-phase (punch) rounds pass
      ``allow_cancel=True``.

    :meth:`flush_into` materializes the arrays back onto the controller
    objects, so every object-level field reads exactly what per-cycle
    object stepping would have produced.
    """

    def __init__(self, controllers) -> None:
        """Snapshot live controller objects.

        Engagement can happen at any step boundary, so every mutable
        FSM field is copied.
        """
        self.wakeup_latency = controllers[0].wakeup_latency
        self.timeout = controllers[0].timeout
        for array, attr, dtype, to_array, _to_object in MIRRORED_FIELDS:
            column = [to_array(getattr(c, attr)) for c in controllers]
            setattr(self, array, _np.array(column, dtype=dtype))

    # ------------------------------------------------------------------
    def request_batch(self, nodes, cycle: int, window: int, allow_cancel: bool) -> None:
        """Deliver one phase's wakeup requests to ``nodes`` (unique ids)."""
        if len(nodes) == 0:
            return
        self.wu[nodes] = True
        if window > 0:
            self.expect[nodes] = _np.maximum(self.expect[nodes], cycle + window)
        off = nodes[self.state[nodes] == 1]
        if len(off) == 0:
            return
        if allow_cancel:
            ls = self.last_sleep[off]
            cancel = (ls != _NO_SLEEP) & (cycle < ls)
            cn = off[cancel]
            if len(cn):
                self.state[cn] = 0
                self.idle[cn] = 0
                self.last_sleep[cn] = _NO_SLEEP
            off = off[~cancel]
        if len(off) == 0:
            return
        self.state[off] = 2
        self.wake_at[off] = cycle + self.wakeup_latency
        self.wake_events[off] += 1

    def request_scalar(self, node: int, cycle: int, window: int) -> None:
        """One node's :meth:`PowerGateController.request_wakeup`, with
        the full same-cycle sleep-cancel edge (punch deliveries and
        end-of-cycle injection punches can reach a controller that just
        decided to sleep; ``request_batch`` only carries the cancel for
        callers that opt in)."""
        self.wu[node] = True
        if window > 0:
            self.expect[node] = max(int(self.expect[node]), cycle + window)
        if self.state[node] != 1:
            return
        ls = int(self.last_sleep[node])
        if ls != _NO_SLEEP and cycle < ls:
            self.state[node] = 0
            self.idle[node] = 0
            self.last_sleep[node] = _NO_SLEEP
            return
        self.state[node] = 2
        self.wake_at[node] = cycle + self.wakeup_latency
        self.wake_events[node] += 1

    def step_all(self, cycle: int, datapath_empty, node_wants) -> None:
        """One masked step of every FSM (snapshot masks first, so a
        WAKING->ACTIVE transition does not also take the ACTIVE branch
        this cycle, exactly like the early returns in the scalar FSM)."""
        st = self.state
        waking = st == 2
        act = st == 0
        self.on_cycles[st != 1] += 1
        done = waking & (cycle >= self.wake_at)
        self.state[done] = 0
        self.wake_at[done] = _NO_WAKE
        self.idle[done] = 0
        busy = act & (~datapath_empty | node_wants | self.wu)
        self.wu[:] = False
        self.idle[busy] = 0
        self.expect[busy & ~datapath_empty] = -1
        idling = act & ~busy
        self.idle[idling] += 1
        sleep = idling & (self.idle >= self.timeout) & (cycle > self.expect)
        self.state[sleep] = 1
        self.idle[sleep] = 0
        self.last_sleep[sleep] = cycle + 1

    # ------------------------------------------------------------------
    def available_by(self, by_cycle: int):
        """Per-node :meth:`PowerGateController.available_by` as a bool array."""
        return (self.state == 0) | ((self.state == 2) & (self.wake_at <= by_cycle))

    def flush_into(self, controllers) -> None:
        """Write the arrays back onto the controller objects."""
        for array, attr, _dtype, _to_array, to_object in MIRRORED_FIELDS:
            for c, stored in zip(controllers, getattr(self, array).tolist()):
                setattr(c, attr, to_object(stored))
        for c in controllers:
            for attr, value in RESET_BY_FLUSH.items():
                setattr(c, attr, value)
