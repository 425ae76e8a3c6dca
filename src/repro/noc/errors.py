"""Typed simulation error hierarchy.

Every fatal condition inside the simulator raises a
:class:`SimulationError` subclass carrying structured context — the
cycle, router id, port direction and VC index where the failure was
detected — so a crash deep inside a million-cycle run pinpoints its
own location instead of surfacing as a bare ``assert`` or a
context-free ``RuntimeError``.

The hierarchy deliberately subclasses :class:`RuntimeError` so legacy
callers (and tests) written against ``except RuntimeError`` keep
working.

* :class:`SimulationError` — base, structured context, and the one
  carrier of a :class:`~repro.noc.invariants.PostMortem` (rendered
  under the message by ``__str__``).
* :class:`TopologyError` — a router/link lookup hit a hole in the mesh
  (an internal wiring bug, never a workload property).
* :class:`BufferOverflowError` — a flit was pushed into a full VC,
  i.e. credit flow control was violated.
* :class:`DrainTimeoutError` — ``run_until_drained`` gave up; carries
  the in-flight census at the deadline.
* :class:`NetworkClosedError` — a finished network (``Network.close``)
  was stepped or injected into.
* :class:`InvariantViolation` — an opt-in runtime invariant failed
  (see :mod:`repro.noc.invariants`).
* :class:`DeadlockError` — the deadlock/livelock watchdog tripped.
* :class:`BoundViolationError` — a delivered packet exceeded its
  certified worst-case latency bound (see :mod:`repro.guarantees`).
* :class:`FaultSpecError` — a fault-schedule specification could not
  be parsed (a :class:`ValueError`, since it is a config problem).

Every class in the hierarchy pickles faithfully: campaign cells run in
forked pool workers, and an exception whose ``__init__`` signature
does not match its ``args`` (e.g. ``InvariantViolation``) would
otherwise fail to unpickle on the way back to the parent — which the
campaign engine reports as a ``RuntimeError`` naming the unpickling
failure, in place of the cell's own error.  ``__reduce__`` below
rebuilds instances from their full ``__dict__`` instead, so structured
context (including post-mortems) survives the trip.
"""

from __future__ import annotations

from typing import Optional


def _rebuild_error(cls, args, state):
    """Unpickle helper: restore an error without re-running __init__."""
    error = cls.__new__(cls)
    Exception.__init__(error, *args)
    error.__dict__.update(state)
    return error


class SimulationError(RuntimeError):
    """Fatal simulator condition with structured location context."""

    def __reduce__(self):
        return (_rebuild_error, (type(self), self.args, self.__dict__.copy()))

    def __init__(
        self,
        message: str,
        *,
        cycle: Optional[int] = None,
        router: Optional[int] = None,
        port: Optional[object] = None,
        vc: Optional[int] = None,
        packet: Optional[int] = None,
        post_mortem=None,
    ) -> None:
        self.cycle = cycle
        self.router = router
        self.port = port
        self.vc = vc
        self.packet = packet
        #: A :class:`repro.noc.invariants.PostMortem` (stuck packets,
        #: per-router state, recent events) when the failure dumped one.
        self.post_mortem = post_mortem
        super().__init__(self._decorate(message))

    def __str__(self) -> str:
        base = super().__str__()
        if self.post_mortem is None:
            return base
        return f"{base}\n{self.post_mortem.render()}"

    def _decorate(self, message: str) -> str:
        parts = []
        if self.cycle is not None:
            parts.append(f"cycle={self.cycle}")
        if self.router is not None:
            parts.append(f"router={self.router}")
        if self.port is not None:
            name = getattr(self.port, "name", None)
            parts.append(f"port={name if name is not None else self.port}")
        if self.vc is not None:
            parts.append(f"vc={self.vc}")
        if self.packet is not None:
            parts.append(f"packet={self.packet}")
        if not parts:
            return message
        return f"{message} [{' '.join(parts)}]"


class TopologyError(SimulationError):
    """A link or neighbor lookup fell off the mesh (internal bug)."""


class BufferOverflowError(SimulationError):
    """A flit arrived at a full VC buffer (credit protocol violated)."""


class DrainTimeoutError(SimulationError):
    """The network failed to drain within its cycle budget."""


class NetworkClosedError(SimulationError):
    """``step()`` or ``inject()`` on a network after ``close()``."""


class InvariantViolation(SimulationError):
    """A runtime invariant check failed.

    ``invariant`` names which check tripped (e.g. ``flit-conservation``).
    """

    def __init__(self, invariant: str, message: str, **context) -> None:
        self.invariant = invariant
        super().__init__(f"invariant {invariant!r} violated: {message}", **context)


class DeadlockError(InvariantViolation):
    """The deadlock/livelock watchdog flagged a stuck packet; its
    post-mortem has the blocked packets, per-router state and recent
    event history."""

    def __init__(self, message: str, **context) -> None:
        super().__init__("deadlock-watchdog", message, **context)


class BoundViolationError(InvariantViolation):
    """A delivered packet exceeded its certified worst-case latency
    bound (see :mod:`repro.guarantees`).

    Carries the violation's full context: ``observed`` and ``bound``
    latencies in cycles, the bound's term-by-term decomposition
    (``terms``), the packet's ``route`` (router walk, endpoints
    inclusive), and — when the network's config also sets
    ``strict_invariants`` — a post-mortem with the flight recorder's
    recent events.
    """

    def __init__(
        self,
        message: str,
        *,
        observed: Optional[int] = None,
        bound: Optional[int] = None,
        terms: Optional[dict] = None,
        route=(),
        **context,
    ) -> None:
        self.observed = observed
        self.bound = bound
        self.terms = dict(terms) if terms else {}
        self.route = list(route)
        super().__init__("latency-bound", message, **context)


class FaultSpecError(ValueError):
    """A fault-schedule specification string could not be parsed."""


class ConfigError(ValueError):
    """An enumerated :class:`~repro.noc.config.NoCConfig` field held an
    unknown value (a :class:`ValueError`, since it is a config problem).

    Carries the offending ``field``, the rejected ``value`` and the
    tuple of ``valid`` values so callers (and the rendered message) can
    point at the typo instead of failing deep inside network setup.
    """

    def __init__(self, field: str, value: object, valid: tuple) -> None:
        self.field = field
        self.value = value
        self.valid = tuple(valid)
        options = ", ".join(repr(v) for v in self.valid)
        super().__init__(f"{field} must be one of {options}, got {value!r}")
