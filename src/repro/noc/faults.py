"""Deterministic fault injection for the NoC simulator.

Power Punch's correctness story rests on punch signals arriving *just
in time*; this module stresses that story.  A :class:`FaultInjector`
is driven by a declarative :class:`FaultSchedule` and hooked into the
simulator through a handful of narrow injection points (the network
kernel's credit/flit delivery, the punch fabric's per-hop relay, the
PG controller's wakeup input and the kernel's allocation loop).  All
randomness comes from one seeded ``random.Random``, so a given
(schedule, workload) pair replays the exact same fault sequence.

Fault taxonomy (see ``docs/fault_model.md``):

== ================= ==================================================
#  kind              effect
== ================= ==================================================
1  ``punch_drop``    a punch signal reaching a router is lost there
                     (neither wakes it nor relays onward)
2  ``punch_dup``     the punch is processed again one cycle later
3  ``punch_delay``   the punch is processed ``delay`` cycles late
4  ``wakeup_fail``   a ``request_wakeup`` is ignored by the controller
5  ``wakeup_delay``  the wakeup is acknowledged ``delay`` cycles late
6  ``router_stall``  a router performs no VA/SA while the fault window
                     is open (transient allocator freeze)
7  ``credit_drop``   a returning credit is lost in flight
8  ``flit_corrupt``  a flit payload is bit-flipped in flight (marked
                     ``corrupted``; contents are otherwise preserved so
                     the run stays deterministic)
== ================= ==================================================

Faults 1–6 are *liveness* faults — with the blocking-wakeup fallback
enabled the network still delivers every packet, only slower.  Faults
7–8 are *safety* faults that exist to be caught: the invariant checker
(:mod:`repro.noc.invariants`) detects the credit leak / corruption.

Schedules are built programmatically or parsed from a compact spec
string (the CLI's ``--faults`` argument)::

    punch_drop,rate=0.5,start=100;router_stall,router=5,start=200,end=400;seed=7

Clauses are ``;``-separated; each is a fault kind followed by
``key=value`` fields; a bare ``seed=N`` clause seeds the injector.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .errors import FaultSpecError

#: All recognized fault kinds.
FAULT_KINDS = (
    "punch_drop",
    "punch_dup",
    "punch_delay",
    "wakeup_fail",
    "wakeup_delay",
    "router_stall",
    "credit_drop",
    "flit_corrupt",
)

#: Keys accepted in a fault-spec clause.
_SPEC_KEYS = ("rate", "router", "start", "end", "delay", "count")


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault rule.

    ``rate`` is the per-opportunity firing probability (``router_stall``
    ignores it: a stall is a deterministic window).  ``router`` narrows
    the rule to one router (``None`` = any).  The rule is armed for
    cycles ``start <= cycle <= end`` and fires at most ``count`` times;
    ``router_stall`` refuses ``count``, since a window is not a number
    of firings (bound it with ``end`` instead).
    """

    kind: str
    rate: float = 1.0
    router: Optional[int] = None
    start: int = 0
    end: Optional[int] = None
    delay: int = 1
    count: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultSpecError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise FaultSpecError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.delay < 1:
            raise FaultSpecError("fault delay must be at least 1 cycle")
        if self.end is not None and self.end < self.start:
            raise FaultSpecError(
                f"fault window ends ({self.end}) before it starts ({self.start})"
            )
        if self.kind == "router_stall" and self.count is not None:
            raise FaultSpecError(
                "router_stall takes no count (a stall is a window); "
                "bound it with end= instead"
            )

    def active_at(self, cycle: int) -> bool:
        """Whether the rule's cycle window covers ``cycle``."""
        return cycle >= self.start and (self.end is None or cycle <= self.end)

    def matches(self, router: int) -> bool:
        """Whether the rule applies to ``router``."""
        return self.router is None or self.router == router


@dataclass
class FaultSchedule:
    """A seeded collection of :class:`FaultSpec` rules."""

    specs: List[FaultSpec] = field(default_factory=list)
    seed: int = 0

    @classmethod
    def parse(cls, text: str) -> "FaultSchedule":
        """Parse the compact ``--faults`` spec grammar (module docstring)."""
        specs: List[FaultSpec] = []
        seed = 0
        for clause in text.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            fields = [f.strip() for f in clause.split(",") if f.strip()]
            head = fields[0]
            if head.startswith("seed="):
                try:
                    seed = int(head.split("=", 1)[1])
                except ValueError as exc:
                    raise FaultSpecError(f"bad seed clause {head!r}") from exc
                if len(fields) > 1:
                    raise FaultSpecError("seed clause takes no extra fields")
                continue
            kwargs: Dict[str, object] = {}
            for item in fields[1:]:
                if "=" not in item:
                    raise FaultSpecError(
                        f"expected key=value in fault clause, got {item!r}"
                    )
                key, value = item.split("=", 1)
                key = key.strip()
                if key not in _SPEC_KEYS:
                    raise FaultSpecError(
                        f"unknown fault field {key!r}; expected one of {_SPEC_KEYS}"
                    )
                try:
                    kwargs[key] = float(value) if key == "rate" else int(value)
                except ValueError as exc:
                    raise FaultSpecError(f"bad value for {key!r}: {value!r}") from exc
            specs.append(FaultSpec(kind=head, **kwargs))  # type: ignore[arg-type]
        return cls(specs=specs, seed=seed)

    def to_spec(self) -> str:
        """Render back to the compact ``--faults`` grammar.

        Round-trips through :meth:`parse`; used by quarantine
        post-mortems so a reroute/deadlock failure is reproducible from
        the report alone.
        """
        clauses = []
        for spec in self.specs:
            fields_ = [spec.kind]
            if spec.rate != 1.0:
                fields_.append(f"rate={spec.rate}")
            if spec.router is not None:
                fields_.append(f"router={spec.router}")
            if spec.start != 0:
                fields_.append(f"start={spec.start}")
            if spec.end is not None:
                fields_.append(f"end={spec.end}")
            if spec.delay != 1:
                fields_.append(f"delay={spec.delay}")
            if spec.count is not None:
                fields_.append(f"count={spec.count}")
            clauses.append(",".join(fields_))
        if self.seed:
            clauses.append(f"seed={self.seed}")
        return ";".join(clauses)


class FaultInjector:
    """Executes a :class:`FaultSchedule` against one network.

    The injector is passive: simulator components ask it whether a
    fault fires at each injection point.  A network builds its own from
    ``NoCConfig.faults`` (the robustness layer is config), before its
    policy attaches, so a power-gated scheme wires it into its punch
    fabric and PG controllers.
    """

    def __init__(self, schedule: FaultSchedule, ring=None) -> None:
        self.schedule = schedule
        self.rng = random.Random(schedule.seed)
        #: Firing count per spec index (enforces ``count`` budgets).
        self._fired: List[int] = [0] * len(schedule.specs)
        #: The network's flight recorder (:class:`repro.noc.tracing.EventRing`);
        #: every fired fault lands there.
        self.ring = ring
        #: Totals per fault kind, for reports and tests.
        self.counts: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}

    # ------------------------------------------------------------------
    # Injection points
    # ------------------------------------------------------------------
    def punch_disposition(self, router: int, cycle: int) -> Tuple[str, int]:
        """Fate of a punch being processed at ``router``: ``(action, delay)``.

        ``action`` is ``"ok"``, ``"drop"``, ``"delay"`` or ``"dup"``.
        """
        return self._disposition(("punch_drop", "punch_delay", "punch_dup"), router, cycle)

    def wakeup_disposition(self, router: int, cycle: int) -> Tuple[str, int]:
        """Fate of a ``request_wakeup`` at ``router``: ``(action, delay)``."""
        return self._disposition(("wakeup_fail", "wakeup_delay"), router, cycle)

    def is_stalled(self, router: int, cycle: int) -> bool:
        """Whether an open ``router_stall`` window freezes ``router``.

        Deterministic (no RNG draw): a stall is a window, not a coin
        flip, so it can model both transient glitches and the hard
        failure the deadlock watchdog must catch.
        """
        return any(
            spec.kind == "router_stall" and spec.matches(router) and spec.active_at(cycle)
            for spec in self.schedule.specs
        )

    def open_stall_windows(self, cycle: int) -> None:
        """Count and record each ``router_stall`` window opening at
        ``cycle``, once, busy router or idle (a wildcard one at ``-1``)."""
        for spec in self.schedule.specs:
            if spec.kind == "router_stall" and spec.start == cycle:
                self._record(cycle, "router_stall", -1 if spec.router is None else spec.router)

    def dead_routers(self, cycle: int, threshold: int) -> List[int]:
        """Routers whose stall window has been open ``>= threshold`` cycles.

        This is the permanent-fault detector behind the graceful-
        degradation policy (``NoCConfig.degradation``): a
        ``router_stall`` that has frozen one specific router
        continuously for ``threshold`` cycles is no longer a transient
        glitch, it is a dead router.  Wildcard stalls (``router=None``
        freezes the whole mesh) are never promoted to deaths — there is
        no network left to degrade gracefully to.
        """
        dead: Dict[int, None] = {}
        for spec in self.schedule.specs:
            if spec.kind != "router_stall" or spec.router is None:
                continue
            if spec.active_at(cycle) and cycle - spec.start >= threshold:
                dead[spec.router] = None
        return sorted(dead)

    def drop_credit(self, router: int, direction, vc: int, cycle: int) -> bool:
        """Whether the credit arriving at ``router`` is lost."""
        spec = self._roll("credit_drop", router, cycle)
        if spec is None:
            return False
        self._record(cycle, "credit_drop", router, f"{direction.name} vc{vc}")
        return True

    def maybe_corrupt(self, router: int, flit, cycle: int) -> bool:
        """Whether the flit landing at ``router`` gets bit-flipped."""
        spec = self._roll("flit_corrupt", router, cycle)
        if spec is None:
            return False
        flit.corrupted = True
        self._record(
            cycle, "flit_corrupt", router, f"pkt#{flit.packet.packet_id}/{flit.index}"
        )
        return True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _roll(self, kind: str, router: int, cycle: int) -> Optional[FaultSpec]:
        """First armed spec of ``kind`` that fires at this opportunity."""
        for index, spec in enumerate(self.schedule.specs):
            if spec.kind != kind:
                continue
            if not (spec.matches(router) and spec.active_at(cycle)):
                continue
            if spec.count is not None and self._fired[index] >= spec.count:
                continue
            if spec.rate < 1.0 and self.rng.random() >= spec.rate:
                continue
            self._fired[index] += 1
            return spec
        return None

    def _disposition(
        self, kinds: Tuple[str, ...], router: int, cycle: int
    ) -> Tuple[str, int]:
        """``(action, delay)`` of the first of ``kinds`` that fires, in
        order (the action is the kind's suffix), else ``("ok", 0)``."""
        for kind in kinds:
            spec = self._roll(kind, router, cycle)
            if spec is not None:
                self._record(cycle, kind, router)
                return kind.split("_", 1)[1], spec.delay
        return "ok", 0

    def _record(self, cycle: int, kind: str, router: int, detail: str = "") -> None:
        self.counts[kind] += 1
        if self.ring is not None:
            self.ring.record(cycle, f"fault:{kind}", router, detail)


# ----------------------------------------------------------------------
# Monte-Carlo fault-spec sampling (reliability campaigns)
# ----------------------------------------------------------------------
#: Fault kinds a reliability trial may sample (liveness faults plus the
#: permanent-death trigger; the safety faults exist to be *caught* by
#: the invariant checker and would dominate every estimate with
#: guaranteed failures).
SAMPLABLE_FAULT_KINDS = (
    "punch_drop",
    "punch_dup",
    "punch_delay",
    "wakeup_fail",
    "wakeup_delay",
    "router_stall",
)
#: Range a sampled rate-based clause's ``rate`` is drawn from, uniformly.
SAMPLED_RATE_RANGE = (0.05, 0.5)
#: Largest ``delay`` a sampled delay-based clause is given.
SAMPLED_MAX_DELAY = 8


def sample_fault_schedule(
    seed: int, num_nodes: int, *, max_faults: int, horizon: int
) -> FaultSchedule:
    """Draw one fault schedule from a seeded distribution.

    This is the Monte-Carlo sampling step of the reliability
    campaigns: every trial seed maps deterministically to one concrete
    :class:`FaultSchedule` (clause count, kinds, routers, rates,
    windows and the injector's own RNG seed all derive from ``seed``),
    so estimates are exactly reproducible and individual failures can
    be replayed from the rendered :meth:`FaultSchedule.to_spec` string
    alone.

    ``router_stall`` clauses are always router-specific and permanent
    (open-ended window starting inside ``horizon``) — the shape the
    dead-router detector promotes to a death.  Rate-based kinds get a
    rate uniform in ``SAMPLED_RATE_RANGE`` (rounded so the spec string
    round-trips) and delay-based kinds a delay in
    ``[1, SAMPLED_MAX_DELAY]``.
    """
    if max_faults < 1:
        raise FaultSpecError("max_faults must be at least 1")
    rng = random.Random(seed)
    specs = []
    for _ in range(rng.randint(1, max_faults)):
        kind = rng.choice(SAMPLABLE_FAULT_KINDS)
        if kind == "router_stall":
            specs.append(
                FaultSpec(
                    kind=kind,
                    router=rng.randrange(num_nodes),
                    start=rng.randrange(horizon),
                )
            )
            continue
        kwargs = {
            "rate": round(rng.uniform(*SAMPLED_RATE_RANGE), 4),
            "start": rng.randrange(horizon),
        }
        if rng.random() < 0.5:
            kwargs["router"] = rng.randrange(num_nodes)
        if kind.endswith("_delay"):
            kwargs["delay"] = rng.randint(1, SAMPLED_MAX_DELAY)
        specs.append(FaultSpec(kind=kind, **kwargs))
    return FaultSchedule(specs=specs, seed=rng.randrange(1 << 30))
