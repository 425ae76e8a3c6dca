"""Runtime enforcement of the analytical latency bounds.

A :class:`BoundChecker` subscribes to a network's delivery stream and
compares every delivered packet's realized network latency against its
certified per-route bound (:mod:`repro.guarantees.bounds`).  It is a
plain subscriber — :meth:`BoundChecker.attach` is the whole
installation, and the ``guarantees`` campaign cell is its one caller —
and two-moded: ``strict=True`` raises a structured
:class:`~repro.noc.errors.BoundViolationError` on the first violation,
``strict=False`` accumulates violations for campaign-style reporting.

Because it subscribes to the network's ``delivered`` event only, it
composes with **all three cycle kernels** — the vector engine announces
deliveries exactly like the object kernels — and never perturbs
simulation state, so a checked run is bit-identical to an unchecked
one.

A violation carries the full story: the offending packet's route
(source→destination router walk), the bound's term-by-term
decomposition, the observed latency and timeline, and — when an
:class:`~repro.noc.invariants.InvariantChecker` is installed alongside
— a rendered post-mortem with the flight recorder's recent events.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..noc.errors import BoundViolationError
from .bounds import LatencyBoundModel, UnboundableConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..noc.network import Network
    from ..noc.packet import Packet


class BoundChecker:
    """Delivery-time latency-bound verification for one network.

    Install with :meth:`attach`.  ``model`` defaults to the bound
    derived from the network's own config and policy at attach time.
    """

    def __init__(
        self,
        *,
        strict: bool = True,
        model: Optional[LatencyBoundModel] = None,
    ) -> None:
        self.strict = strict
        self.model = model
        self.network: Optional["Network"] = None
        #: Violations recorded in non-strict mode (strict mode raises).
        self.violations: List[BoundViolationError] = []
        self.checked = 0
        #: Largest observed/bound ratio over all checked deliveries
        #: (the bound-tightness figure the guarantees campaign reports).
        self.worst_ratio = 0.0
        self.worst: Optional[dict] = None

    # ------------------------------------------------------------------
    def attach(self, network: "Network") -> None:
        """Bind to ``network`` and subscribe to its delivery stream.

        The one place bounds and faults exclude each other: a network
        builds ``NoCConfig.faults`` into itself before any checker can
        attach, so a faulted network is refused here.
        """
        if network.faults is not None:
            raise UnboundableConfigError(
                "latency bounds are certified for the fault-free "
                "pipeline model; this network has a fault injector "
                "installed"
            )
        if self.model is None:
            self.model = LatencyBoundModel(network.config, network.policy)
        self.network = network
        network.subscribe("delivered", self._on_delivered)

    # ------------------------------------------------------------------
    def _on_delivered(self, packet: "Packet", cycle: int) -> None:
        if packet.source == packet.destination:
            return  # local NI delivery: no route to certify
        terms = self.model.bound(
            packet.source, packet.destination, packet.size_flits
        )
        observed = packet.network_latency
        self.checked += 1
        limit = terms.total
        ratio = observed / limit if limit else 0.0
        if ratio > self.worst_ratio:
            self.worst_ratio = ratio
            self.worst = {
                "packet_id": packet.packet_id,
                "observed": observed,
                "bound": limit,
                **terms.as_dict(),
            }
        if observed <= limit:
            return
        error = self._build_violation(packet, cycle, observed, terms)
        if self.strict:
            raise error
        self.violations.append(error)

    def _build_violation(
        self, packet: "Packet", cycle: int, observed: int, terms
    ) -> BoundViolationError:
        route = self.network.routing.path(packet.source, packet.destination)
        invariants = self.network.invariants
        post_mortem = None if invariants is None else invariants.build_post_mortem(
            cycle,
            f"pkt#{packet.packet_id} exceeded its certified "
            f"latency bound ({observed} > {terms.total})",
            packets=[packet],
        )
        return BoundViolationError(
            f"pkt#{packet.packet_id} {packet.source}->{packet.destination} "
            f"delivered in {observed} cycles, bound {terms.total} "
            f"(zero_load={terms.zero_load} serialization="
            f"{terms.serialization} contention={terms.contention} "
            f"wakeup_penalty={terms.wakeup_penalty}); timeline: "
            f"created@{packet.created_at} injected@{packet.injected_at} "
            f"delivered@{packet.delivered_at}",
            observed=observed,
            bound=terms.total,
            terms=terms.as_dict(),
            route=route,
            post_mortem=post_mortem,
            cycle=cycle,
            packet=packet.packet_id,
        )

    # ------------------------------------------------------------------
    def report(self) -> dict:
        """JSON-ready summary for campaign payloads."""
        return {
            "checked": self.checked,
            "violations": len(self.violations),
            "violation_summaries": [
                {
                    "observed": v.observed,
                    "bound": v.bound,
                    "terms": v.terms,
                    "route": list(v.route),
                }
                for v in self.violations
            ],
            "worst_ratio": self.worst_ratio,
            "worst": self.worst,
            "model": self.model.describe() if self.model else None,
        }
