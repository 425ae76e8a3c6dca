"""Analytical per-route worst-case latency bounds.

Composes a certified worst-case *network* latency (head-flit injection
to tail ejection, ``Packet.network_latency``) for every route from the
pieces the simulator already defines:

``zero_load``
    The pinned zero-load pipeline formula (see ``tests/test_network``):
    one NI→router link cycle, ``router_stages + LINK_LATENCY`` per hop,
    and the destination router's remaining ``router_stages - 1`` pipe
    stages.
``serialization``
    ``size_flits - 1`` extra cycles for the tail to follow the head.
``contention``
    An arbitration allowance per router visited (``hops + 1``
    routers, source through destination): a head flit can wait for the
    other ``num_vcs - 1`` virtual channels to each drain one maximal
    packet through the shared switch, i.e.
    ``(num_vcs - 1) * max_packet_flits`` cycles per router.  This is
    the *admissible-load* term: it holds below saturation (validated
    empirically by the guarantees campaign at the paper's full
    evaluated load, 0.20 flits/node/cycle uniform-random, with ~2x
    margin) but no open-loop bound survives a saturated pattern —
    NI queueing is unbounded there and in-network backlog follows.
``wakeup_penalty``
    The per-scheme power-gating term, ``hops *`` a per-hop penalty
    (the source router's wakeup stalls the packet *before* injection,
    outside network latency; every downstream router can be asleep).
    Per hop: ``wakeup_latency`` for conventional one-hop lookahead
    (ConvOpt-PG — without the forewarning window nothing is certified
    hidden), and ``max(0, wakeup_latency - punch_hops * router_stages)``
    for punch schemes (a punch H hops ahead hides H router traversals;
    see ``PowerGatedScheme.punch_horizon``).  Zero for always-on policies.

The **non-blocking certificate** is the analytical identity this
decomposition makes checkable: with the default parameters
(``wakeup_latency=8``, ``router_stages=3`` → ``punch_hops=3``,
slack ``9 >= 8``), PowerPunch's wakeup penalty is exactly zero, so its
bound equals No-PG's *for every route* — power gating is invisible to
the worst case.  :func:`certify_non_blocking` verifies the equality
route by route rather than asserting the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..noc import DATA_PACKET_FLITS, NoCConfig
from ..noc.config import LINK_LATENCY


class UnboundableConfigError(ValueError):
    """No certified latency bound exists for this configuration.

    Raised at model/checker construction time (a :class:`ValueError`:
    it is a configuration problem) — e.g. an unknown power-gating
    policy, a scheme with out-of-band transport (NoRD's bypass ring
    delivers over uncertified detours), or a network with a fault
    injector installed (faults void the fault-free pipeline model the
    bound is composed from).
    """


@dataclass(frozen=True)
class BoundTerms:
    """One route's bound, decomposed term by term."""

    source: int
    destination: int
    hops: int
    size_flits: int
    zero_load: int
    serialization: int
    contention: int
    wakeup_penalty: int

    @property
    def total(self) -> int:
        """The certified worst-case network latency, in cycles."""
        return (
            self.zero_load
            + self.serialization
            + self.contention
            + self.wakeup_penalty
        )

    def as_dict(self) -> Dict[str, int]:
        return {
            "source": self.source,
            "destination": self.destination,
            "hops": self.hops,
            "size_flits": self.size_flits,
            "zero_load": self.zero_load,
            "serialization": self.serialization,
            "contention": self.contention,
            "wakeup_penalty": self.wakeup_penalty,
            "total": self.total,
        }


def wakeup_penalty_per_hop(scheme, config: NoCConfig) -> int:
    """Certified worst-case wakeup stall per downstream router.

    * Always-on policies (``No-PG``, or no policy at all): 0.
    * Forewarned punch schemes: ``max(0, wakeup_latency - punch_hops *
      router_stages)`` — the punch races ahead of the head flit by one
      router traversal per punch hop, and forewarning pins the woken
      router awake for the expectation window, so only the uncovered
      residual can ever stall the packet.
    * Non-forewarned lookahead (ConvOpt-PG): the full per-wakeup stall
      from the controller contract (``wakeup_latency``: a request that
      finds the router OFF makes it available exactly that much later,
      and forewarning and retries only move a wakeup earlier).  The one-hop
      wakeup usually hides a few cycles in practice, but without the
      forewarning hold the neighbor may time out and re-sleep before
      the head arrives, so nothing is *certified* hidden.

    Schemes outside the power-gating hierarchy (e.g. NoRD's bypass
    ring, which delivers over out-of-band detours) raise
    :class:`UnboundableConfigError`.
    """
    from ..baselines.nord import NoRDLike
    from ..core.schemes import NoPG, PowerGatedScheme
    from ..noc.policy import PowerPolicy

    if scheme is None or isinstance(scheme, NoPG) or type(scheme) is PowerPolicy:
        return 0
    if isinstance(scheme, NoRDLike):
        raise UnboundableConfigError(
            "NoRD-like bypass-ring schemes deliver packets over "
            "out-of-band detours; no certified per-route bound exists"
        )
    if not isinstance(scheme, PowerGatedScheme):
        raise UnboundableConfigError(
            f"no certified wakeup-penalty model for scheme "
            f"{getattr(scheme, 'name', type(scheme).__name__)!r}"
        )
    if scheme.use_forewarning:
        hidden = scheme.punch_horizon(config) * config.router_stages
        return max(0, scheme.wakeup_latency - hidden)
    return int(scheme.wakeup_latency)


class LatencyBoundModel:
    """Per-route worst-case latency calculator for one configuration.

    ``scheme`` may be any power policy (or ``None`` for always-on).
    Bounds certify the fault-free pipeline, so every route is the
    mesh's XY route and its length is the topology's hop distance.
    The two override knobs exist for *negative* testing — asserting a
    bound a configuration cannot meet (e.g. ``penalty_per_hop=0`` on a
    blocking scheme, or ``contention_per_router=0`` under load) so the
    runtime checker's firing path stays proven.
    """

    def __init__(
        self,
        config: NoCConfig,
        scheme=None,
        *,
        contention_per_router: Optional[int] = None,
        penalty_per_hop: Optional[int] = None,
        max_packet_flits: int = DATA_PACKET_FLITS,
    ) -> None:
        self.config = config
        self.scheme = scheme
        self.topology = config.make_topology()
        self.max_packet_flits = max_packet_flits
        if contention_per_router is None:
            contention_per_router = (config.num_vcs - 1) * max_packet_flits
        self.contention_per_router = contention_per_router
        if penalty_per_hop is None:
            penalty_per_hop = wakeup_penalty_per_hop(scheme, config)
        self.penalty_per_hop = penalty_per_hop

    # ------------------------------------------------------------------
    def bound(
        self, source: int, destination: int, size_flits: Optional[int] = None
    ) -> BoundTerms:
        """The decomposed bound for one route (and one packet size)."""
        if size_flits is None:
            size_flits = self.max_packet_flits
        cfg = self.config
        hops = self.topology.hop_distance(source, destination)
        per_hop = cfg.hop_latency
        zero_load = (
            1 + hops * per_hop + (cfg.router_stages - 1) if hops else 0
        )
        return BoundTerms(
            source=source,
            destination=destination,
            hops=hops,
            size_flits=size_flits,
            zero_load=zero_load,
            serialization=size_flits - 1 if hops else 0,
            contention=(hops + 1) * self.contention_per_router if hops else 0,
            wakeup_penalty=hops * self.penalty_per_hop,
        )

    def describe(self) -> Dict[str, object]:
        """Model parameters, for result payloads and reports."""
        return {
            "scheme": getattr(self.scheme, "name", "No-PG"),
            "topology": self.config.topology,
            "router_stages": self.config.router_stages,
            "link_latency": LINK_LATENCY,
            "num_vcs": self.config.num_vcs,
            "max_packet_flits": self.max_packet_flits,
            "contention_per_router": self.contention_per_router,
            "wakeup_penalty_per_hop": self.penalty_per_hop,
        }


def certify_non_blocking(
    config: Optional[NoCConfig] = None,
    scheme=None,
    reference=None,
) -> Dict[str, object]:
    """Prove (or refute) the non-blocking certificate route by route.

    Compares ``scheme``'s analytical bound against ``reference``'s
    (default: the No-PG always-on baseline) for **every** ordered
    source/destination pair of the fabric.  The certificate holds iff
    the bounds are equal on every route — i.e. power gating adds
    nothing to any packet's certified worst case.

    Returns a JSON-ready verdict: route counts, the number of equal
    routes, the largest per-route gap in cycles, and both models'
    parameters.
    """
    from ..core import PowerPunchPG

    if config is None:
        config = NoCConfig()
    if scheme is None:
        scheme = PowerPunchPG()
    model = LatencyBoundModel(config, scheme)
    base = LatencyBoundModel(config, reference)
    routes = equal = 0
    max_gap = 0
    worst_route = None
    for source in range(config.num_nodes):
        for destination in range(config.num_nodes):
            if source == destination:
                continue
            routes += 1
            gap = (
                model.bound(source, destination).total
                - base.bound(source, destination).total
            )
            if gap == 0:
                equal += 1
            elif gap > max_gap:
                max_gap = gap
                worst_route = [source, destination]
    return {
        "scheme": getattr(scheme, "name", type(scheme).__name__),
        "reference": getattr(reference, "name", "No-PG"),
        "routes": routes,
        "equal_routes": equal,
        "non_blocking": equal == routes,
        "max_gap_cycles": max_gap,
        "worst_route": worst_route,
        "wakeup_penalty_per_hop": model.penalty_per_hop,
        "model": model.describe(),
    }
