"""Full-scan reference kernel (``NoCConfig(kernel="naive")``).

The oracle the production kernels are held to.  Every cycle it visits
every NI, every router that holds a flit and every PG controller, runs
every allocator round, regenerates every punch from the buffered head
flits and decomposes every punch relay from the routing relation — as
the seed did.  It shares routers, allocators, NIs, the punch fabric's
relay rule and the scalar controller FSM with the active-set kernel
(``repro.noc.network``, ``repro.core.schemes``) and reads none of its
bookkeeping: not ``active_nis`` / ``_active_routers``, not a router's
allocator wake deadlines, not the scheme's ``_armed`` /
``_sleep_deadlines`` / ``_punch_cache``.  (The shared event paths still
*write* the sets and the controllers keep their hooks; nothing is ever
parked here, so ``on_router_disturbed`` / ``on_router_emptied`` find
nothing to do.)  ``tests/test_kernel_equivalence.py`` poisons those
containers: a reference rewritten as "the active kernel with its sets
filled in" would agree with that kernel by construction.

One entry point: ``Network(NoCConfig(kernel="naive"), policy)`` returns
a :class:`FullScanNetwork` (``Network.__new__``); nothing else imports
this module.  Both steppers call ``self.policy.begin_cycle(cycle)`` /
``.end_cycle(cycle)`` afresh every cycle, so a caller may wrap either
on the policy instance after construction (``bench/mesh.py`` does).
"""

from __future__ import annotations

from types import MethodType

from ..core.schemes import PowerGatedScheme
from .errors import NetworkClosedError
from .network import _SA_TO_ARRIVAL, Network


class _ForgetfulMemo(dict):
    """A memo that never remembers: every ``get`` misses, so the punch
    fabric decomposes every relay from the routing relation again."""

    def __setitem__(self, key, value) -> None:
        pass


def _begin_cycle(scheme: PowerGatedScheme, cycle: int) -> None:
    """``PowerGatedScheme.begin_cycle`` as a scan of every node: the
    NI's WU wire, then one real FSM step, in index order."""
    scheme.fabric.deliver(cycle)
    controllers = scheme.controllers
    for node in scheme._slack2_held(cycle):
        controllers[node].request_wakeup(cycle, 0)
    interfaces = scheme.network.interfaces
    routers = scheme.network.routers
    for node, controller in enumerate(controllers):
        ni_wants = interfaces[node].wants_local_router(cycle)
        if ni_wants:
            controller.request_wakeup(cycle, 0)
        controller.step(cycle, routers[node].datapath_empty(), ni_wants)
    # Every controller was just stepped, so its lazy-accounting clock
    # (read by ``off_cycles`` and friends) owes it nothing.
    scheme._stepped_through = cycle


def _end_cycle(scheme: PowerGatedScheme, cycle: int) -> None:
    """``PowerGatedScheme.end_cycle`` recomputed from scratch: punch
    targets of every buffered head flit, every router, every cycle."""
    ahead = scheme._router_ahead
    hops = scheme.punch_hops
    for router in scheme.network.routers:
        requirements = router.head_flit_requirements()
        if requirements:
            rid = router.router_id
            targets = {ahead(rid, dest, hops) for _next, dest in requirements}
            scheme.fabric.send_local(rid, targets, cycle)
    for node, targets in scheme._generate_injection_punches(cycle):
        scheme.fabric.send_local(node, targets, cycle)


def _punching_interfaces(scheme: PowerGatedScheme):
    """Every NI is asked for injection punches, queued work or not."""
    return scheme.network.interfaces


#: What the reference puts in place of a power-gated scheme's work-set
#: methods.  A scheme that overrides one of them wholesale (``NoRDLike``
#: steps every controller itself and sends no transit punches) keeps
#: its own: it already is a full scan.
_SCHEME_SCANS = {
    "begin_cycle": _begin_cycle,
    "end_cycle": _end_cycle,
    "_punching_interfaces": _punching_interfaces,
}


class FullScanNetwork(Network):
    """A :class:`Network` stepped by full scans (see module docstring)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        scheme = self.policy
        if isinstance(scheme, PowerGatedScheme):
            scheme.fabric._route_cache = _ForgetfulMemo()
            for name, scan in _SCHEME_SCANS.items():
                if getattr(type(scheme), name) is getattr(PowerGatedScheme, name):
                    setattr(scheme, name, MethodType(scan, scheme))

    def close(self) -> None:
        """Also take the scans back off the policy: a bound method in an
        instance's own ``__dict__`` is a reference cycle."""
        super().close()
        for name in _SCHEME_SCANS:
            vars(self.policy).pop(name, None)

    def is_drained(self) -> bool:
        """Whether no packet, flit, credit or policy work is outstanding
        anywhere — asked of every NI and every router."""
        if any(ni.pending_packets() for ni in self.interfaces):
            return False
        if not all(router.datapath_empty() for router in self.routers):
            return False
        for queue in (self._flit_events, self._eject_events, self._credit_events):
            if any(queue.values()):
                return False
        return self.policy.pending_work() == 0

    def step(self) -> None:
        """Advance one cycle: the phases of :meth:`Network.step`, each a
        scan of every component in index order."""
        if self.closed:
            raise NetworkClosedError("step() on a closed network", cycle=self.cycle)
        cycle = self.cycle
        if self.faults is not None and self.config.degradation != "none":
            self._check_degradation(cycle)
        self._deliver_flits(cycle)
        self._deliver_credits(cycle)
        self.policy.begin_cycle(cycle)
        for ni in self.interfaces:
            if ni.has_work():
                ni.step(cycle)
        available_by = self.policy.is_router_available_by
        arrival_cycle = cycle + _SA_TO_ARRIVAL
        busy = self._unstalled([router for router in self.routers if router._occupied], cycle)
        for router in busy:
            router.do_vc_allocation(cycle)
        for router in busy:
            self._run_switch_allocation(router, cycle, available_by, arrival_cycle)
        self._close_cycle(cycle)
