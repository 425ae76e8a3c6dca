"""Full-scan reference kernel (``NoCConfig(kernel="naive")``).

The oracle the production kernels are held to.  Every cycle it visits
every NI, every router that holds a flit and every PG controller, runs
every allocator round, regenerates every punch from the buffered head
flits and decomposes every punch relay from the routing relation — as
the seed did.  It shares routers, allocators, NIs, the punch fabric's
relay rule and the scalar controller FSM with the active-set kernel
(``repro.noc.network``, ``repro.core.schemes``) and reads none of its
bookkeeping: not ``active_nis`` / ``_active_routers``, not the
scheme's ``_armed``.  (The shared event paths still *write* the sets:
a controller's ``wake_hook`` adds to ``_armed`` when it leaves OFF.)
``tests/test_kernel_equivalence.py`` poisons those
containers: a reference rewritten as "the active kernel with its sets
filled in" would agree with that kernel by construction.

One entry point: ``Network(NoCConfig(kernel="naive"), policy)`` returns
a :class:`FullScanNetwork` (``Network.__new__``); nothing else imports
this module.  Its cycle is its own phase table: scans between the
object kernel's deliveries and cycle close.  A power-gated scheme's
policy phases are scans too, so nothing is put on the scheme instance —
unless the scheme overrides one wholesale (``NoRDLike``), which then
already is a full scan and is called through ``self.policy``.
"""

from __future__ import annotations

from ..core.schemes import PowerGatedScheme
from .network import _SA_TO_ARRIVAL, Network


class _ForgetfulMemo(dict):
    """A memo that never remembers: every ``get`` misses, so the punch
    fabric decomposes every relay from the routing relation again."""

    def __setitem__(self, key, value) -> None:
        pass


class FullScanNetwork(Network):
    """A :class:`Network` stepped by full scans (see module docstring)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if isinstance(self.policy, PowerGatedScheme):
            self.policy.fabric._route_cache = _ForgetfulMemo()

    def _cycle_phases(self):
        """The phases of :meth:`Network._cycle_phases`, each a scan of
        every component in index order."""
        begin, end = self._policy_begin, self._policy_end
        scheme = type(self.policy)
        if issubclass(scheme, PowerGatedScheme):
            if scheme.begin_cycle is PowerGatedScheme.begin_cycle:
                begin = self._scan_controllers
            if scheme.end_cycle is PowerGatedScheme.end_cycle:
                end = self._scan_punches
        return self._degradation_phase() + (
            self._deliver_flits,
            self._deliver_credits,
            begin,
            self._scan_interfaces,
            self._scan_allocation,
            end,
            self._close_cycle,
        )

    def _scan_controllers(self, cycle: int) -> None:
        """``PowerGatedScheme.begin_cycle`` as a scan of every node: the
        NI's WU wire, then one real FSM step, in index order."""
        scheme = self.policy
        scheme.fabric.deliver(cycle)
        controllers = scheme.controllers
        for node in scheme._slack2_held(cycle):
            controllers[node].request_wakeup(cycle, 0)
        interfaces = self.interfaces
        routers = self.routers
        for node, controller in enumerate(controllers):
            ni_wants = interfaces[node].wants_local_router(cycle)
            if ni_wants:
                controller.request_wakeup(cycle, 0)
            controller.step(cycle, routers[node].datapath_empty(), ni_wants)

    def _scan_interfaces(self, cycle: int) -> None:
        """NI injection, asked of every NI in index order."""
        for ni in self.interfaces:
            if ni.has_work():
                ni.step(cycle)

    def _scan_allocation(self, cycle: int) -> None:
        """A VA, then an SA round in every router holding a flit that no
        fault stalls."""
        available_by = self.policy.is_router_available_by
        arrival_cycle = cycle + _SA_TO_ARRIVAL
        busy = self._unstalled([router for router in self.routers if router._occupied], cycle)
        for router in busy:
            router.do_vc_allocation(cycle)
        for router in busy:
            self._run_switch_allocation(router, cycle, available_by, arrival_cycle)

    def _scan_punches(self, cycle: int) -> None:
        """``PowerGatedScheme.end_cycle`` recomputed from scratch: punch
        targets of every buffered head flit, every router, every cycle;
        every NI is asked for injection punches, queued work or not."""
        scheme = self.policy
        ahead = scheme._router_ahead
        hops = scheme.punch_hops
        for router in self.routers:
            requirements = router.head_flit_requirements()
            if requirements:
                rid = router.router_id
                targets = {ahead(rid, dest, hops) for _next, dest in requirements}
                scheme.fabric.send_local(rid, targets, cycle)
        for node, targets in scheme._generate_injection_punches(cycle, self.interfaces):
            scheme.fabric.send_local(node, targets, cycle)

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
