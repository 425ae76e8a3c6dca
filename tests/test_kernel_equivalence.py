"""Cycle-exactness of the active-set and vector kernels, and of the
seam between them.

The active-set kernel (``NoCConfig.kernel == "active"``), the
structure-of-arrays vector kernel (``kernel == "vector"``, see
``repro.noc.vector``) and the default that moves between the two at run
time (``kernel == "auto"``) must be observationally identical replicas
of the naive full-scan kernel (``kernel == "naive"``, the seed
implementation): same stats counter by counter, same controller
accounting, same per-packet timing — for every scheme, under synthetic
and full-system PARSEC traffic.

Layers of evidence:

* golden equivalence — full :meth:`NetworkStats.as_dict` dumps compared
  between all kernels for all four schemes (plus the NoRD-like
  baseline, which exercises the vector kernel's fallback path) across
  two seeds, and a PARSEC ``Chip`` run compared end to end;
* a hypothesis property — random ``(scheme, rate, seed)`` triples give
  identical fingerprints across all kernels, including under
  ``degradation="reroute"`` with router-stall faults (where the vector
  kernel must decline engagement and run on the active fallback);
* a hypothesis property — at every cycle the active kernel's work-sets
  contain every component the naive scan would visit (routers with
  occupied VCs, NIs with work, non-OFF controllers);
* one wake door — the active kernel's ``request_wakeup`` calls equal
  the naive kernel's, as a multiset of ``(router, cycle, window)``;
* every allocator round — the active kernel runs VA and SA in exactly
  the ``(cycle, router)`` sequence the full scan does;
* oracle independence — the naive kernel (``repro.noc.reference``)
  reproduces its own results with every work-set made unreadable, so it
  cannot be the active kernel with its sets filled in, and it puts
  nothing on the scheme instance;
* the seam — an exhaustive check on 2x2 and 3x3 meshes that engaging
  the vector engine from live state before *any* cycle and
  materializing it back 1, 2 or 9 cycles later changes nothing, a
  hypothesis property over random switch schedules on 6x6/8x8, a
  closed-loop ``Chip`` run switched twice, and a census of the two
  mirrored classes' slots against the seam tables;
* the decision — which side of the seam the default kernel runs the
  repo's own workloads on.
"""

import functools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import NoRDLike
from repro.core import ConvOptPG, NoPG, PowerPunchPG, PowerPunchSignal
from repro.noc import Network, NoCConfig
from repro.noc.buffers import VirtualChannel
from repro.noc.network import _ENGAGE_ABOVE, _NEVER, _SELECT_WINDOW
from repro.noc.router import Router
from repro.powergate.controller import PGState, PowerGateController
from repro.system import Chip, get_profile
from repro.traffic import SyntheticTraffic, measure

KERNELS = ("active", "naive", "vector", "auto")

SCHEMES = {
    "NoPG": NoPG,
    "ConvOptPG": ConvOptPG,
    "PowerPunchSignal": PowerPunchSignal,
    "PowerPunchPG": PowerPunchPG,
    "NoRDLike": NoRDLike,
}


def _dump(net):
    """Everything a run leaves behind that a kernel could get wrong."""
    dump = dict(net.stats.as_dict())
    policy = net.policy
    if hasattr(policy, "controllers") and policy.controllers:
        dump["total_off_cycles"] = policy.total_off_cycles()
        dump["total_wake_events"] = policy.total_wake_events()
        dump["controllers"] = [
            (
                c.state,
                c.idle_cycles,
                c.wake_at,
                c.expect_until,
                c.last_sleep_cycle,
                c.retry_at,
                c.on_cycles,
                c.wake_events,
            )
            for c in policy.controllers
        ]
    return dump


def _run_synthetic(scheme_name, kernel, seed, rate=0.02):
    net = Network(NoCConfig(kernel=kernel), SCHEMES[scheme_name]())
    traffic = SyntheticTraffic(net, "uniform_random", rate, seed=seed)
    measure(net, traffic, warmup=200, measurement=800)
    return _dump(net)


@functools.lru_cache(maxsize=None)
def _naive_synthetic(scheme_name, seed):
    """The oracle's dump, computed once for all candidate kernels."""
    return _run_synthetic(scheme_name, "naive", seed)


def _toggle_engine(net):
    """Test-only seam control: move ``net`` onto the vector engine
    (built from live state) or back onto the object kernel, whatever
    its active set looks like, and keep the run-time selection out of
    the way from here on."""
    net._select_at = _NEVER
    if net._engine is None:
        net._engage_vector()
        assert net._engine is not None
    else:
        net._engine.materialize()


def _run_switched(scheme_name, size, rate, seed, cycles, schedule, kernel="auto"):
    """Open-loop run to drain, toggling the engine before every cycle
    in ``schedule``; returns the dump and the total cycle count."""
    net = Network(
        NoCConfig(width=size, height=size, kernel=kernel), SCHEMES[scheme_name]()
    )
    traffic = SyntheticTraffic(net, "uniform_random", rate, seed=seed)
    while True:
        if net.cycle in schedule:
            _toggle_engine(net)
        if net.cycle < cycles:
            traffic.step()
        elif net.cycle == cycles:
            traffic._release_all()
        elif net.is_drained():
            return _dump(net), net.cycle
        net.step()


class TestKernelEquivalence:
    @pytest.mark.parametrize("kernel", ["active", "vector", "auto"])
    @pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
    @pytest.mark.parametrize("seed", [7, 23])
    def test_synthetic_uniform_random(self, scheme_name, seed, kernel):
        candidate = _run_synthetic(scheme_name, kernel, seed)
        assert candidate == _naive_synthetic(scheme_name, seed)

    def test_vector_engine_engages(self):
        # Guard against silently testing the fallback: the whitelisted
        # schemes must actually run on the SoA engine.
        net = Network(NoCConfig(kernel="vector"), PowerPunchPG())
        net.step()
        assert net._engine is not None
        # ...while the NoRD-like baseline (auxiliary transport the
        # engine does not model) must decline engagement.
        net = Network(NoCConfig(kernel="vector"), NoRDLike())
        net.step()
        assert net._engine is None

    def test_parsec_chip(self):
        results = []
        for kernel in KERNELS:
            chip = Chip(
                NoCConfig(width=4, height=4, kernel=kernel),
                PowerPunchPG(),
                get_profile("bodytrack"),
                instructions_per_core=400,
                seed=3,
                benchmark="bodytrack",
            )
            result = chip.run(max_cycles=500_000)
            results.append(
                (
                    result.execution_time,
                    result.packets,
                    chip.network.stats.as_dict(),
                    chip.network.policy.total_off_cycles(),
                )
            )
        assert all(result == results[0] for result in results)

    def test_strict_invariants_clean_on_active_kernel(self):
        net = Network(NoCConfig(kernel="active", strict_invariants=True), PowerPunchPG())
        traffic = SyntheticTraffic(net, "uniform_random", 0.02, seed=11)
        traffic.run(600)
        traffic.drain()
        assert net.invariants.checks_run > 0


class TestMidStreamSleepRegression:
    """A router must not power-gate while an input VC holds a live
    (drained mid-packet) allocation.

    Falsifying example found by the three-kernel fingerprint property:
    near saturation a stream stalls long enough for its next-hop
    router's buffers to drain and its idle timeout to lapse, so the
    router slept between the stream's body flits.  Only head flits
    assert punch/wakeup wires, so the stranded tail could never wake
    the router again and the network deadlocked (``DrainTimeoutError``
    with the remnant of the stream in flight) — identically on all
    three kernels.  ``Router.datapath_empty`` now also requires every
    input-VC allocation to be released (``_live_vcs == 0``), which is
    the hardware-faithful reading of the paper's sleep precondition:
    a mid-wormhole VC's route/ownership state is datapath state.
    """

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_near_saturation_run_drains(self, kernel):
        net = Network(NoCConfig(kernel=kernel), PowerPunchSignal())
        traffic = SyntheticTraffic(
            net, "uniform_random", 0.06027341367988463, seed=5076
        )
        # Deadlocked inside the drain phase before the fix.
        measure(net, traffic, warmup=200, measurement=800)
        assert net.stats.delivered > 0
        assert net.is_drained()


class TestKernelFingerprintProperty:
    """Random workloads give identical fingerprints on every kernel."""

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        rate=st.floats(min_value=0.005, max_value=0.08),
        scheme_name=st.sampled_from(sorted(SCHEMES)),
    )
    def test_fingerprints_match(self, seed, rate, scheme_name):
        dumps = [
            _run_synthetic(scheme_name, kernel, seed, rate) for kernel in KERNELS
        ]
        assert all(dump == dumps[0] for dump in dumps)

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        rate=st.floats(min_value=0.005, max_value=0.05),
        dead=st.integers(min_value=0, max_value=15),
        scheme_name=st.sampled_from(["NoPG", "ConvOptPG", "PowerPunchPG"]),
    )
    def test_fingerprints_match_under_reroute_faults(
        self, seed, rate, dead, scheme_name
    ):
        # Fault injection is outside the vector engine's covered
        # configurations: kernel="vector" must decline engagement and
        # run bit-identically on the active fallback.
        dumps = []
        for kernel in KERNELS:
            config = NoCConfig(
                width=4,
                height=4,
                kernel=kernel,
                degradation="reroute",
                dead_router_threshold=50,
                faults=f"router_stall,router={dead},start=100",
            )
            net = Network(config, SCHEMES[scheme_name]())
            traffic = SyntheticTraffic(net, "uniform_random", rate, seed=seed)
            traffic.run(400)
            if kernel in ("vector", "auto"):
                assert net._engine is None
            dumps.append(dict(net.stats.as_dict()))
        assert all(dump == dumps[0] for dump in dumps)


class TestActiveSetCoverageProperty:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        rate=st.floats(min_value=0.005, max_value=0.08),
        scheme_name=st.sampled_from(sorted(SCHEMES)),
    )
    def test_work_sets_cover_naive_scan(self, seed, rate, scheme_name):
        net = Network(
            NoCConfig(width=4, height=4, kernel="active"), SCHEMES[scheme_name]()
        )
        traffic = SyntheticTraffic(net, "uniform_random", rate, seed=seed)
        policy = net.policy
        scheme_like = hasattr(policy, "_armed")
        for _ in range(150):
            traffic.step()
            net.step()
            for router in net.routers:
                if router._occupied:
                    assert router.router_id in net.active_routers
            for ni in net.interfaces:
                if ni.has_work():
                    assert ni.node in net.active_nis
            if scheme_like:
                for controller in policy.controllers:
                    # Only an OFF controller may go unstepped.
                    if controller.state is not PGState.OFF:
                        assert controller.router_id in policy._armed


class _WriteOnly:
    """Stand-in for a work-set: takes every write the shared event
    paths make, fails the test on any read."""

    def add(self, item):
        pass

    discard = add

    def update(self, items):
        pass

    def _read(self, *args):
        raise AssertionError("the full-scan reference read a work-set")

    __iter__ = __contains__ = __len__ = __or__ = __ror__ = _read


def _poison_work_sets(net):
    """Swap out everything the active-set kernel skips work by.  The
    NIs' ``on_work`` and the controllers' ``wake_hook`` stay bound to
    the real sets' ``add`` — writes, which the reference may make."""
    net.active_nis = _WriteOnly()
    net._active_routers = _WriteOnly()
    if hasattr(net.policy, "_armed"):
        net.policy._armed = _WriteOnly()


class TestOracleIndependence:
    """``kernel="naive"`` is an independent full scan, not the active
    kernel with its sets filled in: with every work-set unreadable from
    construction to drain, it still produces the naive results."""

    def test_golden_harness_without_work_sets(self):
        net = Network(NoCConfig(topology="mesh", kernel="naive"), PowerPunchPG())
        _poison_work_sets(net)
        traffic = SyntheticTraffic(net, "uniform_random", 0.01, seed=7)
        measure(net, traffic, warmup=500, measurement=2000)
        # tests/test_goldens.py pins the same harness, work-sets intact.
        assert net.stats.total_blocked_routers == 653
        assert net.stats.delivered == 515

    @pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
    def test_every_scheme_without_work_sets(self, scheme_name):
        net = Network(NoCConfig(kernel="naive"), SCHEMES[scheme_name]())
        _poison_work_sets(net)
        traffic = SyntheticTraffic(net, "uniform_random", 0.02, seed=7)
        measure(net, traffic, warmup=200, measurement=800)
        assert _dump(net) == _naive_synthetic(scheme_name, 7)

    def test_reroute_around_a_stalled_router_without_work_sets(self):
        dumps = []
        for poisoned in (False, True):
            config = NoCConfig(
                width=4,
                height=4,
                kernel="naive",
                degradation="reroute",
                dead_router_threshold=50,
                faults="router_stall,router=5,start=100",
            )
            net = Network(config, PowerPunchPG())
            if poisoned:
                _poison_work_sets(net)
            traffic = SyntheticTraffic(net, "uniform_random", 0.05, seed=3)
            traffic.run(400)
            traffic.drain()
            assert net.dead_routers == {5} and net.stats.rerouted_packets > 0
            dumps.append((net.cycle, _dump(net)))
        assert dumps[0] == dumps[1]

    @pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
    def test_nothing_put_on_the_policy_instance(self, scheme_name):
        # The scans are the reference's own phases: it leaves the
        # scheme's instance attributes exactly as the active kernel does.
        attributes = {}
        for kernel in ("active", "naive"):
            net = Network(NoCConfig(kernel=kernel), SCHEMES[scheme_name]())
            SyntheticTraffic(net, "uniform_random", 0.02, seed=7).run(50)
            attributes[kernel] = set(vars(net.policy))
        assert attributes["naive"] == attributes["active"]

    def test_the_poison_bites(self):
        # The same swap on the active-set kernel must trip at once, or
        # the two tests above prove nothing.
        net = Network(NoCConfig(kernel="active"), PowerPunchPG())
        _poison_work_sets(net)
        with pytest.raises(AssertionError, match="read a work-set"):
            net.step()


GATED_SCHEMES = ["ConvOptPG", "PowerPunchSignal", "PowerPunchPG"]
ENGINE_SCHEMES = ["NoPG"] + GATED_SCHEMES


class TestOneWakeDoor:
    """Every wake request of the object kernel enters through
    ``PowerGateController.request_wakeup``: the active-set kernel makes
    exactly the calls the full scan makes (in a different order within
    a cycle), none absorbed on the way."""

    @pytest.mark.parametrize("scheme_name", GATED_SCHEMES)
    def test_request_wakeup_calls_match_naive(self, scheme_name, monkeypatch):
        calls = []
        request_wakeup = PowerGateController.request_wakeup

        def recording(controller, cycle, expectation_window=0):
            calls.append((controller.router_id, cycle, expectation_window))
            request_wakeup(controller, cycle, expectation_window)

        monkeypatch.setattr(PowerGateController, "request_wakeup", recording)
        seen = {}
        for kernel in ("active", "naive"):
            calls.clear()
            net = Network(
                NoCConfig(width=4, height=4, kernel=kernel), SCHEMES[scheme_name]()
            )
            traffic = SyntheticTraffic(net, "uniform_random", 0.05, seed=3)
            measure(net, traffic, warmup=100, measurement=500)
            seen[kernel] = Counter(calls)
        assert sum(seen["naive"].values()) > 0
        assert seen["active"] == seen["naive"]


class TestEveryAllocatorRound:
    """The active-set kernel skips no allocator round: every router
    holding a flit runs VA and then SA every cycle it is not stalled,
    in the order the full scan runs them — the active sets restrict
    *which* routers are visited, never *when*."""

    @pytest.mark.parametrize("scheme_name", GATED_SCHEMES)
    def test_allocator_schedule_matches_naive(self, scheme_name, monkeypatch):
        rounds = []

        def recording(stage, allocate):
            def wrapper(router, cycle, *args):
                if router._occupied:
                    rounds.append((stage, cycle, router.router_id))
                return allocate(router, cycle, *args)

            return wrapper

        monkeypatch.setattr(
            Router, "do_vc_allocation", recording("va", Router.do_vc_allocation)
        )
        monkeypatch.setattr(
            Router, "do_switch_allocation", recording("sa", Router.do_switch_allocation)
        )
        seen = {}
        for kernel in ("active", "naive"):
            rounds.clear()
            net = Network(
                NoCConfig(width=4, height=4, kernel=kernel), SCHEMES[scheme_name]()
            )
            traffic = SyntheticTraffic(net, "uniform_random", 0.2, seed=3)
            measure(net, traffic, warmup=100, measurement=300)
            # The load stalls heads behind gated and congested routers.
            assert net.stats.total_blocked_routers > 0
            seen[kernel] = list(rounds)
        assert seen["naive"]
        assert seen["active"] == seen["naive"]


class TestMaterializeMidRun:
    """Regression: ``VectorEngine.materialize()`` used to rebind
    ``scheme._armed`` to a fresh set while every controller's
    ``wake_hook`` stayed bound to the old set's ``add``.  After any
    mid-run disengage a controller that left OFF was never stepped
    again and sat in WAKING for the rest of the run; the numbers
    diverged silently (NoPG, with no controllers, was unaffected)."""

    @pytest.mark.parametrize("scheme_name", GATED_SCHEMES)
    def test_disengage_mid_run_matches_naive(self, scheme_name):
        dumps = []
        for kernel in ("naive", "vector"):
            net = Network(
                NoCConfig(width=6, height=6, kernel=kernel), SCHEMES[scheme_name]()
            )
            traffic = SyntheticTraffic(net, "uniform_random", 0.2, seed=7)
            for cycle in range(250):
                if cycle == 100:
                    net._disengage_vector()
                traffic.step()
                net.step()
            dumps.append(_dump(net))
        assert dumps[1] == dumps[0]


class TestExhaustiveSwitchPoints:
    """A finite proof for both directions of the seam on small meshes:
    for *every* cycle ``c`` of the run (injection window and drain),
    importing the live state into a vector engine before ``c`` and
    materializing it back before ``c + k`` leaves the full dump equal
    to the naive kernel's."""

    INJECT_CYCLES = 24

    @pytest.mark.parametrize("size", [2, 3])
    @pytest.mark.parametrize("scheme_name", ENGINE_SCHEMES)
    def test_every_switch_point(self, scheme_name, size):
        workload = (scheme_name, size, 0.3, 3, self.INJECT_CYCLES)
        naive, total = _run_switched(*workload, schedule=(), kernel="naive")
        assert naive["delivered"] > 5
        if scheme_name != "NoPG":
            # The run must exercise sleeping and waking, or importing
            # controller state proves nothing.
            assert naive["total_wake_events"] > 0
        for c in range(total):
            for k in (1, 2, 9):
                got, _ = _run_switched(*workload, schedule=(c, c + k))
                assert got == naive, (c, k)


class TestSeamCoverage:
    """Every field of the two mirrored classes is on exactly one side of
    the object/array seam: a row of the table ``_import`` /
    ``materialize`` (``ControllerArrayBank()`` / ``flush_into``) loop
    over, or a name in the list next to it.  A new slot that neither
    direction would carry fails here, not in a switched run."""

    def test_every_controller_slot(self):
        bank = pytest.importorskip("repro.powergate.bank")
        named = [row[1] for row in bank.MIRRORED_FIELDS]
        named += [*bank.RESET_BY_FLUSH, *bank.OBJECT_ONLY_FIELDS]
        assert sorted(named) == sorted(PowerGateController.__slots__)

    def test_every_virtual_channel_slot(self):
        pytest.importorskip("numpy")
        from repro.noc import vector

        named = [row[1] for row in vector.VC_FIELDS] + [*vector.VC_FIELDS_ELSEWHERE]
        assert sorted(named) == sorted(VirtualChannel.__slots__)


class TestSwitchScheduleProperty:
    @settings(max_examples=8, deadline=None)
    @given(
        scheme_name=st.sampled_from(ENGINE_SCHEMES),
        size=st.sampled_from([6, 8]),
        rate=st.floats(min_value=0.005, max_value=0.2),
        seed=st.integers(min_value=0, max_value=2**16),
        schedule=st.sets(st.integers(min_value=0, max_value=219), max_size=6),
    )
    def test_any_switch_schedule_matches_naive(
        self, scheme_name, size, rate, seed, schedule
    ):
        workload = (scheme_name, size, rate, seed, 160)
        naive, _ = _run_switched(*workload, schedule=(), kernel="naive")
        switched, _ = _run_switched(*workload, schedule=schedule)
        assert switched == naive

    def test_closed_loop_chip_with_two_switches(self):
        results = []
        for schedule in ((), (150, 420)):
            chip = Chip(
                NoCConfig(width=4, height=4, kernel="auto" if schedule else "naive"),
                PowerPunchPG(),
                get_profile("canneal"),
                instructions_per_core=400,
                seed=3,
                benchmark="canneal",
            )
            net = chip.network
            step = net.step

            def switching_step(net=net, step=step, schedule=schedule):
                if net.cycle in schedule:
                    _toggle_engine(net)
                step()

            net.step = switching_step
            result = chip.run(max_cycles=500_000)
            assert result.execution_time > max(schedule, default=0)
            results.append((result.execution_time, result.packets, _dump(net)))
        assert results[1] == results[0]


def _engaged_cycles(net, rate, cycles, seed=7):
    """Drive ``net`` open-loop; the cycles it ran on the vector engine."""
    traffic = SyntheticTraffic(net, "uniform_random", rate, seed=seed)
    engaged = []
    for cycle in range(cycles):
        traffic.step()
        net.step()
        if net._engine is not None:
            engaged.append(cycle)
    return engaged


class TestEngineSelection:
    """Which engine the default config runs this repo's workloads on —
    pinned, so a threshold change cannot silently move a whole figure
    (or the whole test suite) onto one engine."""

    def test_sparse_paper_platform_never_engages(self):
        # 8x8 @ 0.02: mesh8_lowload and every cold campaign cell.
        net = Network(NoCConfig(), PowerPunchPG())
        assert _engaged_cycles(net, 0.02, 1500) == []

    def test_parsec_cell_never_engages(self):
        chip = Chip(
            NoCConfig(),
            PowerPunchPG(),
            get_profile("canneal"),  # the suite's heaviest traffic
            instructions_per_core=300,
            seed=3,
            benchmark="canneal",
        )
        net = chip.network
        step = net.step
        engaged = []

        def watching_step():
            step()
            engaged.append(net._engine is not None)

        net.step = watching_step
        chip.run(max_cycles=500_000)
        assert engaged and not any(engaged)

    def test_dense_large_mesh_engages_and_stays(self):
        # 16x16 @ 0.05: mesh16_highload.
        net = Network(NoCConfig(width=16, height=16), NoPG())
        engaged = _engaged_cycles(net, 0.05, 160)
        assert engaged[0] <= 2 * _SELECT_WINDOW
        assert engaged == list(range(engaged[0], 160))
        # The work-set stays readable from outside while engaged.
        assert len(net.active_routers) > _ENGAGE_ABOVE
        # ...and hands the drain back once the active set thins.
        net.run_until_drained()
        assert net._engine is None

    def test_sparse_large_mesh_never_engages(self):
        # 16x16 @ 0.01: the paper's Sec. 6.6(2) scalability point —
        # the row a node-count rule would get wrong.
        net = Network(NoCConfig(width=16, height=16), PowerPunchPG())
        assert _engaged_cycles(net, 0.01, 200) == []

    @pytest.mark.parametrize(
        "config,scheme",
        [
            (NoCConfig(width=12, height=12), NoRDLike),
            (NoCConfig(width=12, height=12, faults="punch_drop,rate=0.0"), NoPG),
        ],
        ids=["nord", "faults"],
    )
    def test_ineligible_network_never_engages_however_dense(self, config, scheme):
        net = Network(config, scheme())
        assert _engaged_cycles(net, 0.12, 3 * _SELECT_WINDOW) == []
        # Dense enough that the engine was asked for and refused for good
        # (a fault injector rules it out from construction).
        assert net._select_at == _NEVER

    def test_packet_tracer_pins_the_object_kernel(self):
        from repro.noc.tracing import PacketTracer

        net = Network(NoCConfig(width=12, height=12), NoPG())
        tracer = PacketTracer(net)
        assert _engaged_cycles(net, 0.12, 3 * _SELECT_WINDOW) == []
        assert any(event.kind == "sw-grant" for event in tracer.events)
