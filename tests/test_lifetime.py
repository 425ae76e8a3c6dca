"""Object lifetime: a finished cell is freed by reference counting.

``Network.close()`` / ``Chip.close()`` sever every edge that points
back at the hub objects (policy <-> network, NI callbacks, controller
clocks, the punch sink, the chip's delivery listener and senders), so
what a cell built dies when the cell returns — with the cyclic
collector switched off.  Every campaign runner and ``repro.bench.replay``
close what they build; these tests hold them to it, so a new callback
that re-introduces a cycle fails here and not in the next benchmark.
"""

import gc
import hashlib
import json
import weakref
from contextlib import contextmanager

import pytest

from repro.bench import SCHEMES, _stats_fingerprint, record_trace, replay
from repro.campaign import CellCache, CellSpec, execute_cells, run_cell
from repro.campaign.runner import run_parsec
from repro.experiments.common import SCHEME_ORDER, make_scheme
from repro.guarantees import BoundChecker
from repro.noc import (
    DeadlockError,
    Network,
    NetworkClosedError,
    NoCConfig,
    SimulationError,
    VirtualNetwork,
    control_packet,
)
from repro.power import EnergyModel
from repro.system import Chip, get_profile
from repro.traffic import SyntheticTraffic

#: A stalled router plus a short watchdog: every PARSEC cell under this
#: config dies of a DeadlockError around cycle 340.
STALLED = NoCConfig(
    faults="router_stall,router=18,start=50", strict_invariants=True, watchdog=300
)


@contextmanager
def collector_off():
    """Only reference counting frees anything inside the block."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def drive(network, cycles=300, rate=0.02):
    SyntheticTraffic(network, "uniform_random", rate, seed=7).run(cycles)


class TestFreedWithoutTheCollector:
    @pytest.mark.parametrize("scheme", SCHEME_ORDER)
    def test_chip(self, scheme):
        with collector_off():
            chip = Chip(
                NoCConfig(), make_scheme(scheme), get_profile("bodytrack"),
                instructions_per_core=150, seed=3, benchmark="bodytrack",
            )
            chip.run()
            chip.close()
            network = weakref.ref(chip.network)
            ref = weakref.ref(chip)
            del chip
            assert ref() is None and network() is None

    @pytest.mark.parametrize("scheme", [*SCHEME_ORDER, "NoRD-like"])
    def test_bare_network(self, scheme):
        with collector_off():
            policy = make_scheme(scheme)
            network = Network(NoCConfig(), policy)
            drive(network)
            network.close()
            refs = [weakref.ref(network), weakref.ref(policy)]
            del network, policy
            assert [ref() for ref in refs] == [None, None]

    def test_closed_while_the_vector_engine_is_engaged(self):
        pytest.importorskip("numpy")
        with collector_off():
            network = Network(NoCConfig(width=16, height=16), make_scheme("PowerPunch-PG"))
            traffic = SyntheticTraffic(network, "uniform_random", 0.05, seed=7)
            for _ in range(40):
                traffic.run(32)
                if network._engine is not None:
                    break
            engine = weakref.ref(network._engine)
            assert engine() is not None, "the engine never engaged"
            off_cycles = network.policy.total_off_cycles()
            network.close()
            assert network._engine is None
            assert network.policy.total_off_cycles() == off_cycles
            ref = weakref.ref(network)
            del network, traffic
            assert ref() is None and engine() is None

    @pytest.mark.parametrize(
        "config, bounds_strict",
        [
            (NoCConfig(faults="punch_drop,rate=0.5;seed=3", strict_invariants=True), None),
            (NoCConfig(strict_invariants=True), True),
            (NoCConfig(strict_invariants=True), False),
        ],
        ids=["faults+invariants", "invariants+bounds", "installed-bounds"],
    )
    def test_robustness_layer_installed(self, config, bounds_strict):
        with collector_off():
            network = Network(config, make_scheme("PowerPunch-PG"))
            checker = None
            if bounds_strict is not None:
                checker = BoundChecker(strict=bounds_strict)
                checker.attach(network)
            installed = [
                weakref.ref(part)
                for part in (network.faults, network.invariants, checker)
                if part is not None
            ]
            drive(network, cycles=200)
            network.close()
            ref = weakref.ref(network)
            del network, checker
            assert ref() is None
            assert [part() for part in installed] == [None] * len(installed)


class TestRunCellLeavesNothingBehind:
    @pytest.mark.parametrize(
        "spec",
        [
            CellSpec.parsec("bodytrack", "PowerPunch-PG", instructions=200, seed=5),
            CellSpec.synthetic(
                "uniform_random", 0.02, "PowerPunch-PG", warmup=100, measurement=300
            ),
        ],
        ids=["parsec", "synthetic"],
    )
    def test_tracked_object_growth(self, spec):
        run_cell(spec)  # imports and the per-process static tables
        with collector_off():
            before = len(gc.get_objects())
            run_cell(spec)
            assert len(gc.get_objects()) - before <= 50


class TestClosedNetwork:
    @pytest.mark.parametrize("scheme", ["NoPG", "ConvOptPG", "PowerPunchPG"])
    def test_reads_what_it_read_before_close(self, scheme):
        config = NoCConfig()
        network = Network(config, SCHEMES[scheme]())
        drive(network)
        network.run_until_drained()
        fingerprint = _stats_fingerprint(network)
        energy = EnergyModel().account(network)
        links = [dict(counts) for counts in network.link_counts]
        network.close()
        assert network.closed
        assert _stats_fingerprint(network) == fingerprint
        assert EnergyModel().account(network) == energy
        assert network.link_counts == links
        assert network.cycle == fingerprint["cycles"]

    def test_step_and_inject_raise(self):
        network = Network(NoCConfig(), make_scheme("ConvOpt-PG"))
        drive(network, cycles=50)
        network.close()
        with pytest.raises(NetworkClosedError):
            network.step()
        with pytest.raises(NetworkClosedError):
            network.inject(control_packet(0, 5, VirtualNetwork.REQUEST, network.cycle))
        with pytest.raises(SimulationError):
            network.run(3)

    def test_close_twice_is_a_noop(self):
        chip = Chip(
            NoCConfig(), make_scheme("PowerPunch-Signal"), get_profile("canneal"),
            instructions_per_core=100, seed=2,
        )
        result = chip.run()
        chip.close()
        off_cycles = chip.network.policy.total_off_cycles()
        chip.close()
        chip.network.close()
        assert chip.network.policy.total_off_cycles() == off_cycles
        assert chip.execution_time == result.execution_time

    def test_replay_returns_a_closed_network(self):
        config = NoCConfig()
        trace = record_trace(config, "uniform_random", 0.02, 7, 200)
        network, _elapsed = replay(config, "PowerPunchPG", trace, 200)
        assert network.closed
        assert _stats_fingerprint(network)["delivered"] > 0


class TestFailedCell:
    def test_exception_inside_chip_run_still_closes(self):
        with pytest.raises(DeadlockError) as excinfo:
            run_parsec("bodytrack", "PowerPunch-PG", instructions=300, seed=1, config=STALLED)
        error = excinfo.value
        assert error.post_mortem is not None
        assert error.post_mortem.render() in str(error)
        frames = [tb.tb_frame for tb in _walk(excinfo.tb)]
        chip = next(f.f_locals["chip"] for f in frames if f.f_code.co_name == "run_parsec")
        assert chip.network.closed and chip.cores == []

    def test_failure_text_is_what_it_was_before_close_existed(self):
        spec = CellSpec.parsec(
            "bodytrack", "PowerPunch-PG", instructions=300, seed=1, config=STALLED
        )
        with pytest.raises(DeadlockError) as excinfo:
            run_cell(spec)
        exc = excinfo.value
        signature = f"{type(exc).__qualname__}: {exc}"
        # Recorded at the parent commit (35d92a0): message plus the
        # rendered post-mortem.  Moved once since, by one ring line:
        # "[    50] - fault:router_stall R18", the stall window opening
        # while R18 held no flits (4329 chars, 90b9bfa3d10ff948 before).
        assert len(signature) == 4365
        assert hashlib.sha256(signature.encode()).hexdigest()[:16] == "07abe2944cecaa16"

    def test_failed_event_is_one_line_and_the_store_keeps_the_rest(self, tmp_path):
        """The log's ``failed`` event names the error by its first line
        and points at the store entry (``key``) that holds the whole
        post-mortem, instead of repeating it (~7 KB) on every line."""
        spec = CellSpec.parsec(
            "bodytrack", "PowerPunch-PG", instructions=300, seed=1, config=STALLED
        )
        log = tmp_path / "events.jsonl"
        cache = CellCache(tmp_path / "store")
        execute_cells([spec], cache=cache, log_path=log, failure_mode="continue")
        [line] = [
            text
            for text in log.read_text().splitlines()
            if json.loads(text).get("status") == "failed"
        ]
        assert len(line.encode()) < 1024, len(line)
        event = json.loads(line)
        assert event["attempts"] == 1 and "\n" not in event["error"]
        key = event["key"]
        report = json.loads((tmp_path / "store" / key[:2] / f"{key}.json").read_text())[
            "failure"
        ]
        assert report["error"].startswith(event["error"])
        assert report["post_mortem"] and report["post_mortem"] in report["error"]

    def test_injector_and_checker_share_the_networks_one_ring(self):
        """A config with faults and strict invariants gives the injector
        and the checker (which writes ``network.ring``) one ring."""
        network = Network(STALLED)
        assert network.faults.ring is network.ring is not None
        assert network.invariants.network is network

    def test_a_failed_cell_does_not_pin_its_chip(self, monkeypatch):
        """An inline ``failure_mode="continue"`` campaign keeps every
        failure (with its traceback) until it ends; each used to hold
        the dead chip, ~20 000 objects at this size."""
        # Same seed, so the same simulation up to the deadlock (the
        # per-process static tables stop growing after the warm-up
        # cell); a different quota makes each a cell of its own.
        cells = [
            CellSpec.parsec(
                "bodytrack", "PowerPunch-PG", instructions=300 + i, seed=1, config=STALLED
            )
            for i in range(5)
        ]
        tracked = []

        def counting(spec):
            tracked.append(len(gc.get_objects()))
            return run_cell(spec)

        monkeypatch.setattr("repro.campaign.engine.run_cell", counting)
        execute_cells(cells[:1], max_retries=1, failure_mode="continue")
        with collector_off():
            tracked.clear()
            payloads, stats = execute_cells(
                cells[1:], max_retries=1, failure_mode="continue"
            )
        assert stats.failed == 4 and payloads == [None] * 4
        growth = [after - before for before, after in zip(tracked, tracked[1:])]
        assert len(growth) == 3
        assert max(growth) <= 500, growth


def _walk(tb):
    while tb is not None:
        yield tb
        tb = tb.tb_next
