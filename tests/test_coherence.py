"""MESI directory-protocol tests.

Drives the L1 controllers directly over the real NoC (cores disabled)
and checks protocol transitions, data versioning and the coherence
invariants under directed and randomized scenarios.
"""

import random

import pytest

from repro.core import NoPG
from repro.noc import NoCConfig
from repro.system import Chip, StreamProfile


class Harness:
    """A chip whose cores are parked so tests drive the L1s directly."""

    def __init__(self, width=4, seed=1):
        profile = StreamProfile()
        self.chip = Chip(
            NoCConfig(width=width, height=width),
            NoPG(),
            profile,
            instructions_per_core=1,
            seed=seed,
            benchmark="test",
            warm_caches=False,
        )
        self.completions = []
        for node, core in enumerate(self.chip.cores):
            core.done_at = 0  # park the core
        for node, l1 in enumerate(self.chip.l1s):
            l1.on_complete = self._completion_recorder(node)

    def _completion_recorder(self, node):
        def record(block, cycle):
            self.completions.append((node, block, cycle))

        return record

    # ------------------------------------------------------------------
    def access(self, node, block, is_write=False):
        l1 = self.chip.l1s[node]
        assert l1.can_accept(block) or l1.cache.contains(block)
        return l1.access(block, is_write, self.chip.network.cycle)

    def run_until_complete(self, node, block, max_cycles=3000):
        for _ in range(max_cycles):
            if (node, block) in [(n, b) for n, b, _ in self.completions]:
                return
            self.chip.step()
        raise AssertionError(f"transaction ({node}, {block}) never completed")

    def settle(self, cycles=400):
        for _ in range(cycles):
            self.chip.step()

    def state(self, node, block):
        return self.chip.l1s[node].state_of(block)

    def version(self, node, block):
        line = self.chip.l1s[node].cache.lookup(block, touch=False)
        return None if line is None else line.version

    # ------------------------------------------------------------------
    def assert_single_writer(self, block):
        holders = [
            node
            for node in range(len(self.chip.l1s))
            if self.state(node, block) in ("E", "M")
        ]
        assert len(holders) <= 1, f"multiple E/M holders for {block}: {holders}"

    def assert_coherent_at_quiescence(self, block):
        self.assert_single_writer(block)
        versions = [
            self.version(n, block)
            for n in range(len(self.chip.l1s))
            if self.version(n, block) is not None
        ]
        if len(versions) > 1:
            # All shared copies must agree.
            assert len(set(versions)) == 1, versions


@pytest.fixture
def harness():
    return Harness()


BLOCK = 1 << 50  # a block whose home is node (BLOCK % 16)


class TestBasicTransitions:
    def test_load_miss_gets_exclusive(self, harness):
        assert harness.access(1, BLOCK) is False
        harness.run_until_complete(1, BLOCK)
        assert harness.state(1, BLOCK) == "E"

    def test_second_reader_shares(self, harness):
        harness.access(1, BLOCK)
        harness.run_until_complete(1, BLOCK)
        harness.access(2, BLOCK)
        harness.run_until_complete(2, BLOCK)
        harness.settle()
        assert harness.state(2, BLOCK) == "S"
        # The first copy downgrades from E to S on the forward.
        assert harness.state(1, BLOCK) == "S"

    def test_silent_e_to_m_upgrade(self, harness):
        harness.access(1, BLOCK)
        harness.run_until_complete(1, BLOCK)
        assert harness.access(1, BLOCK, is_write=True) is True
        assert harness.state(1, BLOCK) == "M"
        assert harness.version(1, BLOCK) == 1

    def test_store_miss_gets_modified(self, harness):
        harness.access(3, BLOCK, is_write=True)
        harness.run_until_complete(3, BLOCK)
        assert harness.state(3, BLOCK) == "M"
        assert harness.version(3, BLOCK) == 1

    def test_load_hit_in_shared(self, harness):
        harness.access(1, BLOCK)
        harness.run_until_complete(1, BLOCK)
        assert harness.access(1, BLOCK) is True


class TestInvalidation:
    def test_writer_invalidates_sharers(self, harness):
        for reader in (1, 2, 5):
            harness.access(reader, BLOCK)
            harness.run_until_complete(reader, BLOCK)
        harness.settle()
        harness.access(7, BLOCK, is_write=True)
        harness.run_until_complete(7, BLOCK)
        harness.settle()
        assert harness.state(7, BLOCK) == "M"
        for reader in (1, 2, 5):
            assert harness.state(reader, BLOCK) == "I"
        harness.assert_single_writer(BLOCK)

    def test_upgrade_from_shared(self, harness):
        harness.access(1, BLOCK)
        harness.run_until_complete(1, BLOCK)
        harness.access(2, BLOCK)
        harness.run_until_complete(2, BLOCK)
        harness.settle()
        assert harness.access(2, BLOCK, is_write=True) is False  # SM_AD
        harness.completions.clear()
        harness.run_until_complete(2, BLOCK)
        harness.settle()
        assert harness.state(2, BLOCK) == "M"
        assert harness.state(1, BLOCK) == "I"

    def test_version_increments_across_writers(self, harness):
        writers = [1, 2, 3, 6, 9]
        for i, writer in enumerate(writers):
            harness.completions.clear()
            if not harness.access(writer, BLOCK, is_write=True):
                harness.run_until_complete(writer, BLOCK)
            harness.settle(50)
            assert harness.version(writer, BLOCK) == i + 1, writer
        harness.settle()
        harness.assert_single_writer(BLOCK)


class TestOwnershipTransfer:
    def test_read_after_write_gets_dirty_data(self, harness):
        harness.access(4, BLOCK, is_write=True)
        harness.run_until_complete(4, BLOCK)
        harness.completions.clear()
        harness.access(8, BLOCK)
        harness.run_until_complete(8, BLOCK)
        harness.settle()
        # Reader sees the writer's version; both end shared.
        assert harness.version(8, BLOCK) == 1
        assert harness.state(4, BLOCK) == "S"
        assert harness.state(8, BLOCK) == "S"

    def test_write_chain_transfers_ownership(self, harness):
        harness.access(4, BLOCK, is_write=True)
        harness.run_until_complete(4, BLOCK)
        harness.completions.clear()
        # Two more writers race.
        harness.access(5, BLOCK, is_write=True)
        harness.access(6, BLOCK, is_write=True)
        harness.run_until_complete(5, BLOCK)
        harness.run_until_complete(6, BLOCK)
        harness.settle()
        harness.assert_single_writer(BLOCK)
        final_versions = {harness.version(n, BLOCK) for n in (5, 6)}
        assert 3 in final_versions  # both stores applied


class TestEvictionAndWriteback:
    def test_dirty_eviction_reaches_home(self, harness):
        node = 1
        l1 = harness.chip.l1s[node]
        harness.access(node, BLOCK, is_write=True)
        harness.run_until_complete(node, BLOCK)
        # Fill the set until BLOCK is evicted (same-set blocks).
        sets = l1.cache.num_sets
        conflicts = [BLOCK + sets, BLOCK + 2 * sets]
        for i, other in enumerate(conflicts):
            harness.completions.clear()
            harness.access(node, other)
            harness.run_until_complete(node, other)
        harness.settle()
        assert harness.state(node, BLOCK) == "I"
        # A later reader must still observe version 1.
        harness.completions.clear()
        harness.access(2, BLOCK)
        harness.run_until_complete(2, BLOCK)
        assert harness.version(2, BLOCK) == 1


class TestRandomizedCoherence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_stress_preserves_invariants(self, seed):
        harness = Harness(width=4, seed=seed)
        rng = random.Random(seed)
        blocks = [(1 << 50) + i for i in range(6)]
        expected_writes = {b: 0 for b in blocks}
        for step in range(250):
            node = rng.randrange(16)
            block = rng.choice(blocks)
            is_write = rng.random() < 0.4
            l1 = harness.chip.l1s[node]
            if l1.can_accept(block) or l1.cache.contains(block):
                before = harness.state(node, block)
                hit = l1.access(block, is_write, harness.chip.network.cycle)
                if is_write and (hit or before in ("I", "S", "E", "M")):
                    expected_writes[block] += 1
            for _ in range(rng.randrange(1, 12)):
                harness.chip.step()
            if step % 25 == 0:
                for b in blocks:
                    harness.assert_single_writer(b)
        harness.settle(2000)
        for b in blocks:
            harness.assert_coherent_at_quiescence(b)

    def test_no_outstanding_state_after_quiescence(self):
        harness = Harness(width=4, seed=9)
        rng = random.Random(9)
        blocks = [(1 << 50) + i for i in range(4)]
        for _ in range(150):
            node = rng.randrange(16)
            block = rng.choice(blocks)
            l1 = harness.chip.l1s[node]
            if l1.can_accept(block) or l1.cache.contains(block):
                l1.access(block, rng.random() < 0.5, harness.chip.network.cycle)
            harness.chip.step()
        harness.settle(3000)
        for l1 in harness.chip.l1s:
            assert not l1.mshrs, l1.mshrs
            assert not l1.wb_buffers
        for directory in harness.chip.directories:
            for block, entry in directory.iter_entries():
                assert not entry.busy, (directory.node, block)
                assert not entry.waiting
