"""Hypothesis-driven coherence stress.

Generates random multi-core access interleavings and checks the
protocol invariants after quiescence: single writer, agreeing shared
copies, write counts fully reflected in the final version, and no
leaked transient state.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import NoPG
from repro.noc import NoCConfig
from repro.system import Chip, StreamProfile

NUM_NODES = 16
BLOCKS = [(1 << 50) + i for i in range(3)]

op = st.tuples(
    st.integers(min_value=0, max_value=NUM_NODES - 1),  # node
    st.integers(min_value=0, max_value=len(BLOCKS) - 1),  # block index
    st.booleans(),  # is_write
    st.integers(min_value=1, max_value=8),  # cycles to advance
)


def build_chip(seed=1):
    chip = Chip(
        NoCConfig(width=4, height=4),
        NoPG(),
        StreamProfile(),
        instructions_per_core=1,
        seed=seed,
        warm_caches=False,
    )
    for core in chip.cores:
        core.done_at = 0
    for l1 in chip.l1s:
        l1.on_complete = lambda b, c: None
    return chip


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ops=st.lists(op, min_size=5, max_size=60))
def test_random_interleavings_stay_coherent(ops):
    chip = build_chip()
    writes = {b: 0 for b in BLOCKS}
    for node, block_idx, is_write, advance in ops:
        block = BLOCKS[block_idx]
        l1 = chip.l1s[node]
        if l1.can_accept(block) or l1.cache.contains(block):
            l1.access(block, is_write, chip.network.cycle)
            if is_write:
                writes[block] += 1
        for _ in range(advance):
            chip.step()
    for _ in range(4000):
        chip.step()

    for block in BLOCKS:
        holders = [
            n
            for n in range(NUM_NODES)
            if chip.l1s[n].state_of(block) in ("E", "M")
        ]
        assert len(holders) <= 1, (block, holders)
        versions = {
            chip.l1s[n].cache.lookup(block, touch=False).version
            for n in range(NUM_NODES)
            if chip.l1s[n].cache.lookup(block, touch=False) is not None
        }
        assert len(versions) <= 1, (block, versions)
        # Every write that was actually issued bumped the version chain:
        # the maximum observable version equals the number of writes.
        home = chip.directories[chip.home_of(block)]
        l2_line = home.l2.lookup(block, touch=False)
        observable = set()
        if versions:
            observable |= versions
        if l2_line is not None:
            observable.add(l2_line.version)
        observable.add(chip.memory.read(block))
        assert max(observable) == writes[block], (block, observable, writes[block])

    for l1 in chip.l1s:
        assert not l1.mshrs
        assert not l1.wb_buffers
    for directory in chip.directories:
        for block, entry in directory.iter_entries():
            assert not entry.busy
            assert not entry.waiting
