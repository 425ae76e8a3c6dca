"""The closed loop against its per-cycle oracles.

``Core`` sleeps through gaps and stalls and ``Chip`` warm-up installs a
precomputed image; the models they replaced live on here, as the
references the fast ones must match exactly:

* ``PerCycleCore`` — stepped every cycle, one instruction at a time;
* ``warm_by_insertion`` — every hot and shared block inserted in turn,
  evictions and all.
"""

import gc
import random

import pytest

from repro.core import NoPG, PowerPunchPG
from repro.noc import NoCConfig
from repro.system import PARSEC_BENCHMARKS, AccessStream, Chip, StreamProfile, get_profile
from repro.system.chip import _private_image, _warm_image
from repro.system.directory import L2Line
from repro.system.l1 import L1Line
from repro.system.memtrace import _PRIVATE_STRIDE, _SHARED_BASE


class PerCycleCore:
    """The reference core: ``step`` every cycle, nothing credited ahead."""

    def __init__(self, node, l1, stream, quota):
        self.node, self.l1, self.stream, self.quota = node, l1, stream, quota
        self.retired = self.stall_cycles = self.mem_ops = self.misses = 0
        self.done_at = None
        self.finished_by = None  # "gap", "op" or "miss"
        self.structural_retries = 0
        self.gap, self.block, self.is_write = stream.next_access()
        self.waiting_on = None
        l1.on_complete = self.on_miss_complete

    def step(self, cycle):
        if self.done_at is not None:
            return
        if self.waiting_on is not None:
            self.stall_cycles += 1
        elif self.gap > 0:
            self.gap -= 1
            self.retire(cycle, "gap")
        elif not self.l1.can_accept(self.block):
            self.stall_cycles += 1
            self.structural_retries += 1
        else:
            self.mem_ops += 1
            if self.l1.access(self.block, self.is_write, cycle):
                self.retire_op(cycle, "op")
                return
            self.misses += 1
            overlap = self.stream.profile.overlap_fraction
            if overlap > 0.0 and self.stream.rng.random() < overlap:
                self.retire_op(cycle, "op")
            else:
                self.waiting_on = self.block

    def on_miss_complete(self, block, cycle):
        if block == self.waiting_on:
            self.waiting_on = None
            self.retire_op(cycle, "miss")

    def retire_op(self, cycle, how):
        self.retire(cycle, how)
        self.gap, self.block, self.is_write = self.stream.next_access()

    def retire(self, cycle, how):
        self.retired += 1
        if self.retired >= self.quota and self.done_at is None:
            self.done_at, self.finished_by = cycle, how


def run_per_cycle(chip, profile, quota, seed, max_cycles=400_000):
    """Drive ``chip`` with reference cores, polling all of them each cycle."""
    chip.cores = [
        PerCycleCore(node, chip.l1s[node], AccessStream(node, profile, seed=seed), quota)
        for node in range(chip.config.num_nodes)
    ]
    while not all(core.done_at is not None for core in chip.cores):
        cycle = chip.network.cycle
        assert cycle < max_cycles
        chip._process_work(cycle)
        for mc in chip.mcs.values():
            mc.step(cycle)
        for core in chip.cores:
            core.step(cycle)
        chip.network.step()
    chip.execution_time = chip.network.cycle
    return chip.result()


COUNTERS = ("retired", "stall_cycles", "mem_ops", "misses", "done_at")


def differential(profile, scheme, quota, seed, width=4, height=4):
    """Run both cores on identical chips; return the reference cores."""

    def build():
        return Chip(
            NoCConfig(width=width, height=height),
            scheme(),
            profile,
            instructions_per_core=quota,
            seed=seed,
            benchmark="oracle",
        )

    fast_chip = build()
    fast = fast_chip.run(max_cycles=400_000)
    slow_chip = build()
    slow = run_per_cycle(slow_chip, profile, quota, seed)
    assert fast == slow
    for a, b in zip(fast_chip.cores, slow_chip.cores):
        assert {c: getattr(a, c) for c in COUNTERS} == {
            c: getattr(b, c) for c in COUNTERS
        }, f"core {a.node}"
    return slow_chip.cores


class TestSleepingCoreMatchesPerCycleCore:
    @pytest.mark.parametrize("name", PARSEC_BENCHMARKS)
    @pytest.mark.parametrize("seed,quota", [(2, 60), (20150207, 400)])
    def test_parsec_profiles(self, name, seed, quota):
        scheme = PowerPunchPG if seed % 2 else NoPG
        differential(get_profile(name), scheme, quota, seed)

    def test_paper_platform(self):
        differential(get_profile("canneal"), PowerPunchPG, 500, 3, width=8, height=8)

    def test_every_way_of_finishing(self):
        """Quota reached mid-gap, by a hit and by a miss completion."""
        profile = StreamProfile(
            mem_op_fraction=0.6, cold_fraction=0.3, shared_fraction=0.2,
            overlap_fraction=0.3, comm_accesses=8, compute_accesses=8,
        )
        seen = set()
        for quota in (7, 23):
            for seed in (1, 2, 3):
                cores = differential(profile, PowerPunchPG, quota, seed, 3, 3)
                seen |= {core.finished_by for core in cores}
        assert seen == {"gap", "op", "miss"}

    @pytest.mark.parametrize("overlap", [0.0, 1.0])
    def test_overlap_extremes(self, overlap):
        profile = StreamProfile(cold_fraction=0.2, overlap_fraction=overlap)
        cores = differential(profile, NoPG, 300, 5)
        blocked = sum(core.stall_cycles - core.structural_retries for core in cores)
        assert (blocked == 0) == (overlap == 1.0)

    def test_structural_retry_stalls(self):
        """Write-heavy, cache-hostile: a core meets its own writeback."""
        profile = StreamProfile(
            mem_op_fraction=1.0, cold_fraction=0.9, cold_blocks=600,
            shared_fraction=0.0, write_fraction=0.9, overlap_fraction=1.0,
        )
        cores = differential(profile, NoPG, 150, 4, width=2, height=2)
        assert any(core.structural_retries for core in cores)


def warm_by_insertion(chip, profile):
    """The reference warm-up: insert everything, let the caches evict."""
    for node, l1 in enumerate(chip.l1s):
        base = node * _PRIVATE_STRIDE
        for i in range(profile.hot_blocks):
            block = base + i
            l1.cache.insert(block, L1Line("E", 0))
            home = chip.directories[chip.home_of(block)]
            home.entry(block).owner = node
            home.l2.insert(block, L2Line(version=0, dirty=False))
    for i in range(profile.shared_blocks):
        block = _SHARED_BASE + i
        chip.directories[chip.home_of(block)].l2.insert(
            block, L2Line(version=0, dirty=False)
        )


def cache_state(cache, fields):
    """Per non-empty set, oldest first: (block, line fields)."""
    state = {}
    for block, line in cache.items():
        state.setdefault(cache.set_index(block), []).append(
            (block, tuple(getattr(line, f) for f in fields))
        )
    return state


def chip_state(chip):
    return (
        [cache_state(l1.cache, ("state", "version")) for l1 in chip.l1s],
        [cache_state(d.l2, ("version", "dirty")) for d in chip.directories],
        [
            {
                block: (e.owner, set(e.sharers), e.busy, e.pending, len(e.waiting))
                for block, e in d.iter_entries()
            }
            for d in chip.directories
        ],
    )


def build_chip(width, height, profile, warm, scheme=NoPG, **options):
    options.setdefault("instructions_per_core", 1)
    return Chip(
        NoCConfig(width=width, height=height), scheme(), profile,
        warm_caches=warm, **options,
    )


GEOMETRIES = [(8, 8, StreamProfile(shared_blocks=n)) for n in (512, 2048, 4096, 8192)] + [
    (4, 4, StreamProfile()),
    (5, 3, StreamProfile()),
    # More hot blocks than an L1 holds: the L1 sets overflow too.
    (3, 3, StreamProfile(hot_blocks=700, shared_blocks=100)),
]


class TestWarmImageMatchesInsertion:
    """The image is never installed: what a chip reports, and what it
    creates on first touch, equals what insertion leaves."""

    @pytest.mark.parametrize("width,height,profile", GEOMETRIES)
    def test_same_caches_and_directory(self, width, height, profile):
        reference = build_chip(width, height, profile, warm=False)
        warm_by_insertion(reference, profile)
        assert chip_state(build_chip(width, height, profile, warm=True)) == chip_state(
            reference
        )

    @pytest.mark.parametrize("width,height,profile", GEOMETRIES[3:])
    def test_same_after_touching_a_random_subset(self, width, height, profile):
        """Reads that change nothing, on both sides: the touched sets
        and entries now exist, the rest still stand on the image."""
        reference = build_chip(width, height, profile, warm=False)
        warm_by_insertion(reference, profile)
        warm = build_chip(width, height, profile, warm=True)
        rng = random.Random(width * 100 + height)
        nodes = range(width * height)
        blocks = [
            rng.choice(nodes) * _PRIVATE_STRIDE + rng.randrange(2 * profile.hot_blocks)
            for _ in range(300)
        ] + [_SHARED_BASE + rng.randrange(2 * profile.shared_blocks) for _ in range(300)]
        for chip in (warm, reference):
            for block in blocks:
                home = chip.directories[chip.home_of(block)]
                chip.l1s[block // _PRIVATE_STRIDE % len(nodes)].cache.lookup(
                    block, touch=False
                )
                home.l2.contains(block)
                if block % 3 == 0:
                    home.entry(block)
        touched = sum(len(d.entries) for d in warm.directories)
        assert 0 < touched < sum(1 for d in warm.directories for _ in d.iter_entries())
        assert chip_state(warm) == chip_state(reference)

    def test_suite_profiles_are_covered(self):
        """The 8x8 cases above are exactly the suite's distinct images."""
        assert {get_profile(b).shared_blocks for b in PARSEC_BENCHMARKS} == {
            512, 2048, 4096, 8192,
        }
        assert {get_profile(b).hot_blocks for b in PARSEC_BENCHMARKS} == {256}

    def test_l2_index_aliasing_is_as_documented(self):
        """8x8: a bank indexes 4 of its 256 sets and ends with 64 lines
        (DESIGN.md, known modelling deviations)."""
        chip = Chip(NoCConfig(), NoPG(), get_profile("canneal"), instructions_per_core=1)
        for home in chip.directories:
            assert len(cache_state(home.l2, ())) == 4
            assert home.l2.occupancy() == 64


class TestWarmImageIsShared:
    """One cached image under every chip of a profile: a chip writes to
    what it created from the image, never to the image."""

    def test_a_second_chip_sees_the_image_the_first_one_saw(self):
        profile = get_profile("canneal")

        def build():
            return build_chip(
                4, 4, profile, warm=True, scheme=PowerPunchPG,
                instructions_per_core=300, seed=11,
            )

        _warm_image.cache_clear()
        _private_image.cache_clear()
        first = build()
        image = first_image = _warm_image(16, 256, profile.shared_blocks, (256, 2), (256, 16))
        owners_before = [dict(owners) for owners in image.owners]
        sets_before = (image.l1_sets, image.l2_sets)
        ran = first.run(max_cycles=400_000)

        reference = build_chip(4, 4, profile, warm=False)
        warm_by_insertion(reference, profile)
        assert chip_state(first) != chip_state(reference)  # it did write
        second = build()
        assert _warm_image.cache_info().currsize == 1  # still that image
        assert chip_state(second) == chip_state(reference)
        assert second.run(max_cycles=400_000) == ran

        image = _warm_image(16, 256, profile.shared_blocks, (256, 2), (256, 16))
        assert image is first_image
        assert [dict(owners) for owners in image.owners] == owners_before
        assert (image.l1_sets, image.l2_sets) == sets_before
        # ... and could not have been: tuples of tuples of ints, and
        # mappings that refuse writes.
        for per_cache in image.l1_sets + image.l2_sets:
            assert type(per_cache) is tuple
            assert all(type(blocks) is tuple for blocks in per_cache)
        with pytest.raises(TypeError):
            image.owners[0][0] = 1

        # A process that never built ``first`` gets the same answer.
        _warm_image.cache_clear()
        _private_image.cache_clear()
        assert build().run(max_cycles=400_000) == ran

    def test_a_fresh_chip_is_mostly_not_there_yet(self):
        """8x8: 16 384 L1 lines, 4 096 L2 lines and 16 384 directory
        entries are reported but not allocated (88 510 GC-tracked
        objects per chip when they were)."""
        def build():
            return Chip(NoCConfig(), PowerPunchPG(), get_profile("canneal"))

        build()  # the image and the route tables are the process's, not the chip's
        gc.collect()
        before = len(gc.get_objects())
        chip = build()
        gc.collect()
        assert len(gc.get_objects()) - before < 40_000
        assert sum(l1.cache.occupancy() for l1 in chip.l1s) == 16_384
        assert sum(1 for d in chip.directories for _ in d.iter_entries()) == 16_384
