"""Tests for the closed-loop system model: streams, cores, chip runs."""

import pytest

from repro.core import ConvOptPG, NoPG, PowerPunchPG
from repro.noc import NoCConfig
from repro.system import (
    AccessStream,
    Chip,
    PARSEC_BENCHMARKS,
    PARSEC_PROFILES,
    StreamProfile,
    get_profile,
)


class TestStreamProfile:
    def test_mean_gap(self):
        p = StreamProfile(mem_op_fraction=0.25)
        assert p.mean_gap == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamProfile(mem_op_fraction=0.0)
        with pytest.raises(ValueError):
            StreamProfile(cold_fraction=1.5)
        # An empty pool cannot be drawn from (``randrange(0)`` raised
        # at the first draw; the inlined draw would spin).
        with pytest.raises(ValueError):
            StreamProfile(shared_blocks=0)


class TestAccessStream:
    def test_deterministic(self):
        a = AccessStream(3, StreamProfile(), seed=7)
        b = AccessStream(3, StreamProfile(), seed=7)
        assert [a.next_access() for _ in range(50)] == [
            b.next_access() for _ in range(50)
        ]

    def test_stream_values_are_pinned(self):
        """Recorded at bd2ba49: every closed-loop result follows these."""
        canneal = AccessStream(3, get_profile("canneal"), seed=7)
        accesses = [canneal.next_access() for _ in range(400)]
        assert accesses[:4] == [
            (1, 50331696, True),
            (0, 50331826, True),
            (0, 50331709, True),
            (2, 50331894, True),
        ]
        assert sum(gap for gap, _b, _w in accesses) == 1184
        assert sum(block % 1000003 for _g, block, _w in accesses) == 132518241
        assert sum(write for _g, _b, write in accesses) == 140
        compute_heavy = AccessStream(63, get_profile("blackscholes"), seed=20150207)
        accesses = [compute_heavy.next_access() for _ in range(400)]
        assert sum(gap for gap, _b, _w in accesses) == 7118
        assert sum(block % 1000003 for _g, block, _w in accesses) == 384629634
        gapless = AccessStream(1, StreamProfile(mem_op_fraction=1.0, comm_accesses=0), seed=1)
        accesses = [gapless.next_access() for _ in range(50)]
        assert sum(gap for gap, _b, _w in accesses) == 0
        assert sum(block % 1000003 for _g, block, _w in accesses) == 32766023

    def test_different_cores_differ(self):
        a = AccessStream(0, StreamProfile(), seed=7)
        b = AccessStream(1, StreamProfile(), seed=7)
        assert [a.next_access() for _ in range(20)] != [
            b.next_access() for _ in range(20)
        ]

    def test_private_blocks_are_disjoint_across_cores(self):
        profile = StreamProfile(shared_fraction=0.0, cold_fraction=0.0)
        streams = [AccessStream(i, profile, seed=1) for i in range(4)]
        blocks = [
            {stream.next_access()[1] for _ in range(200)} for stream in streams
        ]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not (blocks[i] & blocks[j])

    def test_shared_blocks_overlap_across_cores(self):
        profile = StreamProfile(shared_fraction=1.0)
        stream_a = AccessStream(0, profile, seed=1)
        stream_b = AccessStream(1, profile, seed=2)
        a = {stream_a.next_access()[1] for _ in range(300)}
        b = {stream_b.next_access()[1] for _ in range(300)}
        # Both draw from the same shared pool.
        sa = {blk for blk in a if blk >= 1 << 44}
        sb = {blk for blk in b if blk >= 1 << 44}
        assert sa & sb

    def test_gap_mean_in_range(self):
        profile = StreamProfile(
            mem_op_fraction=0.5, comm_accesses=0, compute_accesses=0
        )
        stream = AccessStream(0, profile, seed=3)
        gaps = [stream.next_access()[0] for _ in range(3000)]
        assert sum(gaps) / len(gaps) == pytest.approx(profile.mean_gap, rel=0.2)


class TestParsecProfiles:
    def test_all_eight_benchmarks_present(self):
        assert len(PARSEC_BENCHMARKS) == 8
        assert set(PARSEC_BENCHMARKS) == set(PARSEC_PROFILES)

    def test_get_profile(self):
        assert get_profile("canneal") is PARSEC_PROFILES["canneal"]
        with pytest.raises(ValueError):
            get_profile("doom")

    def test_canneal_is_most_memory_intensive(self):
        canneal = get_profile("canneal")
        blackscholes = get_profile("blackscholes")
        assert canneal.cold_fraction > blackscholes.cold_fraction
        assert canneal.shared_fraction > blackscholes.shared_fraction


class TestChipRuns:
    def make_chip(self, scheme, bench="bodytrack", width=4, instructions=600):
        return Chip(
            NoCConfig(width=width, height=width),
            scheme,
            get_profile(bench),
            instructions_per_core=instructions,
            seed=1,
            benchmark=bench,
        )

    def test_run_completes_and_reports(self):
        chip = self.make_chip(NoPG())
        result = chip.run(max_cycles=500_000)
        assert result.execution_time > 0
        assert all(core.done for core in chip.cores)
        assert result.avg_packet_latency > 0
        assert 0 < result.l1_miss_rate < 0.5

    def test_all_cores_retire_quota(self):
        chip = self.make_chip(NoPG(), instructions=400)
        chip.run(max_cycles=500_000)
        assert all(core.retired >= 400 for core in chip.cores)

    def test_deterministic_execution(self):
        a = self.make_chip(NoPG()).run(max_cycles=500_000)
        b = self.make_chip(NoPG()).run(max_cycles=500_000)
        assert a.execution_time == b.execution_time
        assert a.packets == b.packets

    def test_powerpunch_close_to_nopg(self):
        base = self.make_chip(NoPG()).run(max_cycles=500_000)
        pp = self.make_chip(PowerPunchPG()).run(max_cycles=500_000)
        assert pp.execution_time <= 1.05 * base.execution_time

    def test_convopt_slower_than_powerpunch(self):
        conv = self.make_chip(ConvOptPG()).run(max_cycles=500_000)
        pp = self.make_chip(PowerPunchPG()).run(max_cycles=500_000)
        assert conv.avg_total_latency > pp.avg_total_latency
        assert conv.avg_wakeup_wait > pp.avg_wakeup_wait

    def test_warm_caches_suppress_compulsory_misses(self):
        warm = self.make_chip(NoPG())
        warm_res = warm.run(max_cycles=500_000)
        cold = Chip(
            NoCConfig(width=4, height=4),
            NoPG(),
            get_profile("bodytrack"),
            instructions_per_core=600,
            seed=1,
            warm_caches=False,
        )
        cold_res = cold.run(max_cycles=1_000_000)
        assert warm_res.execution_time < cold_res.execution_time

    def test_memory_controllers_at_corners(self):
        chip = self.make_chip(NoPG())
        assert sorted(chip.mcs) == [0, 3, 12, 15]

    def test_8x8_run(self):
        chip = Chip(
            NoCConfig(),
            PowerPunchPG(),
            get_profile("swaptions"),
            instructions_per_core=300,
            seed=2,
            benchmark="swaptions",
        )
        result = chip.run(max_cycles=1_000_000)
        assert result.execution_time > 0
        assert result.avg_blocked_routers >= 0
