"""Closed-loop integration: the NoRD-like baseline under the CMP model."""


from repro.baselines import NoRDLike
from repro.core import NoPG
from repro.noc import NoCConfig
from repro.system import Chip, get_profile


class TestNoRDClosedLoop:
    def run_chip(self, scheme, bench="bodytrack", instructions=400):
        chip = Chip(
            NoCConfig(width=4, height=4),
            scheme,
            get_profile(bench),
            instructions_per_core=instructions,
            seed=3,
            benchmark=bench,
        )
        return chip.run(max_cycles=2_000_000)

    def test_workload_completes_under_nord(self):
        result = self.run_chip(NoRDLike())
        assert result.execution_time > 0
        assert result.packets > 0

    def test_nord_slower_than_nopg_but_finishes(self):
        base = self.run_chip(NoPG())
        nord = self.run_chip(NoRDLike())
        assert nord.execution_time >= base.execution_time
        # Detours cost latency but not correctness: all cores retired.
        assert nord.packets > 0

    def test_coherence_survives_detours(self):
        """Protocol messages riding the bypass ring must still keep the
        protocol consistent (delivery listeners fire out-of-band)."""
        scheme = NoRDLike()
        chip = Chip(
            NoCConfig(width=4, height=4),
            scheme,
            get_profile("canneal"),
            instructions_per_core=300,
            seed=5,
            benchmark="canneal",
        )
        chip.run(max_cycles=2_000_000)
        for l1 in chip.l1s:
            assert not l1.mshrs
            assert not l1.wb_buffers
        for directory in chip.directories:
            for block, entry in directory.iter_entries():
                assert not entry.busy, (directory.node, block)
