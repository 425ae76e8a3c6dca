"""Every experiment declares its sweep as ``(key, CellSpec)`` pairs.

The key is what a report tabulates a payload under, so it must say what
the cell beside it actually runs — the check the old "build the keys
again and ``zip`` them on" pairing never had.
"""

from dataclasses import replace

import pytest

from repro.campaign import CellSpec
from repro.experiments import (
    ablations,
    baselines_compare,
    fig12,
    fig13,
    guarantees,
    scalability,
)
from repro.experiments.common import pivot, run_keyed


def _unique(cells):
    keys = [key for key, _ in cells]
    assert len(set(keys)) == len(keys)
    return cells


class TestKeysDescribeTheirCells:
    @pytest.mark.parametrize("pattern", list(fig12.DEFAULT_LOADS))
    def test_fig12_load_and_scheme(self, pattern):
        loads = fig12.DEFAULT_LOADS[pattern]
        cells = _unique(fig12.sweep_cells(pattern, loads, measurement=300))
        assert len(cells) == 3 * len(loads)
        for (load, scheme), cell in cells:
            assert (cell.workload, cell.injection_rate, cell.scheme) == (pattern, load, scheme)
            assert cell.kind == "synthetic" and cell.measurement == 300 and not cell.drain

    def test_fig13_pipeline_wakeup_and_scheme(self):
        cells = _unique(fig13.sensitivity_cells(punch_hops=4))
        assert [key for key, _ in cells[:3]] == [
            ((3, 6), "No-PG"),
            ((3, 6), "ConvOpt-PG"),
            ((3, 6), "PowerPunch-PG"),
        ]
        for ((stages, twakeup), scheme), cell in cells:
            assert cell.scheme == scheme
            assert cell.build_config().router_stages == stages
            assert cell.injection_rate == fig13.PARSEC_AVG_LOAD
            assert dict(cell.scheme_kwargs) == {
                "No-PG": {},
                "ConvOpt-PG": {"wakeup_latency": twakeup},
                "PowerPunch-PG": {"wakeup_latency": twakeup, "punch_hops": 4},
            }[scheme]

    def test_scalability_mesh_size_and_scheme(self):
        cells = _unique(scalability.scalability_cells(sizes=(4, 8, 16), load=0.03))
        assert len(cells) == 9
        for (size, scheme), cell in cells:
            config = cell.build_config()
            assert (config.width, config.height) == (size, size)
            assert (cell.scheme, cell.injection_rate) == (scheme, 0.03)

    def test_baselines_scheme(self):
        cells = _unique(baselines_compare.comparison_cells(load=0.02))
        assert [key for key, _ in cells] == ["No-PG", "ConvOpt-PG", "PowerPunch-PG", "NoRD-like"]
        for scheme, cell in cells:
            assert (cell.scheme, cell.kind) == (scheme, "synthetic_metrics")

    def test_guarantees_scheme_and_load(self):
        cells = _unique(guarantees.guarantees_cells(loads=(0.02, 0.1), mesh=4))
        assert [key for key, _ in cells[:3]] == [("-", 0.02), ("-", 0.1), ("ConvOpt-PG", 0.02)]
        for (scheme, load), cell in cells:
            assert (cell.scheme, cell.injection_rate, cell.kind) == (scheme, load, "guarantees")
            assert cell.build_config().num_nodes == 16

    def test_ablation_keys(self):
        for hops, cell in _unique(ablations.punch_hops_cells()):
            assert dict(cell.scheme_kwargs) == {"wakeup_latency": 8, "punch_hops": hops}
        for timeout, cell in _unique(ablations.timeout_cells()):
            assert dict(cell.scheme_kwargs) == {"timeout": timeout}
        # The BET table prices one whole-run, undrained cell per scheme.
        ((scheme, cell),) = _unique(ablations.bet_cells())
        assert scheme == cell.scheme == "PowerPunch-PG" and cell.kind == "synthetic_metrics"
        assert (cell.warmup, cell.measurement, cell.drain) == (0, 5000, False)
        slack = dict(_unique(ablations.slack_cells()))
        assert slack["punch signals only"].scheme == "PowerPunch-Signal"
        assert dict(slack["+ slack 1 (NI pipeline)"].scheme_attrs) == {"slack2": False}
        assert slack["+ slack 2 (access lead)"].scheme_attrs == ()
        forewarning = dict(_unique(ablations.forewarning_cells()))
        assert forewarning["forewarning on"].scheme_attrs == ()
        assert dict(forewarning["forewarning off"].scheme_attrs) == {"use_forewarning": False}

    def test_every_ablation_is_printed_under_its_own_campaign_name(self):
        names = [name for name, _title, _declare, _rows in ablations.SWEEPS]
        assert len(set(names)) == len(names) == 5
        for _name, _title, declare, _rows in ablations.SWEEPS:
            # Every window ends 700 cycles after the warmup.
            assert all(
                cell.warmup + cell.measurement == ablations.WARMUP + 700
                for _, cell in declare(measurement=700)
            )


class TestSyntheticShapes:
    """The paper's shape of Fig. 12 and Sec. 6.6(2), each at the
    smallest window that still shows it."""

    def test_fig12_lowest_load(self):
        cells = [
            ((pattern, scheme), cell)
            for pattern, loads in fig12.DEFAULT_LOADS.items()
            for (_, scheme), cell in fig12.sweep_cells(
                pattern, [min(loads)], warmup=100, measurement=300
            )
        ]
        for pattern, per in pivot(run_keyed("test-fig12", cells)).items():
            nopg, conv, ppg = (per[s] for s in ("No-PG", "ConvOpt-PG", "PowerPunch-PG"))
            # ConvOpt-PG's power-gating curve is at its worst here, while
            # PowerPunch-PG tracks No-PG and keeps most of the static saving.
            assert conv.avg_total_latency > 1.3 * nopg.avg_total_latency, pattern
            assert ppg.avg_total_latency < 1.2 * nopg.avg_total_latency, pattern
            assert ppg.static_power_w() < 0.7 * nopg.static_power_w(), pattern

    def test_scalability_reduction_at_4x4_and_8x8(self):
        cells = scalability.scalability_cells(sizes=(4, 8), load=0.01, measurement=300)
        per_size = pivot(run_keyed("test-scalability", [
            (key, replace(cell, warmup=100)) for key, cell in cells
        ]))
        for size, per in per_size.items():
            conv = per["ConvOpt-PG"].avg_total_latency
            assert 1 - per["PowerPunch-PG"].avg_total_latency / conv > 0.30, size
        # ConvOpt-PG's absolute penalty accumulates with hop count.
        penalty = {
            size: per["ConvOpt-PG"].avg_total_latency - per["No-PG"].avg_total_latency
            for size, per in per_size.items()
        }
        assert penalty[8] > penalty[4]


class TestRunKeyedAndPivot:
    def test_payloads_come_back_under_their_keys(self, monkeypatch):
        monkeypatch.setattr(
            "repro.campaign.engine.run_cell", lambda spec: {"rate": spec.injection_rate}
        )
        cells = [
            ((load, scheme), CellSpec.synthetic("uniform_random", load, scheme))
            for load in (0.3, 0.1)
            for scheme in ("b", "a")
        ]
        results = run_keyed("keyed", iter(cells))
        assert [key for key, _ in results] == [key for key, _ in cells]
        assert all(payload == {"rate": load} for (load, _), payload in results)
        table = pivot(results)
        assert list(table) == [0.3, 0.1] and list(table[0.3]) == ["b", "a"]
        assert table[0.1]["a"] == {"rate": 0.1}

    def test_engine_options_go_to_the_campaign(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.campaign.engine.run_cell", lambda spec: {"seed": spec.seed})
        cells = [(seed, CellSpec.reliability(seed)) for seed in (1, 2)]
        run_keyed("keyed", cells, cache_dir=str(tmp_path), config_overrides={"watchdog": 9})
        assert (tmp_path / "keyed.events.jsonl").exists()
        assert run_keyed("keyed", []) == []
