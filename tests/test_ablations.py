"""Tests for the ablation harness functions (fast configurations)."""


from repro.campaign import build_scheme
from repro.experiments.ablations import (
    bet_cells,
    bet_rows,
    forewarning_cells,
    punch_hops_cells,
    slack_cells,
    timeout_cells,
)
from repro.experiments.common import net_static, run_keyed, window_gating
from repro.noc import Activity, Network
from repro.noc.packet import reset_packet_ids
from repro.power import EnergyModel, PowerConstants, account
from repro.traffic import SyntheticTraffic


def run(cells):
    return run_keyed("test-ablations", cells)


class TestAblationHarness:
    def test_punch_hops_sweep_shape(self):
        results = run(punch_hops_cells(hops_values=(1, 3, 4), measurement=1000))
        assert [h for h, _ in results] == [1, 3, 4]
        one, three, four = (res for _h, res in results)
        assert three["wait"] < one["wait"]
        # ceil(Twakeup / Trouter) = 3 hops suffice: a 4th buys little latency.
        assert four["latency"] <= 1.05 * three["latency"]

    def test_timeout_sweep_off_fraction_monotone_ish(self):
        results = dict(run(timeout_cells(timeouts=(2, 16), measurement=1000)))
        # A 16-cycle timeout gates far less than a 2-cycle timeout.
        assert window_gating(results[16])[0] < window_gating(results[2])[0]

    def test_slack_decomposition_strictly_improves(self):
        waits = [res["wait"] for _n, res in run(slack_cells(measurement=1200))]
        assert waits[0] > waits[1] > waits[2]
        # Slack 1 and 2 together hide most of the punch-only wait.
        assert waits[2] < 0.4 * waits[0]

    def test_forewarning_filter_helps_at_short_timeout(self):
        results = dict(run(forewarning_cells(measurement=1200)))
        on, off = results["forewarning on"], results["forewarning off"]
        assert on["wait"] < off["wait"]
        # ...and does not buy that with wake thrash or a slower network.
        assert window_gating(on)[1] <= 1.10 * window_gating(off)[1]
        assert on["latency"] <= 1.05 * off["latency"]

    def test_bet_sweep_monotone_energy(self, tmp_path):
        cells = bet_cells(measurement=800)
        # One run, stored and read back: every row is priced from it.
        run_keyed("test-ablations", cells, cache_dir=str(tmp_path))
        results = run_keyed("test-ablations", cells, cache_dir=str(tmp_path))
        rows = bet_rows(results, bet_values=(5, 40))
        (_, low_res, low_c), (_, high_res, high_c) = rows
        assert net_static(low_res, low_c) < net_static(high_res, high_c)
        # Same simulation: identical timing across BET values.
        assert low_res["latency"] == high_res["latency"]
        # ...and the same, real, gated-off share.
        assert window_gating(low_res)[0] > 0
        assert window_gating(low_res) == window_gating(high_res)
        # A stored row is bit for bit the live run's energy at its BET.
        ((_, spec),) = cells
        reset_packet_ids()
        network = Network(spec.build_config(), build_scheme(spec))
        traffic = SyntheticTraffic(network, spec.workload, spec.injection_rate, seed=spec.seed)
        start = EnergyModel().snapshot(network)
        traffic.run(spec.measurement)
        for bet, payload, constants in rows:
            live = EnergyModel(PowerConstants(break_even_cycles=bet)).account(
                network, since=start
            )
            assert account(Activity(**payload["activity"]), constants) == live
            assert net_static(payload, constants) == live.net_static
        assert network.stats.avg_total_latency == low_res["latency"]
