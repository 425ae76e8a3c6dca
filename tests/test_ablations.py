"""Tests for the ablation harness functions (fast configurations)."""


from repro.experiments.ablations import (
    bet_cells,
    forewarning_cells,
    punch_hops_cells,
    slack_cells,
    timeout_cells,
)
from repro.experiments.common import run_keyed


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
        assert results[16]["off_fraction"] < results[2]["off_fraction"]

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
        assert on["wake_events"] <= 1.10 * off["wake_events"]
        assert on["latency"] <= 1.05 * off["latency"]

    def test_bet_sweep_monotone_energy(self):
        results = run(bet_cells(bet_values=(5, 40), measurement=800))
        assert results[0][1]["net_static"] < results[1][1]["net_static"]
        # Same simulation: identical timing across BET values.
        assert results[0][1]["latency"] == results[1][1]["latency"]
        # ...and the same, real, gated-off share.
        assert results[0][1]["off_fraction"] > 0
        assert results[0][1]["off_fraction"] == results[1][1]["off_fraction"]
