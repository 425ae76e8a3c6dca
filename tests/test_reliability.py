"""Tests for the Monte-Carlo reliability campaign stack.

Covers the seeded fault-schedule sampler, the Wilson confidence
interval, the ``reliability`` cell kind (payload shape + bit-identical
determinism), the aggregation/report layer, the fault context carried
into quarantine post-mortems, and the new robustness CLI flags.
"""

import json

import pytest

from repro.campaign import CellSpec, FailureReport, run_cell
from repro.campaign.spec import CELL_KINDS
from repro.cli import campaign_argparser, engine_options
from repro.experiments.reliability import (
    aggregate,
    reliability_campaign,
    report,
    wilson_interval,
)
from repro.noc import (
    SAMPLABLE_FAULT_KINDS,
    FaultSchedule,
    NoCConfig,
    sample_fault_schedule,
)
from repro.noc.faults import SAMPLED_MAX_DELAY, SAMPLED_RATE_RANGE


class TestWilsonInterval:
    def test_textbook_value(self):
        lo, hi = wilson_interval(45, 100)
        assert lo == pytest.approx(0.3561, abs=1e-4)
        assert hi == pytest.approx(0.5476, abs=1e-4)

    def test_zero_successes_touches_zero(self):
        lo, hi = wilson_interval(0, 6)
        assert lo == 0.0
        assert hi == pytest.approx(0.3903, abs=1e-4)

    def test_all_successes_touches_one(self):
        lo, hi = wilson_interval(6, 6)
        assert lo == pytest.approx(0.6097, abs=1e-4)
        assert hi == pytest.approx(1.0)

    def test_no_trials_is_vacuous(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            wilson_interval(7, 6)
        with pytest.raises(ValueError):
            wilson_interval(-1, 6)

    def test_interval_is_inside_unit_and_brackets_p(self):
        for successes, trials in [(1, 50), (25, 50), (49, 50), (500, 1000)]:
            lo, hi = wilson_interval(successes, trials)
            p = successes / trials
            assert 0.0 <= lo < p < hi <= 1.0

    def test_failures_mirror_successes(self):
        # k successes in n trials bound the success rate exactly where
        # n - k successes bound the failure rate.
        for successes, trials in [(0, 6), (3, 10), (45, 100), (999, 1000)]:
            lo, hi = wilson_interval(successes, trials)
            mirror_lo, mirror_hi = wilson_interval(trials - successes, trials)
            assert lo == pytest.approx(1.0 - mirror_hi, abs=1e-12)
            assert hi == pytest.approx(1.0 - mirror_lo, abs=1e-12)

    def test_more_trials_narrow_the_interval(self):
        widths = [
            hi - lo
            for lo, hi in (wilson_interval(9 * n // 10, n) for n in (10, 100, 1000, 10_000))
        ]
        assert all(wide > narrow for wide, narrow in zip(widths, widths[1:]))


class TestFaultSampler:
    def test_same_seed_is_bit_identical(self):
        a = sample_fault_schedule(42, 64, max_faults=3, horizon=1000)
        b = sample_fault_schedule(42, 64, max_faults=3, horizon=1000)
        assert a.to_spec() == b.to_spec()

    @pytest.mark.parametrize(
        "seed, spec",
        [
            (1, "wakeup_delay,rate=0.4313,router=15,start=1564,delay=8;seed=965274705"),
            (7, "punch_dup,rate=0.2277,router=12,start=98;"
                "punch_delay,rate=0.3123,start=1863;seed=184570285"),
            (42, "punch_drop,rate=0.0613,router=17,start=563;"
                 "router_stall,router=13,start=1385;"
                 "router_stall,router=11,start=1209;seed=906070220"),
        ],
    )
    def test_pinned_draws(self, seed, spec):
        # Every reliability estimate is a function of these draws.
        schedule = sample_fault_schedule(seed, 64, max_faults=3, horizon=2000)
        assert schedule.to_spec() == spec

    def test_different_seeds_differ(self):
        specs = {
            sample_fault_schedule(seed, 64, max_faults=3, horizon=1000).to_spec()
            for seed in range(20)
        }
        assert len(specs) > 10

    def test_samples_only_samplable_kinds_within_bounds(self):
        for seed in range(30):
            schedule = sample_fault_schedule(seed, 16, max_faults=4, horizon=500)
            assert len(schedule.specs) <= 4
            for spec in schedule.specs:
                assert spec.kind in SAMPLABLE_FAULT_KINDS
                assert 0 <= spec.start <= 500
                if spec.kind != "router_stall":
                    lo, hi = SAMPLED_RATE_RANGE
                    assert lo <= spec.rate <= hi
                if spec.kind.endswith("_delay"):
                    assert 1 <= spec.delay <= SAMPLED_MAX_DELAY
                if spec.router is not None:
                    assert 0 <= spec.router < 16

    def test_spec_string_round_trips(self):
        schedule = sample_fault_schedule(7, 16, max_faults=2, horizon=500)
        text = schedule.to_spec()
        assert FaultSchedule.parse(text).to_spec() == text


class TestReliabilityCell:
    def _spec(self, seed=3):
        config = NoCConfig(
            width=4,
            height=4,
            degradation="reroute",
            dead_router_threshold=200,
        )
        return CellSpec.reliability(
            seed,
            injection_rate=0.02,
            scheme="PowerPunch-PG",
            warmup=100,
            measurement=400,
            config=config,
            max_faults=2,
            horizon=300,
            watchdog=50_000,
        )

    def test_kind_is_registered(self):
        assert "reliability" in CELL_KINDS

    def test_spec_is_cacheable_and_labeled(self):
        spec = self._spec()
        assert spec.kind == "reliability"
        assert dict(spec.extras) == {
            "max_faults": 2,
            "horizon": 300,
            "watchdog": 50_000,
        }
        assert spec.cache_key("salt") == self._spec().cache_key("salt")
        json.loads(spec.canonical_json())  # canonical form is valid JSON

    def test_payload_shape_and_accounting(self):
        payload = run_cell(self._spec())
        for key in (
            "fault_spec",
            "outcome",
            "deadlocked",
            "injected",
            "delivered",
            "dropped",
            "refused",
            "delivered_all",
            "dead_routers",
            "wakeup_retries",
            "rerouted_packets",
            "detour_hops",
            "cycles",
        ):
            assert key in payload
        assert payload["outcome"] in ("drained", "deadlock")
        assert payload["delivered"] <= payload["injected"]
        # The sampled schedule is replayable from its payload string.
        assert FaultSchedule.parse(payload["fault_spec"])

    def test_cell_is_bit_identical_across_runs(self):
        assert run_cell(self._spec()) == run_cell(self._spec())

    def test_scheme_dash_runs_without_power_gating(self):
        spec = CellSpec.reliability(
            5,
            scheme="-",
            injection_rate=0.02,
            warmup=100,
            measurement=300,
            config=NoCConfig(width=4, height=4, degradation="reroute"),
            horizon=200,
        )
        payload = run_cell(spec)
        assert payload["wakeup_retries"] == 0  # no PG => no wakeups


class TestAggregate:
    def _outcome(self, **overrides):
        base = {
            "outcome": "drained",
            "deadlocked": False,
            "injected": 100,
            "delivered": 100,
            "dropped": 0,
            "refused": 0,
            "delivered_all": True,
            "wakeup_retries": 0,
            "rerouted_packets": 0,
            "detour_hops": 0,
        }
        base.update(overrides)
        return base

    def test_counts_and_probabilities(self):
        outcomes = [
            self._outcome(),
            self._outcome(
                outcome="deadlock",
                deadlocked=True,
                delivered=60,
                dropped=40,
                delivered_all=False,
            ),
            self._outcome(
                delivered=98,
                dropped=2,
                rerouted_packets=5,
                detour_hops=11,
                delivered_all=False,
            ),
        ]
        estimate = aggregate(outcomes)
        assert estimate["trials"] == 3
        assert estimate["deadlocks"] == 1
        assert estimate["clean_trials"] == 1
        assert estimate["injected_packets"] == 300
        assert estimate["delivered_packets"] == 258
        assert estimate["delivery_probability"] == pytest.approx(258 / 300)
        assert estimate["deadlock_probability"] == pytest.approx(1 / 3)
        assert estimate["delivery_ci95"] == list(wilson_interval(258, 300))
        assert estimate["deadlock_ci95"] == list(wilson_interval(1, 3))
        assert estimate["rerouted_packets"] == 5
        assert estimate["detour_hops"] == 11

    def test_empty_campaign_is_honest(self):
        estimate = aggregate([])
        assert estimate["delivery_probability"] is None
        assert estimate["deadlock_probability"] is None
        assert estimate["delivery_ci95"] == [0.0, 1.0]

    def test_report_renders(self):
        text = report(aggregate([self._outcome()]))
        assert "delivery (per packet)" in text
        assert "95% CI" in text
        assert "100/100" in text

    def test_estimate_is_json_serializable(self):
        json.dumps(aggregate([self._outcome()]))


class TestReliabilityCampaign:
    def test_cells_are_seeded_sequentially_and_carry_config(self):
        campaign = reliability_campaign(
            4, width=4, height=4, base_seed=10, measurement=500
        )
        assert [c.seed for c in campaign.cells] == [10, 11, 12, 13]
        for cell in campaign.cells:
            config = cell.build_config()
            assert config.degradation == "reroute"
            assert config.dead_router_threshold == 200
            assert config.width == 4

    def test_rejects_empty_campaign(self):
        with pytest.raises(ValueError):
            reliability_campaign(0)

    def test_tiny_campaign_estimates_are_bit_identical(self):
        def run():
            campaign = reliability_campaign(
                3,
                width=4,
                height=4,
                warmup=100,
                measurement=300,
                horizon=200,
                base_seed=2,
            )
            return aggregate(campaign.run())

        assert run() == run()


class TestCampaignGrowsOnItsCache:
    """A reliability cell's key holds its seed, not the campaign's
    size, so more samples on the same cache run only the new seeds."""

    TRIAL = dict(width=4, height=4, warmup=50, measurement=300, horizon=200, base_seed=3)

    def test_more_samples_run_only_the_new_seeds(self, tmp_path):
        reliability_campaign(2, **self.TRIAL).run(cache_dir=tmp_path)
        grown = reliability_campaign(4, **self.TRIAL)
        outcomes = grown.run(cache_dir=tmp_path)
        assert (grown.last_stats.hits, grown.last_stats.executed) == (2, 2)
        assert outcomes == reliability_campaign(4, **self.TRIAL).run()

    def test_a_grown_estimate_is_the_fresh_estimate(self, tmp_path, capsys):
        from repro import cli

        def estimate(samples, cache, out):
            cli.main(
                ["reliability", "--samples", str(samples), "--mesh", "4",
                 "--warmup", "50", "--measurement", "300", "--horizon", "200",
                 "--cache-dir", str(tmp_path / cache), "--out", str(tmp_path / out)]
            )
            return (tmp_path / out).read_text()

        estimate(2, "shared", "small.json")
        grown = estimate(4, "shared", "grown.json")
        capsys.readouterr()
        assert json.loads(grown)["trials"] == 4
        assert grown == estimate(4, "fresh", "fresh.json")


class TestQuarantinePostMortem:
    def test_failure_report_carries_fault_context(self):
        error = RuntimeError("router wedged")
        error.fault_spec = "router_stall,router=5,start=10"
        error.dead_routers = (5,)
        spec = CellSpec.reliability(1)
        rep = FailureReport.from_failure(
            spec=spec,
            key="k1",
            exc=error,
            attempts=1,
            classification="deterministic",
        )
        assert rep.fault_spec == "router_stall,router=5,start=10"
        assert rep.dead_routers == [5]
        doc = rep.as_dict()
        assert doc["fault_spec"] == "router_stall,router=5,start=10"
        assert doc["dead_routers"] == [5]

    def test_plain_failures_leave_context_empty(self):
        rep = FailureReport.from_failure(
            spec=CellSpec.reliability(2),
            key="k2",
            exc=ValueError("nope"),
            attempts=1,
            classification="deterministic",
        )
        assert rep.fault_spec is None
        assert rep.dead_routers == []
        assert rep.as_dict()["fault_spec"] is None


class TestRobustnessArgs:
    """The shared flags become ``NoCConfig`` overrides for every cell."""

    @staticmethod
    def _overrides(argv):
        return dict(engine_options(campaign_argparser().parse_args(argv))["config_overrides"])

    def test_degradation_reroute_is_an_override(self):
        assert self._overrides(["--degradation", "reroute"]) == {
            "degradation": "reroute"
        }

    def test_each_flag_maps_to_its_config_field(self):
        assert self._overrides(
            [
                "--degradation", "reroute", "--dead-router-threshold", "77",
                "--faults", "punch_dup", "--strict-invariants", "--watchdog", "9",
            ]
        ) == {
            "degradation": "reroute",
            "dead_router_threshold": 77,
            "faults": "punch_dup",
            "strict_invariants": True,
            "watchdog": 9,
        }
        # ...and the items build a config as they are.
        NoCConfig(**self._overrides(["--strict-invariants", "--watchdog", "9"]))

    def test_no_flags_override_nothing(self):
        assert self._overrides([]) == {}

    def test_zero_is_a_value_not_an_unset_flag(self):
        # ...so NoCConfig gets to reject it instead of it vanishing.
        assert self._overrides(["--watchdog", "0"]) == {"watchdog": 0}
        with pytest.raises(ValueError):
            CellSpec.reliability(1).with_config_overrides({"watchdog": 0})

    def test_a_watchdog_without_strict_invariants_is_refused(self):
        """Only the strict checker reads ``watchdog``: alone it would move
        a cell's content address and change no payload."""
        cell = CellSpec.synthetic("uniform_random", 0.02, "ConvOpt-PG")
        with pytest.raises(ValueError, match="strict_invariants"):
            cell.with_config_overrides({"watchdog": 5})
        checked = cell.with_config_overrides({"strict_invariants": True, "watchdog": 5})
        assert dict(checked.config)["watchdog"] == 5

    def test_the_watchdog_is_a_trial_parameter_not_cell_config(self, monkeypatch):
        """``reliability --watchdog N`` reaches every trial's extras and
        no cell's config, whose keys it would move for nothing."""
        from repro import cli
        from repro.campaign import Campaign

        runs = []

        def run(campaign, **engine):
            runs.append((campaign, dict(engine["config_overrides"])))
            return []

        monkeypatch.setattr(Campaign, "run", run)
        monkeypatch.setattr("repro.experiments.reliability.aggregate", lambda outcomes: {})
        monkeypatch.setattr("repro.experiments.reliability.report", lambda estimate: "")
        cli.main(["reliability", "--samples", "2", "--watchdog", "7"])
        [(campaign, overrides)] = runs
        assert overrides == {"degradation": "reroute", "dead_router_threshold": 200}
        assert [dict(cell.extras)["watchdog"] for cell in campaign.cells] == [7, 7]
        assert all("watchdog" not in dict(cell.config) for cell in campaign.cells)

    def test_bad_degradation_choice_exits(self):
        with pytest.raises(SystemExit):
            campaign_argparser().parse_args(["--degradation", "explode"])

    def test_override_wins_over_the_cells_own_value(self):
        spec = CellSpec.reliability(
            1, config=NoCConfig(degradation="reroute", dead_router_threshold=200)
        )
        # The override restores the default, so the field leaves the items.
        stamped = spec.with_config_overrides({"degradation": "none"})
        assert dict(stamped.config) == {"dead_router_threshold": 200}
        # Restating what the cell already says changes nothing, key included.
        same = spec.with_config_overrides(
            {"degradation": "reroute", "dead_router_threshold": 200}
        )
        assert same == spec

    def test_cli_defaults_are_the_experiments_not_the_flags(self, tmp_path, capsys):
        """``reliability`` re-defaults the shared flags (reroute / 200 /
        50 000) instead of declaring its own."""
        from repro import cli

        out = tmp_path / "estimate.json"
        cli.main(
            ["reliability", "--samples", "2", "--mesh", "4", "--warmup", "50",
             "--measurement", "300", "--out", str(out)]
        )
        capsys.readouterr()
        via_cli = json.loads(out.read_text())["trial_outcomes"]
        direct = reliability_campaign(
            2, width=4, height=4, warmup=50, measurement=300
        ).run()
        assert via_cli == direct

    def test_a_given_flag_beats_the_experiments_default_on_either_side(
        self, monkeypatch
    ):
        """Only the flags left unset take reliability's defaults, whether
        the others come before the command or after it."""
        from repro import cli
        from repro.experiments import reliability

        class Declared(Exception):
            pass

        trials = []

        def declare(samples, *, base_seed, **trial):
            trials.append(trial)
            raise Declared

        monkeypatch.setattr(reliability, "reliability_campaign", declare)
        for argv in (
            ["reliability"],
            ["--degradation", "none", "--watchdog", "7", "reliability"],
            ["reliability", "--degradation", "none", "--watchdog", "7"],
        ):
            with pytest.raises(Declared):
                cli.main(argv)
        assert [
            (t["degradation"], t["watchdog"], t["dead_router_threshold"])
            for t in trials
        ] == [("reroute", 50_000, 200), ("none", 7, 200), ("none", 7, 200)]
