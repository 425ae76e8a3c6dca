"""Tests for the CLI front door."""

import types

import pytest

from repro import cli
from repro.campaign import Campaign, CampaignError, CellSpec, encode_payload
from repro.experiments import table1
from repro.experiments.common import CANONICAL_INSTRUCTIONS
from repro.noc import DeadlockError, FaultSpecError, NoCConfig


class TestDispatch:
    def test_known_commands_registered(self):
        for name in (
            "parsec-suite",
            "report",
            "fig12",
            "fig13",
            "scalability",
            "ablations",
            "baselines",
        ):
            assert name in cli.EXPERIMENTS
        # The PARSEC figures and the headline are all ``report`` now.
        for name in ("fig7-fig8", "fig9-fig10", "fig11", "headline"):
            assert name not in cli.EXPERIMENTS
        # Table 1 is a function call, not a campaign.
        assert "table1" not in cli.EXPERIMENTS

    def test_unknown_command_raises(self):
        with pytest.raises(SystemExit):
            cli.main(["frobnicate"])

    def test_help_prints(self, capsys):
        cli.main([])
        out = capsys.readouterr().out
        assert "commands:" in out
        assert "table1" in out

    def test_table1_runs_through_cli_with_arguments(self, capsys):
        # One invocation covers both dispatch and argument passthrough
        # (the exhaustive chip-wide analysis is expensive).
        cli.main(["table1", "--router", "36"])
        out = capsys.readouterr().out
        assert "R36" in out
        assert "22" in out


def test_fig12_refuses_a_pattern_it_has_no_loads_for(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["fig12", "--patterns", "tornado"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'tornado'" in capsys.readouterr().err


FAULTS = "wakeup_delay,rate=0.5,delay=8;seed=7"


def _probe_cells():
    config = NoCConfig(width=4, height=4)
    return [
        CellSpec.synthetic(
            "uniform_random",
            0.05,
            scheme,
            warmup=50,
            measurement=250,
            seed=seed,
            config=config,
        )
        for scheme in ("ConvOpt-PG", "PowerPunch-PG")
        for seed in (1, 2)
    ]


@pytest.fixture
def probe(monkeypatch):
    """A miniature experiment command: no flags of its own, a four-cell
    campaign run with the engine options it is handed — nothing
    robustness-specific.  Each run appends ``(encoded payloads, stats,
    overrides)``."""
    runs = []

    def run(args, engine):
        campaign = Campaign("probe", _probe_cells())
        payloads = campaign.run(**engine)
        runs.append(
            (
                [encode_payload(p) for p in payloads],
                campaign.last_stats,
                dict(engine["config_overrides"]),
            )
        )

    command = types.SimpleNamespace(
        __doc__="A four-cell probe campaign.", add_arguments=lambda parser: None, run=run
    )
    monkeypatch.setitem(cli.EXPERIMENTS, "probe", command)
    return runs


@pytest.fixture
def sub_runs(monkeypatch):
    """``{command: (args, engine)}``: what each experiment command's
    ``run`` was called with (``engine`` is ``None`` for ``table1``,
    which takes none; nothing simulates)."""
    seen = {}
    for name, experiment in {**cli.EXPERIMENTS, "table1": table1}.items():
        monkeypatch.setattr(
            experiment,
            "run",
            lambda args, engine=None, name=name: seen.__setitem__(name, (args, engine)),
        )
    return seen


@pytest.mark.parametrize("command", [*cli.EXPERIMENTS, "table1", "all", "serve", "work"])
def test_every_command_has_help_and_no_topology_flag(command, sub_runs, tmp_path, capsys):
    with pytest.raises(SystemExit) as helped:
        cli.main([command, "--help"])
    assert helped.value.code == 0
    assert command in capsys.readouterr().out
    argv = [command, "--topology", "mesh"]
    if command == "all":
        argv += ["--out", str(tmp_path)]
    with pytest.raises(SystemExit) as refused:
        cli.main(argv)
    assert refused.value.code == 2
    assert sub_runs == {}


def test_the_parsec_commands_default_to_the_canonical_budget(sub_runs, tmp_path):
    cli.main(["all", "--out", str(tmp_path)])
    cli.main(["parsec-suite"])
    assert sub_runs["parsec-suite"][0].instructions == CANONICAL_INSTRUCTIONS
    assert sub_runs["report"][0].instructions == CANONICAL_INSTRUCTIONS
    assert not hasattr(cli.campaign_argparser().parse_args([]), "instructions")


class TestRobustnessFlags:
    def test_flags_before_and_after_the_command_are_the_same_flags(
        self, probe, capsys
    ):
        cli.main(["--strict-invariants", "--watchdog=5000", "probe", "--degradation=reroute"])
        cli.main(
            ["probe", "--strict-invariants", "--watchdog", "5000", "--degradation", "reroute"]
        )
        expected = {
            "strict_invariants": True,
            "watchdog": 5000,
            "degradation": "reroute",
        }
        assert probe[0][2] == probe[1][2] == expected
        assert probe[0][0] == probe[1][0]
        out = capsys.readouterr().out
        assert "[robustness]" in out and "strict_invariants=True" in out

    def test_checkers_are_observers(self, probe):
        """--strict-invariants changes no payload."""
        cli.main(["probe"])
        cli.main(["--strict-invariants", "probe"])
        assert probe[0][0] == probe[1][0]
        assert probe[0][2] == {}

    def test_missing_or_bad_values_exit(self):
        for argv in (
            ["--faults"],
            ["--watchdog"],
            ["--watchdog", "soon", "fig12"],
            ["--degradation", "explode", "fig12"],
        ):
            with pytest.raises(SystemExit):
                cli.main(argv)

    @pytest.mark.parametrize(
        "flag",
        [
            "--reroute",
            "--sprt",
            "--sprt-p0=0.9",
            "--sprt-p1=0.6",
            "--sprt-alpha=0.05",
            "--sprt-beta=0.05",
            "--sprt-batch=8",
        ],
    )
    def test_retired_flags_are_refused(self, flag, capsys):
        """``--degradation reroute`` is the one spelling of rerouting,
        and a larger ``--samples`` on a warm ``--cache-dir`` stands in
        for the sequential test."""
        with pytest.raises(SystemExit):
            cli.main(["reliability", flag])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_bounds_flag_is_refused(self, capsys):
        """Latency bounds are checked by the ``guarantees`` campaign
        alone; no flag puts a checker on another command's networks."""
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--bounds", "fig12"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_bad_fault_spec_fails_before_any_cell_runs(self, probe):
        with pytest.raises(FaultSpecError):
            cli.main(["--faults", "frobnicate,rate=0.5", "probe"])
        assert probe == []

    def test_all_hands_its_robustness_options_to_every_subcommand(
        self, sub_runs, tmp_path
    ):
        cli.main(["--faults", FAULTS, "all", "--out", str(tmp_path), "--strict-invariants"])
        assert len(sub_runs) == 8
        assert sub_runs.pop("table1")[1] is None
        for _, engine in sub_runs.values():
            assert dict(engine["config_overrides"]) == {
                "faults": FAULTS,
                "strict_invariants": True,
            }

    def test_all_hands_every_subcommand_its_own_options(self, sub_runs, tmp_path):
        out = str(tmp_path)
        cli.main(["all", "--out", out, "--instructions", "300"])
        assert sub_runs["parsec-suite"][0].out == f"{out}/parsec_suite.json"
        assert sub_runs["parsec-suite"][0].instructions == 300
        assert sub_runs["report"][0].instructions == 300
        # Everything else is the command's own default.
        assert sub_runs["fig12"][0].measurement == 5000

    @pytest.mark.parametrize(
        "flags",
        [
            [],
            ["--workers", "3"],
            ["--cache-dir", "/tmp/c"],
            ["--no-resume"],
            ["--timeout", "12.5"],
            ["--max-retries", "4"],
            ["--hosts", "local:3"],
            ["--faults", "punch_drop,rate=0.5;seed=7", "--degradation", "reroute"],
            ["--strict-invariants", "--watchdog", "300", "--hosts", "h:1"],
        ],
    )
    def test_all_runs_each_command_with_the_engine_options_of_its_flags(
        self, sub_runs, tmp_path, flags
    ):
        """What ``all`` hands a command is what the same flags given to
        that command directly produce (``all``'s default cache aside)."""
        cli.main(["all", "--out", str(tmp_path), *flags])
        via_all = {name: engine for name, (_, engine) in sub_runs.items()}
        assert len(via_all) == 8 and via_all.pop("table1") is None
        cache = [] if "--cache-dir" in flags else ["--cache-dir", f"{tmp_path}/cellcache"]
        for name, engine in via_all.items():
            cli.main([name, *flags, *cache])
            assert sub_runs[name][1] == engine, name


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["table1", "--workers", "2"], "--workers"),
        (["--faults", FAULTS, "table1"], "--faults"),
        (["guarantees", "--faults", FAULTS], "--faults"),
        (["--faults", FAULTS, "guarantees"], "--faults"),
        (["guarantees", "--degradation", "reroute"], "--degradation"),
        (["reliability", "--faults", FAULTS], "--faults"),
        (["reliability", "--strict-invariants"], "--strict-invariants"),
    ],
    ids=[
        "table1-workers", "faults-table1", "guarantees-faults", "faults-guarantees",
        "guarantees-degradation", "reliability-faults", "reliability-strict-invariants",
    ],
)
def test_a_flag_the_command_cannot_honour_is_a_usage_error(argv, flag, sub_runs, capsys):
    """Refused on the command line, before or after the command, in one
    line naming both, and before any cell runs."""
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    command = next(arg for arg in argv if arg in ("table1", "guarantees", "reliability"))
    assert len(errors) == 1 and flag in errors[0] and command in errors[0]
    assert sub_runs == {}


class TestRunOptionsAreCellConfiguration:
    """The two hazards of the old process-global options, driven through
    the front door exactly as a user would."""

    def test_faulted_and_fault_free_runs_do_not_share_cache_entries(
        self, probe, tmp_path
    ):
        shared, fresh = str(tmp_path / "shared"), str(tmp_path / "fresh")
        cli.main(["--faults", FAULTS, "probe", "--cache-dir", shared])
        cli.main(["probe", "--cache-dir", shared])
        cli.main(["probe", "--cache-dir", fresh])
        faulted, clean, reference = probe
        assert clean[1].hits == 0 and clean[1].executed == 4
        assert clean[0] == reference[0]
        assert clean[0] != faulted[0]
        # ...and the faulted entries are still there under their own keys.
        cli.main(["--faults", FAULTS, "probe", "--cache-dir", shared])
        assert probe[3][1].hits == 4 and probe[3][0] == faulted[0]

    def test_faults_reach_pool_workers_and_service_hosts(self, probe):
        cli.main(["probe"])
        cli.main(["--faults", FAULTS, "probe"])
        cli.main(["--faults", FAULTS, "probe", "--workers", "2"])
        cli.main(["--faults", FAULTS, "probe", "--hosts", "local:2"])
        clean, inline, pool, hosts = (run[0] for run in probe)
        assert inline != clean
        assert pool == inline
        assert hosts == inline

    @pytest.mark.parametrize(
        "carrier",
        [[], ["--workers", "2"], ["--hosts", "local:1", "--workers", "2"]],
    )
    def test_strict_invariants_reach_pool_workers(self, probe, carrier):
        """A permanently stalled router wedges traffic and the small
        watchdog trips — inline, in a pool worker, and on a service
        host (a fresh interpreter sharing no state with this process).
        A carrier that lost the options would run the cells fault-free
        and unchecked, and the command would return normally."""
        flags = [
            "--strict-invariants", "--watchdog", "150",
            "--faults", "router_stall,router=5,start=10",
        ]
        with pytest.raises(CampaignError) as excinfo:
            cli.main(flags + ["probe", "--max-retries", "1"] + carrier)
        assert "'deadlock-watchdog' violated" in str(excinfo.value)
        if "--hosts" not in carrier:  # the service reports causes as text
            assert isinstance(excinfo.value.cause, DeadlockError)
        assert probe == []
