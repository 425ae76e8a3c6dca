"""Tests for the CLI front door."""

import functools

import pytest

from repro import cli
from repro.campaign import (
    Campaign,
    CampaignError,
    CellSpec,
    campaign_argparser,
    encode_payload,
    engine_options,
)
from repro.noc import DeadlockError, FaultSpecError, NoCConfig


class TestDispatch:
    def test_known_commands_registered(self):
        for name in (
            "table1",
            "parsec-suite",
            "report",
            "fig12",
            "fig13",
            "scalability",
            "ablations",
            "baselines",
        ):
            assert name in cli._COMMANDS
        # The PARSEC figures and the headline are all ``report`` now.
        for name in ("fig7-fig8", "fig9-fig10", "fig11", "headline"):
            assert name not in cli._COMMANDS

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
    """A miniature experiment command: the shared parser, a four-cell
    campaign, ``engine_options`` — nothing robustness-specific.  Each
    invocation appends ``(encoded payloads, stats, overrides)``."""
    runs = []

    def main(argv):
        args = campaign_argparser("probe").parse_args(argv)
        engine = engine_options(args)
        campaign = Campaign("probe", _probe_cells())
        payloads = campaign.run(**engine)
        runs.append(
            (
                [encode_payload(p) for p in payloads],
                campaign.last_stats,
                dict(engine["config_overrides"]),
            )
        )

    monkeypatch.setitem(cli._COMMANDS, "probe", main)
    return runs


class TestRobustnessFlags:
    def test_flags_before_and_after_the_command_are_the_same_flags(
        self, probe, capsys
    ):
        cli.main(["--strict-invariants", "--watchdog=5000", "probe", "--reroute"])
        cli.main(["probe", "--strict-invariants", "--watchdog", "5000", "--reroute"])
        expected = {
            "strict_invariants": True,
            "watchdog": 5000,
            "degradation": "reroute",
        }
        assert probe[0][2] == probe[1][2] == expected
        assert probe[0][0] == probe[1][0]
        out = capsys.readouterr().out
        assert "[robustness]" in out and "--strict-invariants" in out

    def test_checkers_are_observers(self, probe):
        """--strict-invariants / --bounds change no payload."""
        cli.main(["probe"])
        cli.main(["--strict-invariants", "--bounds", "probe"])
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

    def test_bad_fault_spec_fails_before_any_cell_runs(self, probe):
        with pytest.raises(FaultSpecError):
            cli.main(["--faults", "frobnicate,rate=0.5", "probe"])
        assert probe == []

    def test_bounds_with_faults_is_rejected(self, probe):
        with pytest.raises(FaultSpecError):
            cli.main(["--bounds", "--faults", FAULTS, "probe"])
        assert probe == []

    @pytest.fixture
    def sub_argv(self, monkeypatch):
        """The argv each sub-command of ``all`` is dispatched with."""
        seen = {}
        for name in cli._COMMANDS:
            monkeypatch.setitem(
                cli._COMMANDS, name, functools.partial(seen.__setitem__, name)
            )
        return seen

    def test_all_forwards_the_flags_to_every_subcommand(self, sub_argv, tmp_path):
        cli.main(["--faults", FAULTS, "all", "--out", str(tmp_path), "--bounds"])
        assert len(sub_argv) == 9
        for argv in sub_argv.values():
            assert argv[argv.index("--faults") + 1] == FAULTS
            assert "--bounds" in argv

    def test_all_forwards_the_engine_flags_to_every_subcommand(
        self, sub_argv, tmp_path
    ):
        cli.main(
            ["all", "--out", str(tmp_path), "--hosts", "local:2", "--timeout", "5",
             "--no-resume"]
        )
        assert len(sub_argv) == 9
        for name, argv in sub_argv.items():
            args, _ = campaign_argparser().parse_known_args(argv)
            assert (args.hosts, args.timeout, args.resume) == ("local:2", 5.0, False), name
            assert args.cache_dir == f"{tmp_path}/cellcache", name

    def test_all_rejects_a_topology_it_would_not_forward(self, sub_argv, tmp_path):
        """``all`` is the mesh evaluation: a non-mesh ``--topology`` is
        refused before any command runs, not silently dropped."""
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["all", "--out", str(tmp_path), "--topology", "torus"])
        assert "'topologies'" in str(excinfo.value.code)
        assert sub_argv == {}


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
