"""Command-line entry point: ``python -m repro.cli <command>``.

One front door for every harness in the repository::

    python -m repro.cli table1
    python -m repro.cli parsec-suite --out results/parsec.json
    python -m repro.cli report --cache-dir results/cellcache
    python -m repro.cli fig12 --patterns uniform_random
    python -m repro.cli ablations
    python -m repro.cli baselines
    python -m repro.cli all --out results/

``repro.cli all`` regenerates the complete evaluation in one go (this
is the long way to reproduce EXPERIMENTS.md).  Every experiment but
``table1``, a function call that takes no engine or robustness flag,
runs through the campaign engine (``docs/campaigns.md``): ``--workers N``
fans independent cells out over a process pool, ``--cache-dir`` keeps
a content-addressed cell cache so re-runs recompute only invalidated
cells, and ``--resume`` (default) lets an interrupted ``all`` pick up
where it stopped.  That cache is the only place a result is looked
up: ``report`` (Figs 7-11 and every paper claim, over seeds 1-5)
runs the PARSEC matrix like ``parsec-suite`` does and finds its 32
seed-1 cells there (``parsec-suite --out`` is an export, not an
input), and ``all`` hands every engine and robustness option it was
given to every campaign sub-command::

    python -m repro.cli all --out results/ --workers 4
    python -m repro.cli all --out results/ --workers 4   # warm: 0 cells re-run

Execution is supervised (``docs/resilience.md`` has the verdict
rule): ``--timeout SECS`` bounds each cell's wall clock.  A cell that
raises is quarantined on its first attempt: its failure report becomes
its entry in ``--cache-dir``, and later runs skip it until that entry
is deleted or the simulator sources change.  A worker crash (OOM kill,
segfault) or a timeout is charged to its own cell, the worker
replaced, and the cell retried up to ``--max-retries N`` total
attempts; a budget spent that way is stored but condemns nothing.  A
``kill -9``'d campaign resumes from its cell cache, which holds every
cell that finished before the kill.

Robustness flags (before or after the command; see
``docs/fault_model.md``)::

    python -m repro.cli --strict-invariants report
    python -m repro.cli --faults "punch_drop,rate=0.5;seed=7" fig12
    python -m repro.cli --strict-invariants --watchdog 50000 baselines
    python -m repro.cli --degradation reroute --faults "router_stall,router=27" fig12
    python -m repro.cli fig13 --degradation reroute --dead-router-threshold 500

These are cell configuration, not process state: each flag overrides
the ``NoCConfig`` field of the same name on every cell of the campaign
before the cell is hashed, so the setting is part of the content
address (a faulted run never shares a cache entry with a fault-free
one) and holds under ``--workers N`` and ``--hosts`` exactly as it
does inline.  ``--faults`` injects a deterministic fault schedule into
every network; ``--strict-invariants`` runs the per-cycle invariant
checker and deadlock watchdog (bound adjustable with ``--watchdog``),
aborting on the first violation.  ``--degradation`` sets what every
network does with a dead router (``none`` leaves it to the watchdog,
``reroute`` detours traffic around it) and ``--dead-router-threshold``
the number of continuously stalled cycles before a router is declared
dead.  A command takes only the flags it can honour
(``docs/campaigns.md`` has the table); one it does not take is a usage
error (exit 2), before or after the command, and no cell runs.

Monte-Carlo reliability campaigns (``docs/resilience.md``)::

    python -m repro.cli reliability --samples 200 --workers 4

Guarantees mode (``docs/guarantees.md``)::

    python -m repro.cli guarantees --certify-only
    python -m repro.cli guarantees --loads 0.02 0.2 --out bounds.json

Distributed campaigns (``docs/service.md``)::

    python -m repro.cli serve --cache-dir results/cellcache --port 8765
    python -m repro.cli work --connect 127.0.0.1:8765 --capacity 4
    python -m repro.cli reliability --samples 200 --hosts 127.0.0.1:8765
    python -m repro.cli fig12 --hosts local:3        # ephemeral cluster

``serve`` runs the orchestrator (one queue of cold cells, leases,
heartbeats; results land in its ``--cache-dir`` store); ``work``
attaches a worker host.  ``--hosts`` on any campaign command routes
that campaign through the service — ``local:N`` stands up an
ephemeral N-worker cluster just for the run.  Results are
bit-identical to single-host execution either way.

This module is the only one that parses a command line, once: each
experiment module declares its flags (``add_arguments(parser)``) and
runs from what was parsed (``run(args, engine)``).  Custom scripts
build on :func:`campaign_argparser` (``docs/campaigns.md``).
"""

from __future__ import annotations

import argparse
from typing import Dict, Optional, Sequence, Tuple

from .campaign import freeze_items
from .campaign.spec import CANONICAL_INSTRUCTIONS, Items
from .experiments import (
    ablations,
    baselines_compare,
    fig12,
    fig13,
    guarantees,
    headline,
    parsec_suite,
    reliability,
    scalability,
    table1,
)
from .noc.config import VALID_DEGRADATIONS

#: Every campaign command and the module that declares its flags
#: (``add_arguments(parser)``), names the robustness fields its cells
#: cannot honour (``REFUSED_ROBUSTNESS``, if any) and runs it
#: (``run(args, engine)``).  ``table1`` runs no cell: ``run(args)``.
EXPERIMENTS = {
    "parsec-suite": parsec_suite,
    "report": headline,
    "fig12": fig12,
    "fig13": fig13,
    "scalability": scalability,
    "ablations": ablations,
    "baselines": baselines_compare,
    "guarantees": guarantees,
    "reliability": reliability,
}

#: The engine flags by their argparse ``dest``: the ``Campaign.run``
#: keyword each is handed to as it stands (see :func:`engine_options`).
_ENGINE = {
    "workers": dict(
        type=int, default=1, help="process-pool fan-out (cells are independent and seeded)"
    ),
    "cache_dir": dict(
        default=None,
        help="content-addressed cell cache directory (enables caching, "
        "resume, quarantine, and the JSONL progress log)",
    ),
    "resume": dict(
        action=argparse.BooleanOptionalAction,
        default=True,
        help="reuse cached cells (--no-resume recomputes and overwrites)",
    ),
    "timeout": dict(
        type=float,
        default=None,
        help="per-cell wall-clock budget in seconds (enforced via "
        "process isolation; the offending worker is killed)",
    ),
    "max_retries": dict(
        type=int,
        default=2,
        help="total attempts per cell when its worker crashes or times "
        "out (a cell that raises fails at once; docs/resilience.md)",
    ),
    "hosts": dict(
        default=None,
        help="run the campaign on the distributed service instead of "
        "the in-process pool: 'local:N' spins up an ephemeral "
        "N-worker cluster on this machine, 'HOST:PORT' submits to "
        "a running 'repro.cli serve' orchestrator (results are "
        "bit-identical either way; see docs/service.md)",
    ),
}
#: Every key :func:`engine_options` returns.
ENGINE_OPTION_KEYS = (*_ENGINE, "config_overrides")

#: The robustness flags by the ``NoCConfig`` field each overrides on
#: every cell of the campaign (its argparse ``dest``; see
#: :func:`config_overrides`), so a setting is part of each cell's
#: content address and reaches pool workers and service hosts inside
#: the spec.  None states a default: an unset flag (``None`` /
#: ``False``) leaves the cell's own value alone, and a group built with
#: ``argument_default=SUPPRESS`` records only the flags given.
_ROBUSTNESS = {
    "faults": dict(
        metavar="SPEC",
        help="fault schedule injected into every network, e.g. "
        "'punch_drop,rate=0.5;seed=7' (see docs/fault_model.md)",
    ),
    "strict_invariants": dict(
        action="store_true",
        help="run the per-cycle invariant checker and deadlock watchdog "
        "on every network; the first violation raises",
    ),
    "watchdog": dict(
        type=int, metavar="CYCLES", help="deadlock-watchdog bound for --strict-invariants"
    ),
    "degradation": dict(
        choices=VALID_DEGRADATIONS, help="graceful-degradation mode of every network"
    ),
    "dead_router_threshold": dict(
        type=int,
        metavar="CYCLES",
        help="continuously stalled cycles before a router is declared "
        "permanently dead",
    ),
}
_ROBUSTNESS_TITLE = "robustness (cell configuration)"


# ----------------------------------------------------------------------
# The shared flags (also what custom campaign scripts build on)
# ----------------------------------------------------------------------
def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _declare(group, flags: dict, refused: Sequence[str] = ()) -> None:
    """Declare ``flags`` (``_ENGINE`` or ``_ROBUSTNESS``) on ``group``,
    less ``refused`` — the one place either table is declared."""
    for dest, options in flags.items():
        if dest not in refused:
            group.add_argument(_flag(dest), **options)


def _refused(command: str) -> Tuple[str, ...]:
    """The robustness fields ``command`` does not take: its module's
    ``REFUSED_ROBUSTNESS``, none for ``all`` (whose sub-commands take
    them all), and every one for a command that runs no cell."""
    if command in EXPERIMENTS:
        return getattr(EXPERIMENTS[command], "REFUSED_ROBUSTNESS", ())
    return () if command == "all" else tuple(_ROBUSTNESS)


def campaign_argparser(
    description: Optional[str] = None, *, prog: Optional[str] = None
) -> argparse.ArgumentParser:
    """A fresh parser pre-loaded with the shared engine and robustness
    flags."""
    # No abbreviations: a script still passing the retired records-file
    # flag ``--cache FILE`` must fail, not be read as ``--cache-dir FILE``.
    parser = argparse.ArgumentParser(
        prog=prog, description=description, allow_abbrev=False
    )
    _declare(parser.add_argument_group("campaign engine"), _ENGINE)
    _declare(parser.add_argument_group(_ROBUSTNESS_TITLE), _ROBUSTNESS)
    return parser


def config_overrides(args: argparse.Namespace) -> Items:
    """The set robustness flags as ``NoCConfig`` override items."""
    # Identity, not equality: ``--watchdog 0`` must reach NoCConfig and
    # be rejected there, not vanish because ``0 == False``.
    return freeze_items(
        [
            (name, value)
            for name in _ROBUSTNESS
            if (value := getattr(args, name, None)) is not None
            and value is not False
        ]
    )


def engine_options(args: argparse.Namespace) -> dict:
    """Extract ``Campaign.run`` kwargs from a parsed namespace."""
    options = {key: getattr(args, key) for key in _ENGINE}
    options["config_overrides"] = config_overrides(args)
    return options


# ----------------------------------------------------------------------
# The command tree
# ----------------------------------------------------------------------
def _parser() -> Tuple[argparse.ArgumentParser, Dict[str, argparse.ArgumentParser]]:
    """The one argparse tree, and its commands by name.

    The robustness flags sit on the root (before the command) and on
    every campaign command (after it), less the ones the command does
    not take (:func:`_refused`).  The root's copies carry the
    defaults; a command's copies record only the flags given, so the
    same flag after the command overrides it before the command, and
    an absent one leaves the root's value alone.
    """
    root = argparse.ArgumentParser(
        prog="repro.cli",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,
    )
    _declare(root.add_argument_group(_ROBUSTNESS_TITLE), _ROBUSTNESS)
    subparsers = root.add_subparsers(dest="command", title="commands")
    commands = {}

    def command(name: str, doc: str) -> argparse.ArgumentParser:
        parser = commands[name] = subparsers.add_parser(
            name, help=doc.strip().splitlines()[0], description=doc, allow_abbrev=False
        )
        if name in EXPERIMENTS or name == "all":
            _declare(parser.add_argument_group("campaign engine"), _ENGINE)
            group = parser.add_argument_group(
                _ROBUSTNESS_TITLE, argument_default=argparse.SUPPRESS
            )
            _declare(group, _ROBUSTNESS, _refused(name))
        return parser

    table1.add_arguments(command("table1", table1.__doc__))
    for name, experiment in EXPERIMENTS.items():
        experiment.add_arguments(command(name, experiment.__doc__))
    parser = command("all", _run_all.__doc__)
    parser.add_argument("--out", default="results")
    parser.add_argument("--instructions", type=int, default=CANONICAL_INSTRUCTIONS)
    _serve_arguments(command("serve", "campaign-service orchestrator (see docs/service.md)"))
    _work_arguments(command("work", "campaign worker host (see docs/service.md)"))
    return root, commands


def _run_all(args: argparse.Namespace, engine: dict, commands: dict) -> None:
    """Regenerate the complete evaluation: every figure command in turn."""
    # One shared cell cache under the output directory unless the user
    # pointed somewhere else: every command below reuses (and resumes
    # from) the same content-addressed cells, so report finds seed 1
    # of its PARSEC suite where parsec-suite just stored it.
    engine = {**engine, "cache_dir": engine["cache_dir"] or f"{args.out}/cellcache"}
    suite = {"instructions": args.instructions}
    for name, options in (
        ("parsec-suite", {"out": f"{args.out}/parsec_suite.json", **suite}),
        ("report", suite),
        ("table1", {}),
        ("fig12", {}),
        ("fig13", {}),
        ("scalability", {}),
        ("ablations", {}),
        ("baselines", {}),
    ):
        print(f"\n==== {name} ====")
        # The command's own defaults (its empty command line), with the
        # options ``all`` sets; engine and robustness options are ``all``'s.
        sub = commands[name].parse_args([])
        vars(sub).update(options)
        if name in EXPERIMENTS:
            EXPERIMENTS[name].run(sub, engine)
        else:
            table1.run(sub)


def _serve_arguments(parser: argparse.ArgumentParser) -> None:
    from .campaign.service import orchestrator as orchestrator_defaults

    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8765)
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="filesystem result store (shared with single-host runs); "
        "omitting it keeps results in memory only",
    )
    parser.add_argument(
        "--lease-duration",
        type=float,
        default=orchestrator_defaults.LEASE_DURATION,
        help="seconds a granted cell stays leased without renewal",
    )
    parser.add_argument(
        "--heartbeat-interval",
        type=float,
        default=orchestrator_defaults.HEARTBEAT_INTERVAL,
        help="seconds between worker heartbeats (each renews its leases)",
    )
    parser.add_argument(
        "--miss-limit",
        type=int,
        default=orchestrator_defaults.MISS_LIMIT,
        help="consecutive missed heartbeats before a host is declared dead",
    )
    parser.add_argument(
        "--log-path",
        default=None,
        help="orchestrator JSONL event log (default: "
        "<cache-dir>/service.events.jsonl when --cache-dir is set)",
    )


def _serve(args: argparse.Namespace) -> None:
    """Run the campaign-service orchestrator until interrupted."""
    import asyncio

    from .campaign import CellCache
    from .campaign.service import Orchestrator

    store = CellCache(args.cache_dir)
    log_path = args.log_path
    if log_path is None and args.cache_dir is not None:
        log_path = f"{args.cache_dir}/service.events.jsonl"
    service = Orchestrator(
        store,
        host=args.host,
        port=args.port,
        lease_duration=args.lease_duration,
        heartbeat_interval=args.heartbeat_interval,
        miss_limit=args.miss_limit,
        log_path=log_path,
    )

    async def _run() -> None:
        await service.start()
        print(
            f"[serve] orchestrator on {service.address} "
            f"(salt {store.salt[:12]}..., lease {service.lease_duration}s, "
            f"heartbeat {service.heartbeat_interval}s)"
        )
        try:
            await service.serve_forever()
        finally:
            await service.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("[serve] stopped")


def _work_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--connect", required=True, help="orchestrator address host:port"
    )
    parser.add_argument("--name", default=None, help="stable host identity")
    parser.add_argument(
        "--capacity",
        type=int,
        default=2,
        help="cells leased and run concurrently (the in-host pool size)",
    )
    parser.add_argument("--timeout", type=float, default=None)
    parser.add_argument("--max-retries", type=int, default=2)
    parser.add_argument(
        "--log-dir",
        default=None,
        help="directory for this host's JSONL event log "
        "(<log-dir>/hosts/<name>.events.jsonl)",
    )
    parser.add_argument(
        "--reconnect",
        type=int,
        default=0,
        help="extra connection attempts after the orchestrator goes away",
    )


def _work(args: argparse.Namespace) -> None:
    """Run a worker host attached to an orchestrator."""
    from .campaign.service import run_worker

    run_worker(
        args.connect,
        reconnect=args.reconnect,
        name=args.name,
        capacity=args.capacity,
        timeout=args.timeout,
        max_retries=args.max_retries,
        log_dir=args.log_dir,
    )


def main(argv: Optional[Sequence[str]] = None) -> None:
    """Parse the command line once and run its command."""
    root, commands = _parser()
    args, unknown = root.parse_known_args(argv)
    if unknown:  # said by the command's own parser, so the message names it
        commands.get(args.command, root).error(f"unrecognized arguments: {' '.join(unknown)}")
    if args.command is None:
        root.print_help()
        return
    refused = [field for field, _ in config_overrides(args) if field in _refused(args.command)]
    if refused:
        # Only a flag before the command gets here: after it, argparse
        # has already refused what the command does not declare.
        root.error(f"{args.command} takes no {', '.join(map(_flag, refused))}")
    plain = {"table1": table1.run, "serve": _serve, "work": _work}
    if args.command in plain:
        plain[args.command](args)
        return
    engine = engine_options(args)
    if engine["config_overrides"]:
        settings = " ".join(f"{k}={v}" for k, v in engine["config_overrides"])
        print(f"[robustness] {settings} applies to every cell")
    if args.command == "all":
        _run_all(args, engine, commands)
    else:
        EXPERIMENTS[args.command].run(args, engine)


if __name__ == "__main__":
    main()
