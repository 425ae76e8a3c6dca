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
is the long way to reproduce EXPERIMENTS.md).  Every experiment runs
through the campaign engine (``docs/campaigns.md``): ``--workers N``
fans independent cells out over a process pool, ``--cache-dir`` keeps
a content-addressed cell cache so re-runs recompute only invalidated
cells, and ``--resume`` (default) lets an interrupted ``all`` pick up
where it stopped.  That cache is the only place a result is looked
up: ``report`` (Figs 7-11 and every paper claim, over seeds 1-5)
runs the PARSEC matrix like ``parsec-suite`` does and finds its 32
seed-1 cells there (``parsec-suite --out`` is an export, not an
input), and ``all`` hands every engine and robustness flag it was
given to every sub-command::

    python -m repro.cli all --out results/ --workers 4
    python -m repro.cli all --out results/ --workers 4   # warm: 0 cells re-run

Execution is supervised (``docs/resilience.md``): ``--timeout SECS``
bounds each cell's wall clock, and ``--max-retries N`` caps attempts
before a cell is quarantined: its failure report becomes its entry in
``--cache-dir``, and later runs skip it until that entry is deleted or
the simulator sources change.  A worker crash (OOM kill, segfault)
is charged to its own cell and the worker replaced; a ``kill -9``'d campaign
resumes from its cell cache, which holds every cell that finished
before the kill.

Robustness flags (before or after the command; see
``docs/fault_model.md``)::

    python -m repro.cli --strict-invariants report
    python -m repro.cli --faults "punch_drop,rate=0.5;seed=7" fig12
    python -m repro.cli --strict-invariants --watchdog 50000 baselines
    python -m repro.cli --reroute --faults "router_stall,router=27" fig12
    python -m repro.cli fig13 --degradation drop --dead-router-threshold 500

These are cell configuration, not process state: each flag overrides
the ``NoCConfig`` field of the same name on every cell of the campaign
before the cell is hashed, so the setting is part of the content
address (a faulted run never shares a cache entry with a fault-free
one) and holds under ``--workers N`` and ``--hosts`` exactly as it
does inline.  ``--faults`` injects a deterministic fault schedule into
every network; ``--strict-invariants`` runs the per-cycle invariant
checker and deadlock watchdog (bound adjustable with ``--watchdog``),
aborting on the first violation.  ``--degradation`` sets every
network's graceful-degradation mode (``none``, ``drop``, ``reroute``,
``fail_fast``; ``--reroute`` is shorthand for ``--degradation
reroute``) and ``--dead-router-threshold`` the number of continuously
stalled cycles before a router is declared dead.

Monte-Carlo reliability campaigns (``docs/resilience.md``)::

    python -m repro.cli reliability --samples 200 --workers 4
    python -m repro.cli reliability --sprt --samples 200   # sequential

Guarantees mode (``docs/guarantees.md``)::

    python -m repro.cli guarantees --certify-only
    python -m repro.cli guarantees --loads 0.02 0.2 --out bounds.json
    python -m repro.cli --bounds fig12

``--bounds`` (cell configuration, like the robustness flags) puts a
strict latency-bound checker on every network of every cell: the first
delivered packet to exceed its certified worst-case bound raises a
structured ``BoundViolationError``.  Bounds certify the fault-free
pipeline, so ``--bounds`` and ``--faults`` are mutually exclusive.

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
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .campaign import (
    add_robustness_args,
    campaign_argparser,
    engine_argv,
    require_mesh_topology,
    robustness_argv,
)
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
    topologies,
)

_COMMANDS = {
    "table1": table1.main,
    "parsec-suite": parsec_suite.main,
    "report": headline.main,
    "fig12": fig12.main,
    "fig13": fig13.main,
    "scalability": scalability.main,
    "ablations": ablations.main,
    "baselines": baselines_compare.main,
    "guarantees": guarantees.main,
    "reliability": reliability.main,
    "topologies": topologies.main,
}


def _run_all(argv: Sequence[str]) -> None:
    parser = campaign_argparser(prog="repro.cli all", instructions=True)
    parser.add_argument("--out", default="results")
    args = parser.parse_args(argv)
    # The evaluation below is the mesh paper's; --topology is not forwarded.
    require_mesh_topology(args, "repro.cli all")
    # One shared cell cache under the output directory unless the user
    # pointed somewhere else: every command below reuses (and resumes
    # from) the same content-addressed cells, so report finds seed 1
    # of its PARSEC suite where parsec-suite just stored it.
    args.cache_dir = args.cache_dir or f"{args.out}/cellcache"
    # Engine, supervision and robustness flags reach every sub-command.
    engine_flags = engine_argv(args)
    suite = ["--instructions", str(args.instructions)]
    for name, extra in (
        ("parsec-suite", ["--out", f"{args.out}/parsec_suite.json"] + suite),
        ("report", suite),
        ("table1", []),
        ("fig12", []),
        ("fig13", []),
        ("scalability", []),
        ("ablations", []),
        ("baselines", []),
        ("topologies", []),
    ):
        print(f"\n==== {name} ====")
        _COMMANDS[name](extra + engine_flags)


def _serve(argv: Sequence[str]) -> None:
    """Run the campaign-service orchestrator until interrupted."""
    import asyncio

    from .campaign import CellCache
    from .campaign.service import Orchestrator
    from .campaign.service import orchestrator as orchestrator_defaults

    parser = argparse.ArgumentParser(
        prog="repro.cli serve",
        description="campaign-service orchestrator (see docs/service.md)",
    )
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
    args = parser.parse_args(argv)
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


def _work(argv: Sequence[str]) -> None:
    """Run a worker host attached to an orchestrator."""
    from .campaign.service.worker import main as worker_main

    worker_main(list(argv))


def main(argv: Optional[Sequence[str]] = None) -> None:
    """Dispatch a CLI command (see module docstring for the list)."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # The robustness flags are accepted on either side of the command:
    # pick them out with the same argparse group every campaign parser
    # carries, and hand them to the command as its own flags.
    parser = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    options, argv = add_robustness_args(parser).parse_known_args(argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        print("commands:", ", ".join(sorted(_COMMANDS)), ", all, serve, work")
        return
    command, rest = argv[0], argv[1:]
    robustness = robustness_argv(options)
    if robustness:
        print(f"[robustness] {' '.join(robustness)} applies to every cell")
    runner = {**_COMMANDS, "all": _run_all, "serve": _serve, "work": _work}.get(
        command
    )
    if runner is None:
        raise SystemExit(
            f"unknown command {command!r}; available: "
            f"{sorted(_COMMANDS)} + ['all', 'serve', 'work']"
        )
    runner(rest + robustness)


if __name__ == "__main__":
    main()
