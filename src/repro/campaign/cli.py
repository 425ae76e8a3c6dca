"""Shared campaign argparse flags.

Every experiment CLI builds its parser here, so an engine flag added
once (``--workers``, ``--cache-dir``, ``--resume``) lands in every
figure script at the same time instead of being re-declared per file.
The robustness flags (``--faults``, ``--strict-invariants``, ...) are
declared here too, once: they are cell configuration, so
:func:`engine_options` turns their parsed values into ``NoCConfig``
overrides that ``Campaign.run`` stamps onto every cell before hashing.
"""

from __future__ import annotations

import argparse
from typing import List, Optional, Sequence, Tuple

from ..experiments.common import CANONICAL_INSTRUCTIONS
from ..noc.config import VALID_DEGRADATIONS
from .spec import Items, freeze_items

#: ``Campaign.run`` keyword arguments read straight off the namespace.
_ENGINE_FLAGS = (
    "workers",
    "cache_dir",
    "resume",
    "timeout",
    "max_retries",
    "hosts",
)
#: Every key :func:`engine_options` returns.
ENGINE_OPTION_KEYS = _ENGINE_FLAGS + ("config_overrides",)

#: ``NoCConfig`` fields the robustness flags override; each flag's
#: argparse ``dest`` is the field name.
_ROBUSTNESS_FIELDS = (
    "faults",
    "strict_invariants",
    "watchdog",
    "degradation",
    "dead_router_threshold",
    "bounds",
)


def add_campaign_args(
    parser: argparse.ArgumentParser,
    *,
    instructions: bool = False,
) -> argparse.ArgumentParser:
    """Attach the shared engine flags to an existing parser."""
    group = parser.add_argument_group("campaign engine")
    group.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool fan-out (cells are independent and seeded)",
    )
    group.add_argument(
        "--cache-dir",
        default=None,
        help="content-addressed cell cache directory (enables caching, "
        "resume, quarantine, and the JSONL progress log)",
    )
    group.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="reuse cached cells (--no-resume recomputes and overwrites)",
    )
    group.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-cell wall-clock budget in seconds (enforced via "
        "process isolation; the offending worker is killed)",
    )
    group.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="total attempts per cell before it is quarantined "
        "(identical failures twice in a row quarantine immediately)",
    )
    group.add_argument(
        "--hosts",
        default=None,
        help="run the campaign on the distributed service instead of "
        "the in-process pool: 'local:N' spins up an ephemeral "
        "N-worker cluster on this machine, 'HOST:PORT' submits to "
        "a running 'repro.cli serve' orchestrator (results are "
        "bit-identical either way; see docs/service.md)",
    )
    group.add_argument(
        "--topology",
        choices=("mesh", "torus", "ring"),
        default="mesh",
        help="network fabric for the campaign (experiments that only "
        "reproduce mesh figures reject non-mesh values)",
    )
    if instructions:
        group.add_argument(
            "--instructions", type=int, default=CANONICAL_INSTRUCTIONS
        )
    return parser


def add_robustness_args(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Attach the robustness flags — the one place they are declared.

    Every flag overrides the ``NoCConfig`` field of the same name on
    every cell of the campaign (see :func:`config_overrides`), so the
    setting is part of each cell's content address and reaches pool
    workers and service hosts inside the spec.  Unset flags (``None``
    / ``False``) leave the cell's own value alone; an experiment with
    its own defaults uses ``parser.set_defaults``.
    """
    group = parser.add_argument_group("robustness (cell configuration)")
    group.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="fault schedule injected into every network, e.g. "
        "'punch_drop,rate=0.5;seed=7' (see docs/fault_model.md)",
    )
    group.add_argument(
        "--strict-invariants",
        action="store_true",
        help="run the per-cycle invariant checker and deadlock watchdog "
        "on every network; the first violation raises",
    )
    group.add_argument(
        "--watchdog",
        type=int,
        default=None,
        metavar="CYCLES",
        help="deadlock-watchdog bound for --strict-invariants",
    )
    group.add_argument(
        "--degradation",
        choices=VALID_DEGRADATIONS,
        default=None,
        help="graceful-degradation mode of every network",
    )
    group.add_argument(
        "--reroute",
        action="store_const",
        const="reroute",
        dest="degradation",
        help="shorthand for --degradation reroute",
    )
    group.add_argument(
        "--dead-router-threshold",
        type=int,
        default=None,
        metavar="CYCLES",
        help="continuously stalled cycles before a router is declared "
        "permanently dead",
    )
    group.add_argument(
        "--bounds",
        action="store_true",
        help="enforce certified worst-case latency bounds on every "
        "network (strict; fault-free runs only, see docs/guarantees.md)",
    )
    return parser


def config_overrides(args: argparse.Namespace) -> Items:
    """The set robustness flags as ``NoCConfig`` override items."""
    # Identity, not equality: ``--watchdog 0`` must reach NoCConfig and
    # be rejected there, not vanish because ``0 == False``.
    return freeze_items(
        [
            (name, value)
            for name in _ROBUSTNESS_FIELDS
            if (value := getattr(args, name, None)) is not None
            and value is not False
        ]
    )


def robustness_argv(args: argparse.Namespace) -> List[str]:
    """Re-render the set robustness flags as argv tokens (the front
    door forwards them to the command it dispatches to)."""
    argv: List[str] = []
    for name, value in config_overrides(args):
        argv.append("--" + name.replace("_", "-"))
        if value is not True:
            argv.append(str(value))
    return argv


def add_sprt_args(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Attach the ``--sprt`` family (sequential statistical model
    checking; read back with :func:`sprt_options`)."""
    group = parser.add_argument_group("guarantees")
    group.add_argument(
        "--sprt",
        action="store_true",
        help="sequential probability ratio test mode: stop sampling "
        "as soon as the delivery-probability hypothesis is "
        "accepted or rejected instead of burning the full "
        "--samples budget",
    )
    group.add_argument(
        "--sprt-p0",
        type=float,
        default=0.9,
        help="null hypothesis: P(clean trial) >= p0 (accept)",
    )
    group.add_argument(
        "--sprt-p1",
        type=float,
        default=0.6,
        help="alternative hypothesis: P(clean trial) <= p1 (reject); "
        "must be < p0",
    )
    group.add_argument(
        "--sprt-alpha",
        type=float,
        default=0.05,
        help="bound on the false-rejection probability",
    )
    group.add_argument(
        "--sprt-beta",
        type=float,
        default=0.05,
        help="bound on the false-acceptance probability",
    )
    group.add_argument(
        "--sprt-batch",
        type=int,
        default=8,
        help="trials declared per sequential round (larger batches "
        "parallelize better, smaller ones stop earlier)",
    )
    return parser


def sprt_options(args: argparse.Namespace) -> dict:
    """Extract the SPRT parameters from a parsed namespace."""
    return {
        "p0": args.sprt_p0,
        "p1": args.sprt_p1,
        "alpha": args.sprt_alpha,
        "beta": args.sprt_beta,
        "batch": args.sprt_batch,
    }


def require_mesh_topology(args: argparse.Namespace, what: str) -> None:
    """Reject ``--topology`` values a mesh-only experiment cannot honor.

    The paper's punch-scheme figures are defined on the 2D mesh (the
    punch-target decomposition is XY-specific), so their campaign
    scripts fail fast with an actionable message instead of crashing
    deep inside scheme attachment.
    """
    topology = getattr(args, "topology", "mesh")
    if topology != "mesh":
        raise SystemExit(
            f"{what} reproduces mesh-only paper figures and does not "
            f"support --topology {topology}; use the 'topologies' "
            "experiment for cross-fabric comparisons"
        )


def campaign_argparser(
    description: Optional[str] = None,
    *,
    instructions: bool = False,
    prog: Optional[str] = None,
) -> argparse.ArgumentParser:
    """A fresh parser pre-loaded with the shared engine and robustness
    flags."""
    # No abbreviations: a script still passing the retired records-file
    # flag ``--cache FILE`` must fail, not be read as ``--cache-dir FILE``.
    parser = argparse.ArgumentParser(
        prog=prog, description=description, allow_abbrev=False
    )
    add_campaign_args(parser, instructions=instructions)
    return add_robustness_args(parser)


def engine_options(args: argparse.Namespace) -> dict:
    """Extract ``Campaign.run`` kwargs from a parsed namespace."""
    options = {key: getattr(args, key) for key in _ENGINE_FLAGS}
    options["config_overrides"] = config_overrides(args)
    return options


def parse_campaign_args(
    parser: argparse.ArgumentParser,
    argv: Optional[Sequence[str]],
    mesh_only: Optional[str] = None,
) -> Tuple[argparse.Namespace, dict]:
    """Parse ``argv`` into ``(args, engine_options(args))`` — what every
    experiment ``main`` starts with.  ``mesh_only`` names an experiment
    that reproduces a mesh-only figure (:func:`require_mesh_topology`)."""
    args = parser.parse_args(argv)
    if mesh_only is not None:
        require_mesh_topology(args, mesh_only)
    return args, engine_options(args)


def engine_argv(args: argparse.Namespace) -> List[str]:
    """Re-render everything :func:`engine_options` reads as argv tokens
    (``repro.cli all`` forwards them to every sub-command), so that
    ``engine_options(parse(engine_argv(args))) == engine_options(args)``."""
    argv: List[str] = []
    for name in _ENGINE_FLAGS:
        value = getattr(args, name)
        flag = name.replace("_", "-")
        if isinstance(value, bool):
            argv.append(f"--{flag}" if value else f"--no-{flag}")
        elif value is not None:
            argv += [f"--{flag}", str(value)]
    return argv + robustness_argv(args)
