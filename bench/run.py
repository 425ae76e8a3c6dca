"""One command for the whole stack.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Prints every metric by name with its unit, checks that the simulated
outputs are correct, and ends with one JSON line: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3


def _pin_hash_seed() -> None:
    """Re-exec with ``PYTHONHASHSEED=0`` unless already pinned.

    Hash randomisation moves set/dict layout and with it host time by
    +-3 % from one process to the next; simulated results do not depend
    on it (tier-1 holds under any seed).  Children inherit the pin.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]])


def _build(name: str, seed: int, quick: bool):
    from bench import campaigns, mesh, parsec

    kinds = {
        "mesh8_lowload": mesh.MeshWorkload,
        "mesh16_highload": mesh.MeshWorkload,
        "parsec_suite": parsec.ParsecWorkload,
        "campaign_cold_pool": campaigns.ColdPoolWorkload,
        "campaign_cold_service": campaigns.ColdServiceWorkload,
        "campaign_warm": campaigns.WarmWorkload,
    }
    return kinds[name](name, seed, quick)


def _check_pinned(workload, seed: int, quick: bool, update: bool) -> None:
    """Default seed only: the simulated outputs equal the committed digest."""
    from bench import spec

    if seed != spec.DEFAULT_SEED:
        return
    path = ROOT / "bench" / "expected.json"
    expected = json.loads(path.read_text())
    mode = "quick" if quick else "full"
    seen = workload.output_digest()
    if update:
        expected[mode][workload.name] = seen
        path.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
        return
    workload.attempted += 1
    if expected[mode].get(workload.name) != seen:
        workload.failures.append(
            f"{workload.name}: output digest {seen} != pinned {expected[mode].get(workload.name)} "
            f"(bench/expected.json, seed {seed}, {mode})"
        )


def main(argv: Optional[List[str]] = None) -> int:
    if not SRC.is_dir():
        print(f"bench: no simulator source at {SRC}; nothing to measure", file=sys.stderr)
        return 2
    # The script's own directory would expose spec.py, mesh.py, ... as
    # top-level modules; only the repo root and src/ belong on the path.
    sys.path[:] = [str(ROOT), str(SRC)] + [p for p in sys.path if Path(p or ".").resolve() != ROOT / "bench"]
    from bench import harness, spec

    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED,
                        help=f"the only source of workload randomness (default {spec.DEFAULT_SEED}, "
                             f"held out for later claims: {spec.HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one pass with spans, per-layer metrics, bench/out/trace.<workload>.json")
    parser.add_argument("--quick", action="store_true", help="tiny sizes, one set-up sample (smoke test)")
    parser.add_argument("--out", default=None, help="append this run's full report to a JSON-lines file")
    parser.add_argument("--update-expected", action="store_true",
                        help="pin this run's output digest in bench/expected.json (default seed only)")
    args = parser.parse_args(argv)

    workload = _build(args.workload, args.seed, args.quick)
    harness.require_parallelism(workload.workers)
    started_at = harness.hygiene(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace, quick=args.quick
    )

    setups = []
    layer: Dict[str, float] = {}
    tracer = harness.Tracer()
    try:
        for _ in range(1 if args.quick else SETUP_SAMPLES):
            probe = harness.import_probe()
            gc.collect()
            start = perf_counter()
            workload.setup()
            setups.append(probe + perf_counter() - start)
        gc.collect()
        if args.trace:
            layer = workload.trace(tracer)
        else:
            workload.measure(args.seconds)
            workload.check()
    finally:
        workload.teardown()
    _check_pinned(workload, args.seed, args.quick, args.update_expected)

    units = workload.units
    cells, cycles = workload.cells_per_pass, workload.cycles_per_pass
    if args.trace:
        unknown = set(layer) - set(spec.PER_LAYER_NAMES)
        missing = {m.name for m in spec.PER_LAYER if args.workload in m.on} - set(layer)
        if unknown or missing:
            raise SystemExit(f"bench: {args.workload} trace metrics: unknown {unknown}, missing {missing}")
        tracer.write(harness.OUT / f"trace.{args.workload}.json")
        # A layer this workload does not exercise did no work here: 0.
        values = {m.name: float(layer.get(m.name, 0.0)) for m in spec.PER_LAYER}
        units_of = {m.name: m.unit for m in spec.PER_LAYER}
    else:
        best = units.best_total()
        values = {
            "setup_s": harness.quartiles(setups)["median"],
            "cells_per_s": cells / best,
            "sim_cycles_per_s": cycles / best,
            "peak_rss_mb": harness.peak_rss_mb(),
        }
        units_of = {m.name: m.unit for m in spec.END_TO_END}

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "quick": args.quick,
        "hygiene": started_at,
        "passes": units.passes,
        "order": "passes interleave every unit; set-up samples first, checks last",
        "cells_per_pass": cells, "sim_cycles_per_pass": cycles,
        "per_pass": {
            "setup_s": harness.quartiles(setups),
            "cells_per_s": harness.quartiles([cells / t for t in units.pass_totals()]),
            "sim_cycles_per_s": harness.quartiles([cycles / t for t in units.pass_totals()]),
        },
        "output_digest": workload.output_digest(),
        "failures": workload.failures,
    }
    result = {
        "correct": not workload.failures,
        "attempted": workload.attempted,
        "failed": len(workload.failures),
        "metrics": {name: {"value": value, "unit": units_of[name]} for name, value in values.items()},
    }
    report["result"] = result
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "a") as fh:
            fh.write(json.dumps(report) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} passes={units.passes} "
          f"nproc={started_at['nproc']} loadavg={started_at['loadavg_1m_at_start']:.2f} "
          f"python={started_at['python']} numpy={started_at['numpy']}")
    for name, value in values.items():
        spread = report["per_pass"].get(name) if not args.trace else None
        tail = (f"   per pass: median {spread['median']:.6g} q1 {spread['q1']:.6g} "
                f"q3 {spread['q3']:.6g} n {spread['n']}") if spread else ""
        print(f"{name:46s} {value:14.6g} {units_of[name]}{tail}")
    for failure in workload.failures:
        print(f"FAILED: {failure}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    _pin_hash_seed()
    raise SystemExit(main())
