"""Compare sets of runs: ``python3 -m bench.compare A.jsonl [B.jsonl] [--json OUT]``.

A set is a JSON-lines file written by ``bench/run.py --out FILE`` over
several seeds and workloads.  One row per (workload, end-to-end
metric): median, quartiles and n of each side, the metric's bound from
``BENCHMARK.json``, and a verdict:

``ok``          B's median is no worse than A's by more than the bound.
``worse``       it is.
``unresolved``  a side's own spread (q3 - q1) / median is wider than the
                bound, unless every run of B reads better than every run of A.

With one file the verdict is about steadiness alone: ``steady`` (spread
within a third of the bound), ``within`` (within the bound) or ``noisy``.
Per-layer metrics of traced runs follow, medians only: they carry no
bound and no verdict, they say where a difference sits.  Simulated
outputs must repeat exactly: runs of the same (workload, seed, sizes)
whose output digests differ are listed and fail the comparison.
``--json OUT`` also writes the rows to a file (``"claim": null``: a
comparison states numbers, the issue states the claim).
"""

from __future__ import annotations

import argparse
import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .harness import quartiles
from .spec import END_TO_END, PER_LAYER

Values = Dict[Tuple[str, str], List[float]]
Digests = Dict[Tuple[str, int, bool], Set[str]]


def load(path: str) -> Tuple[Values, Values, Digests]:
    """A set's end-to-end values (untraced runs), per-layer values (traced) and digests."""
    end_to_end: Values = defaultdict(list)
    per_layer: Values = defaultdict(list)
    digests: Digests = defaultdict(set)
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        run = json.loads(line)
        digests[(run["workload"], run["seed"], run["quick"])].add(run["output_digest"])
        into = per_layer if run["trace"] else end_to_end
        for name, metric in run["result"]["metrics"].items():
            into[(run["workload"], name)].append(metric["value"])
    return end_to_end, per_layer, digests


def spread(values: Sequence[float]) -> float:
    q = quartiles(values)
    return (q["q3"] - q["q1"]) / q["median"] if q["median"] else 0.0


def verdict(a: Sequence[float], b: Optional[Sequence[float]], better: str, bound: float) -> str:
    if b is None:
        s = spread(a)
        return "steady" if s <= bound / 3 else "within" if s <= bound else "noisy"
    sign = 1.0 if better == "lower" else -1.0
    if max(spread(a), spread(b)) > bound:
        b_always_better = max(sign * v for v in b) < min(sign * v for v in a)
        if not b_always_better:
            return "unresolved"
    ma, mb = quartiles(a)["median"], quartiles(b)["median"]
    return "worse" if sign * (mb - ma) > bound * abs(ma) else "ok"


def rows(a: Values, b: Optional[Values]) -> List[dict]:
    """End-to-end rows with verdicts, in workload then metric order."""
    out = []
    for (workload, name), a_values in sorted(a.items()):
        metric = next((m for m in END_TO_END if m.name == name), None)
        b_values = None if b is None else b.get((workload, name))
        if metric is None or (b is not None and b_values is None):
            continue
        out.append({
            "workload": workload, "metric": name, "unit": metric.unit, "bound": metric.bound,
            "a": quartiles(a_values), "a_spread": spread(a_values),
            "b": None if b_values is None else quartiles(b_values),
            "b_spread": None if b_values is None else spread(b_values),
            "verdict": verdict(a_values, b_values, metric.better, metric.bound),
        })
    return out


def layer_rows(a: Values, b: Optional[Values]) -> List[dict]:
    """Per-layer medians on the workloads that measure them."""
    out = []
    for metric in PER_LAYER:
        for workload in metric.on:
            a_values = a.get((workload, metric.name))
            b_values = None if b is None else b.get((workload, metric.name))
            if a_values:
                out.append({
                    "workload": workload, "metric": metric.name, "unit": metric.unit,
                    "moves": metric.moves, "a": quartiles(a_values),
                    "b": quartiles(b_values) if b_values else None,
                })
    return out


def _side(q: Optional[dict], s: Optional[float] = None) -> str:
    if q is None:
        return ""
    tail = "" if s is None else f" spread={s:.1%}"
    return f"{q['median']:12.6g} [{q['q1']:.6g}, {q['q3']:.6g}] n={q['n']}{tail}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="bench.compare", description=__doc__.split("\n\n")[0])
    parser.add_argument("a")
    parser.add_argument("b", nargs="?")
    parser.add_argument("--json", default=None, help="also write the rows to this file")
    args = parser.parse_args(argv)
    a, a_layers, a_digests = load(args.a)
    b, b_layers, b_digests = load(args.b) if args.b else (None, None, {})

    bad = 0
    end_to_end = rows(a, b)
    for row in end_to_end:
        print(f"{row['workload']:22s} {row['metric']:17s} {row['unit']:4s} bound={row['bound']:.0%}  "
              f"A {_side(row['a'], row['a_spread'])}  "
              + (f"B {_side(row['b'], row['b_spread'])}  " if b is not None else "")
              + row["verdict"])
        bad += row["verdict"] in ("worse", "unresolved", "noisy")
    per_layer = layer_rows(a_layers, b_layers)
    for row in per_layer:
        print(f"{row['workload']:22s} {row['metric']:42s} {row['unit']:6s} -> {row['moves']:17s} "
              f"A {_side(row['a'])}" + (f"  B {_side(row['b'])}" if row["b"] else ""))
    differing = []
    for key in sorted(set(a_digests) | set(b_digests)):
        seen = a_digests.get(key, set()) | b_digests.get(key, set())
        if len(seen) > 1:
            print(f"{key[0]:22s} seed={key[1]} simulated outputs differ: {sorted(seen)}")
            differing.append({"workload": key[0], "seed": key[1], "digests": sorted(seen)})
    if args.json:
        Path(args.json).write_text(json.dumps({
            "claim": None, "sets": [args.a] + ([args.b] if args.b else []),
            "end_to_end": end_to_end, "per_layer": per_layer, "outputs_differ": differing,
        }, indent=1) + "\n")
    return 1 if bad or differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
