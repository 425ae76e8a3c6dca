"""Measurement plumbing shared by the workloads.  Imports nothing from ``repro``."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Sequence

from .spec import ROOT

SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

#: Everything the workloads import from ``repro``; the set-up probe
#: imports the same list in a fresh interpreter.
PROBE_IMPORTS = (
    "repro.bench, repro.campaign, repro.campaign.service, "
    "repro.experiments.headline, repro.experiments.parsec_suite"
)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and n, the form every timing is reported in."""
    values = list(values)
    if len(values) < 2:
        only = values[0] if values else 0.0
        return {"median": only, "q1": only, "q3": only, "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def digest(obj: object) -> str:
    """Content digest of a JSON-ready simulated output."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Timed passes
# ----------------------------------------------------------------------
class Units:
    """Host time of each unit of work (a replay, a cell, a pass), per pass.

    Host noise on a shared box only ever adds time, so a unit's cost is
    the best time it showed across passes; throughput is work per pass
    over the sum of those.  The per-pass totals keep the spread visible.
    """

    def __init__(self) -> None:
        self.times: Dict[Hashable, List[float]] = {}

    def record(self, unit: Hashable, seconds: float) -> None:
        self.times.setdefault(unit, []).append(seconds)

    @property
    def passes(self) -> int:
        return min((len(v) for v in self.times.values()), default=0)

    def best_total(self) -> float:
        return sum(min(v) for v in self.times.values())

    def pass_totals(self) -> List[float]:
        return [sum(v[i] for v in self.times.values()) for i in range(self.passes)]


def run_passes(one_pass: Callable[[], None], seconds: float, min_passes: int = 2) -> int:
    """Repeat ``one_pass`` for about ``seconds``; returns the pass count.

    Stops once the next pass would overshoot by more than half a pass.
    Garbage is collected before (never disabled during) each pass.
    """
    start = perf_counter()
    passes = 0
    while True:
        gc.collect()
        one_pass()
        passes += 1
        elapsed = perf_counter() - start
        if passes >= min_passes and elapsed + 0.5 * elapsed / passes > seconds:
            return passes


class Stopwatch:
    """Accumulates the busy time of a callable wrapped at instance level."""

    def __init__(self) -> None:
        self.busy = 0.0
        self.calls = 0

    def wrap(self, fn: Callable) -> Callable:
        def timed(*args):
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                self.busy += perf_counter() - start
                self.calls += 1

        return timed


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans: name, start, end, parent, one ``op`` id per replay/cell.

    Per-cycle calls are far too many to keep one span each, so a hot
    child is one *aggregate* span carrying ``busy`` seconds and ``calls``
    over its parent's interval.  Self time of a span is its duration
    minus its children's ``busy`` (or duration, for plain spans).
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []

    def add(self, name: str, start: float, end: Optional[float], parent: Optional[int] = None,
            op: Optional[str] = None, **extra: object) -> dict:
        """Record a span whose interval is already known (from an event log, say)."""
        record = {"id": len(self.spans), "name": name, "parent": parent, "op": op,
                  "start": start, "end": end, **extra}
        self.spans.append(record)
        return record

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None, op: Optional[str] = None) -> Iterator[dict]:
        record = self.add(name, perf_counter(), None, parent, op)
        try:
            yield record
        finally:
            record["end"] = perf_counter()

    def aggregate(self, name: str, parent: dict, busy: float, calls: int) -> None:
        self.add(name, parent["start"], parent["end"], parent["id"], parent["op"], busy=busy, calls=calls)

    def busy(self, name: str) -> float:
        return sum(s.get("busy", (s["end"] or s["start"]) - s["start"])
                   for s in self.spans if s["name"] == name)

    def calls(self, name: str) -> int:
        return sum(s.get("calls", 1) for s in self.spans if s["name"] == name)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"schema": "bench_trace/v1", "spans": self.spans}) + "\n")


# ----------------------------------------------------------------------
# Process-level measurements
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # Linux reports KiB


def import_probe() -> float:
    """Wall time of a fresh interpreter importing what the workloads import."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import {PROBE_IMPORTS}"
    start = perf_counter()
    subprocess.run([sys.executable or "python3", "-c", code], check=True, cwd=str(ROOT))
    return perf_counter() - start


def hygiene(**extra: object) -> Dict[str, object]:
    """What a reader needs to judge the noise of this run."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dep of repro
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg_1m_at_start": os.getloadavg()[0],
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "gc": "gc.collect() before each timed pass; never disabled",
        **extra,
    }


def require_parallelism(workers: int) -> None:
    """Load comes from one process with at most ``nproc`` workers/hosts."""
    nproc = os.cpu_count() or 1
    if workers > nproc:
        raise SystemExit(f"bench: refusing {workers} workers/hosts on a {nproc}-core box")
