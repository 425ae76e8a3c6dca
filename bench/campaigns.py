"""Campaign workloads: ``campaign_cold_pool``, ``campaign_cold_service``, ``campaign_warm``.

The two cold workloads push the same cells through the two carriers of
the campaign layer (``execute_cells`` process pool, ``LocalCluster`` +
``execute_cells_remote``); the warm one reads 100 % hits back out of a
``CellCache``.  Spans come from the carriers' own event logs and from
timing one cell's stages inline, never from inside ``repro``.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from repro.campaign import (
    CellCache,
    CellSpec,
    code_salt,
    decode_payload,
    encode_payload,
    execute_cells,
    iter_events,
    run_cell,
)
from repro.campaign.service import LocalCluster, execute_cells_remote, merged_events
from repro.experiments.common import SCHEME_ORDER

from .harness import OUT, Tracer, Units, digest, percentile, run_passes

WORKERS = 2  # pool workers and service hosts alike; the box has 2 cores


@dataclass(frozen=True)
class CampaignSizes:
    #: Cold cells: one per (scheme, seed).
    seeds: int
    warmup: int
    measurement: int
    #: Warm store: stored specs, and the window of the cells whose
    #: payloads fill it.
    stored: int
    stored_measurement: int
    #: Cells of the cold pass also run inline by the untraced check.
    inline_check: int


SIZES = CampaignSizes(seeds=6, warmup=200, measurement=1000, stored=800, stored_measurement=250, inline_check=4)
QUICK_SIZES = CampaignSizes(seeds=1, warmup=20, measurement=100, stored=80, stored_measurement=50, inline_check=4)


def fresh_code_salt_ms() -> float:
    """``code_salt()`` with its ``lru_cache`` emptied, as every new process pays it."""
    start = perf_counter()
    code_salt.cache_clear()
    code_salt()
    return (perf_counter() - start) * 1e3


def _synthetic(scheme: str, seed: int, warmup: int, measurement: int) -> CellSpec:
    return CellSpec.synthetic(
        "uniform_random", 0.02, scheme, warmup=warmup, measurement=measurement, seed=seed, drain=False
    )


class _CampaignWorkload:
    """What the three share: scratch space, cells, payload bookkeeping."""

    workers = 1

    def __init__(self, name: str, seed: int, quick: bool) -> None:
        self.name = name
        self.sizes = QUICK_SIZES if quick else SIZES
        self.seed = seed
        self.units = Units()
        self.cells: List[CellSpec] = []
        self.scratch = OUT / "tmp" / f"{name}-{os.getpid()}"
        #: cell label -> encoded payload, first time seen.
        self.outputs: Dict[str, dict] = {}
        self.cycles: Dict[str, int] = {}
        self.attempted = 0
        self.failures: List[str] = []
        self._dirs = 0

    def fresh_dir(self, stem: str) -> Path:
        self._dirs += 1
        path = self.scratch / f"{stem}{self._dirs}"
        path.mkdir(parents=True)
        return path

    def cold_cells(self) -> List[CellSpec]:
        s = self.sizes
        return [
            _synthetic(scheme, self.seed * 1000 + i, s.warmup, s.measurement)
            for i in range(s.seeds)
            for scheme in SCHEME_ORDER
        ]

    def teardown(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    @property
    def cells_per_pass(self) -> int:
        return len(self.cells)

    @property
    def cycles_per_pass(self) -> int:
        return sum(self.cycles[spec.label] for spec in self.cells)

    def _accept(self, specs: Sequence[CellSpec], payloads: Sequence[object], where: str) -> None:
        """A cell's payload is a pure function of its spec, whoever ran it."""
        for spec, payload in zip(specs, payloads):
            self.attempted += 1
            if payload is None:
                self.failures.append(f"{self.name}: {where} returned no payload for {spec.label}")
                continue
            seen = encode_payload(payload)
            first = self.outputs.setdefault(spec.label, seen)
            self.cycles.setdefault(spec.label, payload.execution_time)
            if seen != first:
                self.failures.append(f"{self.name}: {where} payload of {spec.label} diverged from the first")

    def _accept_stats(self, stats, where: str, *, hits: int, executed: int) -> None:
        """Failed or retried cells, or a cache that answered when it should not, fail the run."""
        if (stats.failed, stats.retried, stats.hits, stats.executed) != (0, 0, hits, executed):
            self.failures.append(f"{self.name}: {where} stats {stats.as_dict()}, wanted hits={hits} executed={executed}")

    def check(self) -> None:
        """Inline == carrier on a sample of the cold cells."""
        sample = self.cells[: self.sizes.inline_check]
        self._accept(sample, [run_cell(spec) for spec in sample], "inline")

    def output_digest(self) -> str:
        return digest(sorted(self.outputs.items()))


# ----------------------------------------------------------------------
# campaign_cold_pool
# ----------------------------------------------------------------------
def _spawn_pool_ms() -> float:
    start = perf_counter()
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        for future in [pool.submit(os.getpid) for _ in range(WORKERS)]:
            future.result()
    return (perf_counter() - start) * 1e3


class ColdPoolWorkload(_CampaignWorkload):
    workers = WORKERS

    def setup(self) -> None:
        fresh_code_salt_ms()
        self.cells = self.cold_cells()

    def one_pass(self, log_path: Optional[Path] = None) -> float:
        cache = CellCache(self.fresh_dir("cache"))
        start = perf_counter()
        payloads, stats = execute_cells(self.cells, workers=WORKERS, cache=cache, log_path=log_path)
        wall = perf_counter() - start
        self.units.record("pass", wall)
        self._accept(self.cells, payloads, "pool")
        self._accept_stats(stats, "pool", hits=0, executed=len(self.cells))
        return wall

    def measure(self, seconds: float) -> None:
        run_passes(self.one_pass, seconds)

    def trace(self, tracer: Tracer) -> Dict[str, float]:
        reference = self.one_pass()
        log_path = self.fresh_dir("log") / "pool.events.jsonl"
        to_perf = perf_counter() - time.time()  # event stamps are wall clock
        with tracer.span("campaign.pool_pass") as root:
            traced = self.one_pass(log_path)
        for event in iter_events(log_path):
            if event.get("event") == "cell" and event.get("status") == "done":
                end = event["ts"] + to_perf
                tracer.add("campaign.pool_cell", end - event["elapsed"], end, root["id"], event["label"])

        # One cell's life, stage by stage, inline.
        salt_ms = fresh_code_salt_ms()
        cache = CellCache(self.fresh_dir("stages"))
        stage = {"miss": 0.0, "run": [], "encode": 0.0, "pickle": 0.0, "put": 0.0}
        inline_payloads = []
        for spec in self.cells:
            with tracer.span("campaign.cell_inline", op=spec.label) as cell:
                t0 = perf_counter()
                cache.get(spec)
                t1 = perf_counter()
                payload = run_cell(spec)
                t2 = perf_counter()
                encode_payload(payload)
                t3 = perf_counter()
                pickle.loads(pickle.dumps(spec))
                pickle.loads(pickle.dumps(payload))
                t4 = perf_counter()
                cache.put(spec, payload)
                t5 = perf_counter()
            for name, a, b in (("campaign.store_miss", t0, t1), ("campaign.run_cell", t1, t2),
                               ("campaign.encode", t2, t3), ("campaign.pickle", t3, t4),
                               ("campaign.store_put", t4, t5)):
                tracer.add(name, a, b, cell["id"], spec.label)
            stage["miss"] += t1 - t0
            stage["run"].append((t2 - t1) * 1e3)
            stage["encode"] += t3 - t2
            stage["pickle"] += t4 - t3
            stage["put"] += t5 - t4
            inline_payloads.append(payload)
        self._accept(self.cells, inline_payloads, "inline")
        n = len(self.cells)
        per_cell_us = 1e6 / n
        return {
            "campaign.code_salt_ms": salt_ms,
            "campaign.store_miss_us_per_cell": stage["miss"] * per_cell_us,
            "campaign.store_put_us_per_cell": stage["put"] * per_cell_us,
            "campaign.encode_us_per_cell": stage["encode"] * per_cell_us,
            "campaign.pickle_us_per_cell": stage["pickle"] * per_cell_us,
            "campaign.run_cell_ms.p50": percentile(stage["run"], 0.5),
            "campaign.run_cell_ms.p90": percentile(stage["run"], 0.9),
            "campaign.pool_spawn_ms": _spawn_pool_ms(),
            "campaign.pool_overhead_ms_per_cell": WORKERS * reference * 1e3 / n - sum(stage["run"]) / n,
            "trace_overhead_pct": (traced / reference - 1.0) * 100.0,
        }


# ----------------------------------------------------------------------
# campaign_cold_service
# ----------------------------------------------------------------------
class ColdServiceWorkload(_CampaignWorkload):
    workers = WORKERS
    cluster: Optional[LocalCluster] = None

    def start_cluster(self, log_path: Optional[Path] = None) -> float:
        """Start a 2-host cluster and wait until both hosts joined; returns ms."""
        start = perf_counter()
        self.cluster = LocalCluster(
            WORKERS, capacity=1, cache_dir=self.fresh_dir("store"), log_path=log_path
        ).start()
        deadline = start + 60.0
        hosts = self.cluster.orchestrator.hosts
        while sum(1 for host in list(hosts.values()) if host.connected) < WORKERS:
            if perf_counter() > deadline:
                raise RuntimeError("service hosts did not join within 60 s")
            time.sleep(0.01)
        return (perf_counter() - start) * 1e3

    def stop_cluster(self) -> None:
        if self.cluster is not None:
            self.cluster.stop()
            self.cluster = None

    def setup(self) -> None:
        self.stop_cluster()
        fresh_code_salt_ms()
        self.cells = self.cold_cells()
        self.start_cluster()

    def teardown(self) -> None:
        self.stop_cluster()
        super().teardown()

    def one_pass(self) -> float:
        before = dict(self.cluster.orchestrator.stats)
        start = perf_counter()
        # resume=False: the store and the orchestrator both remember the
        # last pass; every pass must simulate every cell again.
        payloads, stats = execute_cells_remote(self.cells, self.cluster.address, resume=False)
        wall = perf_counter() - start
        self.units.record("pass", wall)
        self._accept(self.cells, payloads, "service")
        self._accept_stats(stats, "service", hits=0, executed=len(self.cells))
        after = self.cluster.orchestrator.stats
        unhealthy = {k: after[k] - before[k] for k in ("requeues", "expired", "dead_hosts", "failed")
                     if after[k] != before[k]}
        if unhealthy:
            self.failures.append(f"{self.name}: unhealthy service pass {unhealthy}")
        return wall

    def measure(self, seconds: float) -> None:
        run_passes(self.one_pass, seconds)

    def trace(self, tracer: Tracer) -> Dict[str, float]:
        reference = self.one_pass()
        self.stop_cluster()
        log_path = self.fresh_dir("log") / "orchestrator.events.jsonl"
        start_ms = self.start_cluster(log_path)
        with tracer.span("campaign.service_pass") as root:
            traced = self.one_pass()
        warm_start = perf_counter()
        payloads, stats = execute_cells_remote(self.cells, self.cluster.address)
        warm_s = perf_counter() - warm_start
        self._accept(self.cells, payloads, "service warm")
        self._accept_stats(stats, "service warm", hits=len(self.cells), executed=0)
        self.stop_cluster()  # flushes and closes every log

        to_perf = perf_counter() - time.time()
        leased: Dict[str, float] = {}
        lease_to_result: List[float] = []
        host_busy = 0.0
        counts = {"lease": 0, "steal": 0, "requeue": 0, "duplicate-result": 0}
        for event in merged_events(log_path):
            kind = event.get("event")
            if kind in counts:
                counts[kind] += 1
            if kind == "lease":
                leased[event["key"]] = event["ts"]
            elif kind == "result" and event["key"] in leased:
                begin = leased.pop(event["key"])
                lease_to_result.append((event["ts"] - begin) * 1e3)
                tracer.add("campaign.service_lease", begin + to_perf, event["ts"] + to_perf,
                           root["id"], event["label"], host=event["host_name"])
            elif kind == "cell" and event.get("status") == "done":
                host_busy += event["elapsed"]
        n = len(self.cells)
        return {
            "campaign.service.cluster_start_ms": start_ms,
            "campaign.service.overhead_ms_per_cell": (WORKERS * traced - host_busy) * 1e3 / n,
            "campaign.service.lease_to_result_ms.p50": percentile(lease_to_result, 0.5),
            "campaign.service.lease_to_result_ms.p90": percentile(lease_to_result, 0.9),
            "campaign.service.steal_share": counts["steal"] / counts["lease"],
            "campaign.service.host_busy_share": host_busy / (WORKERS * traced),
            "campaign.service.requeues": counts["requeue"],
            "campaign.service.duplicates": counts["duplicate-result"],
            "campaign.service.warm_us_per_cell": warm_s * 1e6 / n,
            "trace_overhead_pct": (traced / reference - 1.0) * 100.0,
        }


# ----------------------------------------------------------------------
# campaign_warm
# ----------------------------------------------------------------------
class WarmWorkload(_CampaignWorkload):
    cache: Optional[CellCache] = None

    def setup(self) -> None:
        """Fill a store with ``stored`` distinct specs through the public ``put``.

        The payloads come from one really-run cell per scheme; the
        stored specs differ from it (and each other) by seed only, so
        every lookup hashes, reads and decodes a distinct entry.
        """
        s = self.sizes
        code_salt.cache_clear()  # CellCache() computes it afresh
        self.cache = CellCache(self.fresh_dir("store"))
        payloads = {
            scheme: run_cell(_synthetic(scheme, self.seed, s.warmup, s.stored_measurement))
            for scheme in SCHEME_ORDER
        }
        self.cells = [
            _synthetic(scheme, self.seed * 1000 + i, s.warmup, s.stored_measurement)
            for i in range(s.stored // len(SCHEME_ORDER))
            for scheme in SCHEME_ORDER
        ]
        self.stored = [payloads[spec.scheme] for spec in self.cells]
        for spec, payload in zip(self.cells, self.stored):
            self.cache.put(spec, payload)

    def one_pass(self, log_path: Optional[Path] = None) -> float:
        start = perf_counter()
        payloads, stats = execute_cells(self.cells, cache=self.cache, log_path=log_path)
        wall = perf_counter() - start
        self.units.record("pass", wall)
        self._accept(self.cells, payloads, "warm")
        self._accept_stats(stats, "warm", hits=len(self.cells), executed=0)
        return wall

    def measure(self, seconds: float) -> None:
        run_passes(self.one_pass, seconds)

    def check(self) -> None:
        """What came out of the store is what went in."""
        self._accept(self.cells, self.stored, "stored")

    def trace(self, tracer: Tracer) -> Dict[str, float]:
        reference = self.one_pass()
        with tracer.span("campaign.warm_pass"):
            traced = self.one_pass(self.fresh_dir("log") / "warm.events.jsonl")
        self.check()

        salt_ms = fresh_code_salt_ms()
        with tracer.span("campaign.hash") as span:
            for spec in self.cells:
                self.cache.key_for(spec)
        hash_s = span["end"] - span["start"]
        with tracer.span("campaign.store_get") as span:
            for spec in self.cells:
                self.cache.get(spec)
        get_s = span["end"] - span["start"]
        documents = [json.loads(self.cache.path_for(spec).read_text())["payload"] for spec in self.cells]
        with tracer.span("campaign.decode") as span:
            for document in documents:
                decode_payload(document)
        decode_s = span["end"] - span["start"]
        per_cell_us = 1e6 / len(self.cells)
        return {
            "campaign.code_salt_ms": salt_ms,
            "campaign.hash_us_per_cell": hash_s * per_cell_us,
            "campaign.store_get_us_per_cell": get_s * per_cell_us,
            "campaign.decode_us_per_cell": decode_s * per_cell_us,
            "trace_overhead_pct": (traced / reference - 1.0) * 100.0,
        }
