"""Tests for the campaign supervision primitives.

Covers the retry policy's validation, failure verdicts as
cell-cache entries (round trip, torn or stale entries, structured
reports with post-mortems, a payload replacing them) and the pickling
contract of the typed error hierarchy —
worker exceptions must survive the process-pool boundary with their
context.
"""

import json
import pickle
import shutil
from pathlib import Path

import pytest

from repro.campaign import (
    CellCache,
    CellSpec,
    FailureReport,
    RetryPolicy,
    execute_cells,
)
from repro.noc.errors import (
    BoundViolationError,
    DeadlockError,
    DrainTimeoutError,
    InvariantViolation,
    SimulationError,
)
from repro.noc.invariants import PostMortem

#: A cell store written by an older ``CellCache.put`` (payloads only).
PARENT_STORE = Path(__file__).parent / "fixtures" / "parent_store"


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)


class TestErrorPickling:
    """Typed simulator errors must unpickle across the pool boundary —
    one that fails to comes back as a ``RuntimeError`` naming the
    unpickling error, not the simulator's own."""

    def roundtrip(self, exc):
        return pickle.loads(pickle.dumps(exc))

    def test_simulation_error_with_context(self):
        err = self.roundtrip(SimulationError("boom", cycle=7, router=3))
        assert isinstance(err, SimulationError)
        assert err.cycle == 7 and err.router == 3
        assert "cycle=7" in str(err)

    def test_invariant_violation(self):
        err = self.roundtrip(
            InvariantViolation("flit-conservation", "lost one", cycle=9)
        )
        assert isinstance(err, InvariantViolation)
        assert err.invariant == "flit-conservation"
        assert err.cycle == 9

    @pytest.mark.parametrize(
        "make",
        [
            lambda pm: DeadlockError("stuck", post_mortem=pm, cycle=10),
            lambda pm: DrainTimeoutError("undrained", post_mortem=pm, cycle=10),
            lambda pm: BoundViolationError(
                "late", observed=9, bound=5, post_mortem=pm, cycle=10
            ),
        ],
        ids=["DeadlockError", "DrainTimeoutError", "BoundViolationError"],
    )
    def test_error_keeps_post_mortem(self, make):
        pm = PostMortem(cycle=10, reason="watchdog")
        original = make(pm)
        err = self.roundtrip(original)
        assert type(err) is type(original)
        assert err.post_mortem is not None
        assert err.post_mortem.reason == "watchdog"
        assert str(err) == str(original)
        assert str(err).endswith("\n" + pm.render())
        assert "post-mortem" in str(err)


class TestFailureEntries:
    """A failed cell's verdict is its entry in the cell cache."""

    def spec(self, seed=1):
        return CellSpec.parsec("canneal", "No-PG", seed=seed)

    def report(self, spec, classification="deterministic", exc=None):
        exc = exc or SimulationError("boom", cycle=3)
        return FailureReport.from_failure(spec, "k", exc, 1, classification)

    @pytest.mark.parametrize("directory", [True, False], ids=["files", "memory"])
    def test_failure_entry_round_trips(self, tmp_path, directory):
        cache = CellCache(tmp_path if directory else None, salt="s1")
        spec = self.spec()
        report = self.report(spec)
        cache.put(spec, report)
        reopened = CellCache(tmp_path, salt="s1") if directory else cache
        assert reopened.lookup(spec) == report
        assert reopened.lookup(spec).condemned
        assert reopened.get(spec) is None  # a failure is not a payload
        assert reopened.lookup(self.spec(2)) is None

    def test_entry_carries_spec_and_post_mortem(self, tmp_path):
        pm = PostMortem(cycle=10, reason="watchdog")
        spec = self.spec()
        cache = CellCache(tmp_path, salt="s1")
        exc = DeadlockError("stuck", post_mortem=pm, cycle=10)
        cache.put(spec, self.report(spec, exc=exc))
        doc = json.loads(cache.path_for(spec).read_text())
        assert list(doc) == ["salt", "spec", "failure"]
        assert doc["spec"] == spec.canonical()
        failure = doc["failure"]
        assert failure["error_type"] == "DeadlockError"
        assert failure["attempts"] == 1
        assert failure["spec"]["workload"] == "canneal"
        assert failure["post_mortem"] is not None

    @pytest.mark.parametrize(
        "damage",
        [
            b'{"salt": "s1", "spec": {}, "failure": {"key": "k", "lab',
            b'{"failure": null}',
            b'{"failure": {"key": "k"}}',
            b'{"failure": {"bogus": 1}}',
            b'{"failure": "deterministic"}',
        ],
    )
    def test_torn_or_corrupt_failure_entry_is_a_miss(self, tmp_path, damage):
        cache = CellCache(tmp_path, salt="s1")
        spec = self.spec()
        cache.put(spec, self.report(spec))
        cache.path_for(spec).write_bytes(damage)
        assert cache.lookup(spec) is None

    def test_stale_failure_entry_is_a_miss_and_the_cell_runs_again(self, tmp_path):
        """An entry written when reports still carried ``signatures``
        (a condemning one, at that) reads as a miss: the campaign runs
        the cell and its payload replaces the entry."""
        cache = CellCache(tmp_path, salt="s1")
        spec = CellSpec.synthetic(
            "uniform_random", 0.01, "No-PG", warmup=50, measurement=100, seed=1
        )
        doc = {
            "salt": "s1",
            "spec": spec.canonical(),
            "failure": {
                **self.report(spec).as_dict(),
                "key": cache.key_for(spec),
                "attempts": 2,
                "signatures": ["SimulationError: boom"] * 2,
            },
        }
        path = cache.path_for(spec)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(doc))
        assert cache.lookup(spec) is None
        [payload], stats = execute_cells([spec], cache=cache)
        assert (stats.executed, stats.quarantined, stats.failed) == (1, 0, 0)
        assert cache.lookup(spec) == payload
        assert list(json.loads(path.read_text())) == ["salt", "spec", "payload"]

    def test_payload_put_overwrites_an_exhausted_failure(self, tmp_path):
        cache = CellCache(tmp_path, salt="s1")
        spec = self.spec()
        report = self.report(spec, "exhausted")
        cache.put(spec, report)
        assert cache.lookup(spec) == report and not report.condemned
        cache.put(spec, {"seed": 1})
        assert cache.lookup(spec) == {"seed": 1}
        assert list(json.loads(cache.path_for(spec).read_text())) == [
            "salt", "spec", "payload"
        ]

    def test_parent_store_stays_all_hits(self, tmp_path):
        store = tmp_path / "store"
        shutil.copytree(PARENT_STORE, store)
        cells = [
            CellSpec.from_canonical(json.loads(path.read_text())["spec"])
            for path in sorted(store.glob("*/*.json"))
        ]
        _, stats = execute_cells(cells, cache=CellCache(store, salt="parent-format"))
        assert (stats.hits, stats.executed, stats.failed) == (len(cells), 0, 0)
