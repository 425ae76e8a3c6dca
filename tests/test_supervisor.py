"""Tests for the campaign supervision primitives.

Covers the retry policy (deterministic backoff/jitter), the
transient-vs-deterministic failure classifier, the quarantine ledger
(persistence, torn lines, structured reports with post-mortems) and
the pickling contract of the typed error hierarchy —
worker exceptions must survive the process-pool boundary without
breaking the pool.
"""

import pickle

import pytest

from repro.campaign import (
    CellSpec,
    CellTimeoutError,
    FailureReport,
    QuarantineLedger,
    RetryPolicy,
    WorkerCrashError,
    classify_attempts,
    error_signature,
)
from repro.noc.errors import (
    DeadlockError,
    DegradedNetworkError,
    InvariantViolation,
    SimulationError,
)
from repro.noc.invariants import PostMortem


class TestRetryPolicy:
    def test_first_attempt_has_no_delay(self):
        policy = RetryPolicy()
        assert policy.delay_before(1, "k") == 0.0

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            max_retries=10, backoff_base=0.1, backoff_factor=2.0, backoff_cap=0.5
        )
        delays = [policy.delay_before(a, "k") for a in range(2, 8)]
        # Monotone non-decreasing until the cap, then flat (same jitter key
        # aside, the base saturates at the cap).
        bases = [min(0.5, 0.1 * 2.0 ** (a - 2)) for a in range(2, 8)]
        for delay, base in zip(delays, bases):
            assert base <= delay <= base * 1.5

    def test_jitter_is_deterministic_and_key_dependent(self):
        policy = RetryPolicy()
        assert policy.delay_before(2, "a") == policy.delay_before(2, "a")
        # Differing keys de-correlate (equality would mean no jitter at all
        # for this pair; these two differ for sha256).
        assert policy.delay_before(2, "a") != policy.delay_before(2, "b")

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)


class TestClassifier:
    def test_signature_types(self):
        assert error_signature(WorkerCrashError("x")) == "worker-crash"
        assert error_signature(CellTimeoutError("x")) == "timeout"
        sig = error_signature(SimulationError("boom", cycle=4))
        assert sig.startswith("SimulationError:") and "boom" in sig

    def test_identical_twice_is_deterministic(self):
        sig = error_signature(SimulationError("boom"))
        assert classify_attempts([sig]) == "transient"
        assert classify_attempts([sig, sig]) == "deterministic"

    def test_differing_signatures_stay_transient(self):
        a = error_signature(SimulationError("one"))
        b = error_signature(SimulationError("two"))
        assert classify_attempts([a, b]) == "transient"
        # Only the *last two* matter: an old repeat does not condemn.
        assert classify_attempts([a, a, b]) == "transient"

    def test_repeated_crashes_are_deterministic(self):
        crash = error_signature(WorkerCrashError("died"))
        assert classify_attempts([crash, crash]) == "deterministic"


class TestErrorPickling:
    """Typed simulator errors must unpickle across the pool boundary —
    an exception that fails to unpickle breaks the whole pool."""

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

    def test_deadlock_error_keeps_post_mortem(self):
        pm = PostMortem(cycle=10, reason="watchdog")
        err = self.roundtrip(DeadlockError("stuck", post_mortem=pm, cycle=10))
        assert err.post_mortem is not None
        assert err.post_mortem.reason == "watchdog"
        assert "post-mortem" in str(err)

    def test_degraded_network_error(self):
        err = self.roundtrip(
            DegradedNetworkError(
                "router died", dead_routers=(5,), affected_packets=(1, 2), cycle=3
            )
        )
        assert err.dead_routers == (5,)
        assert err.affected_packets == (1, 2)


class TestQuarantineLedger:
    def report(self, key="k1", classification="deterministic"):
        spec = CellSpec.parsec("canneal", "No-PG")
        exc = SimulationError("boom", cycle=3)
        return FailureReport.from_failure(
            spec, key, exc, 2, [error_signature(exc)] * 2, classification
        )

    def test_quarantine_persists_across_instances(self, tmp_path):
        ledger = QuarantineLedger(tmp_path / "q")
        assert len(ledger) == 0
        ledger.quarantine(self.report("k1"))
        reopened = QuarantineLedger(tmp_path / "q")
        assert reopened.is_quarantined("k1")
        assert not reopened.is_quarantined("k2")
        entry = reopened.entry_for("k1")
        assert entry["classification"] == "deterministic"
        assert entry["attempts"] == 2

    def test_report_carries_spec_and_signatures(self, tmp_path):
        ledger = QuarantineLedger(tmp_path / "q")
        ledger.quarantine(self.report("k1"))
        doc = QuarantineLedger(tmp_path / "q").load_report("k1")
        assert doc["error_type"] == "SimulationError"
        assert len(doc["signatures"]) == 2
        assert doc["spec"]["workload"] == "canneal"

    def test_post_mortem_rendered_into_report(self, tmp_path):
        pm = PostMortem(cycle=10, reason="watchdog")
        exc = DeadlockError("stuck", post_mortem=pm, cycle=10)
        spec = CellSpec.parsec("canneal", "No-PG")
        report = FailureReport.from_failure(
            spec, "k2", exc, 2, ["s", "s"], "deterministic"
        )
        ledger = QuarantineLedger(tmp_path / "q")
        ledger.quarantine(report)
        doc = ledger.load_report("k2")
        assert doc["post_mortem"] is not None

    def test_torn_ledger_line_is_skipped(self, tmp_path):
        ledger = QuarantineLedger(tmp_path / "q")
        ledger.quarantine(self.report("k1"))
        with open(ledger.ledger_path, "a") as fh:
            fh.write('{"key": "k2", "trunc')  # torn mid-write
        reopened = QuarantineLedger(tmp_path / "q")
        assert reopened.is_quarantined("k1")
        assert not reopened.is_quarantined("k2")

