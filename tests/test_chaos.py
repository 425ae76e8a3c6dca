"""Chaos tests for the supervised campaign executor.

The acceptance scenarios of the resilience layer live here:

* a worker process is SIGKILLed mid-campaign — the supervisor detects
  the broken pool, salvages every completed cell, respawns, and the
  campaign finishes with payloads bit-identical to an undisturbed
  sequential run;
* the *orchestrator* is killed dead (``kill -9``, no cleanup) — a
  resumed campaign recovers the completed cells from the cache and
  finishes with 100% coverage and identical payload hashes;
* a deterministically failing cell lands in the quarantine ledger
  after exactly ``--max-retries`` attempts without blocking other
  cells, and later campaigns skip it outright;
* a cell that exceeds its wall-clock budget is killed, classified as
  a timeout, and does not stall the rest of the matrix.

Worker-kill tests rely on the ``fork`` start method: monkeypatched
``repro.campaign.engine.run_cell`` propagates into pool workers forked
after the patch.  That holds on Linux/CPython (the platforms CI runs).
"""

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign import (
    Campaign,
    CampaignError,
    CellCache,
    CellSpec,
    QuarantinedCellError,
    QuarantineLedger,
    encode_payload,
    execute_cells,
    iter_events,
)
from repro.noc.errors import SimulationError


def specs(n=4):
    """Cheap distinguishable cells (run_cell is monkeypatched away)."""
    return [
        CellSpec.parsec("canneal", "No-PG", instructions=100, seed=seed)
        for seed in range(1, n + 1)
    ]


def payload_hash(payload):
    doc = json.dumps(encode_payload(payload), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def well_behaved(spec):
    return {"seed": spec.seed, "value": spec.seed * 10}


class TestWorkerKill:
    def test_sigkill_worker_is_isolated_and_campaign_completes(
        self, tmp_path, monkeypatch
    ):
        """SIGKILL one worker mid-cell: the supervisor must respawn the
        pool, re-run the victim, and deliver bit-identical payloads."""
        sentinel = tmp_path / "killed-once"

        def homicidal(spec):
            if spec.seed == 3 and not sentinel.exists():
                sentinel.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            return well_behaved(spec)

        monkeypatch.setattr("repro.campaign.engine.run_cell", homicidal)
        cache = CellCache(tmp_path / "cache", salt="s1")
        log = tmp_path / "events.jsonl"
        payloads, stats = execute_cells(
            specs(), workers=2, cache=cache, log_path=log
        )

        assert sentinel.exists(), "the chaos cell never ran"
        assert stats.crashes >= 1
        assert stats.executed == 4 and stats.failed == 0
        # Bit-identical to an undisturbed sequential run.
        undisturbed, _ = execute_cells(specs())
        assert [payload_hash(p) for p in payloads] == [
            payload_hash(p) for p in undisturbed
        ]
        events = [json.loads(line) for line in log.read_text().splitlines()]
        assert any(e["event"] == "pool-respawn" for e in events)

    def test_repeated_worker_crashes_quarantine_the_culprit(
        self, tmp_path, monkeypatch
    ):
        """A cell that kills its worker every time is classified
        deterministic (crash twice in a row) and quarantined instead of
        crash-looping the pool forever."""

        def always_kills(spec):
            if spec.seed == 2:
                os.kill(os.getpid(), signal.SIGKILL)
            return well_behaved(spec)

        monkeypatch.setattr("repro.campaign.engine.run_cell", always_kills)
        ledger = QuarantineLedger(tmp_path / "q")
        cache = CellCache(tmp_path / "cache", salt="s1")
        payloads, stats = execute_cells(
            specs(3),
            workers=2,
            cache=cache,
            quarantine=ledger,
            max_retries=3,
            failure_mode="continue",
        )
        assert stats.crashes >= 2
        assert stats.quarantined == 1 and stats.failed == 1
        assert payloads[1] is None
        assert payloads[0] == well_behaved(specs(3)[0])
        assert payloads[2] == well_behaved(specs(3)[2])
        key = cache.key_for(specs(3)[1])
        assert ledger.is_quarantined(key)
        report = ledger.load_report(key)
        assert report["classification"] == "deterministic"
        assert report["signatures"][-2:] == ["worker-crash", "worker-crash"]


_VICTIM_SCRIPT = """
import json, os, signal, sys
from repro.campaign import Campaign, CampaignInterrupted
from tests.test_chaos import orchestrator_cells

cache_dir, signame, carrier = sys.argv[1:4]
seen = []

def on_result(index, spec, payload, was_hit):
    seen.append(index)
    if len(seen) == 3:
        os.kill(os.getpid(), getattr(signal, signame))

campaign = Campaign(name="victim", cells=orchestrator_cells())
try:
    campaign.run(cache_dir=cache_dir, on_result=on_result, **json.loads(carrier))
except CampaignInterrupted as exc:
    sys.exit(40 + (1 if exc.signum == signal.SIGTERM else 2))
sys.exit(0)
"""

#: The three carriers a campaign can run on; resume means the same on each.
CARRIERS = [{"workers": 1}, {"workers": 2}, {"hosts": "local:1"}]


def orchestrator_cells():
    """Real (tiny) simulation cells for the orchestrator-kill tests —
    the child process cannot see the parent's monkeypatches."""
    return [
        CellSpec.synthetic(
            "uniform_random",
            0.02,
            scheme,
            warmup=30,
            measurement=80,
            drain=False,
            seed=seed,
        )
        for scheme in ("No-PG", "PowerPunch-PG")
        for seed in (1, 2, 3)
    ]


def run_victim(tmp_path, signame, carrier):
    """Run ``Campaign(name="victim").run(cache_dir=tmp_path / "store")``
    in a child that signals itself ``signame`` after 3 results; returns
    ``(exit code, stderr)``.  The child gets its own session, so pool
    workers or worker hosts a ``kill -9`` orphaned are killed with it."""
    env = dict(os.environ)
    repo = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = os.pathsep.join(
        [str(repo / "src"), str(repo), env.get("PYTHONPATH", "")]
    )
    err = tmp_path / "victim.stderr"
    with open(err, "w") as stderr:
        proc = subprocess.Popen(
            [
                sys.executable,
                "-c",
                _VICTIM_SCRIPT,
                str(tmp_path / "store"),
                signame,
                json.dumps(carrier),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=stderr,
            start_new_session=True,
        )
        try:
            proc.wait(timeout=300)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    return proc.returncode, err.read_text()


def resume_from_store(tmp_path, carrier):
    """Rerun the victim's campaign against its store; check it matches
    an undisturbed run bit for bit and that neither run wrote a
    checkpoint beside the store.  Returns the rerun's stats."""
    cells = orchestrator_cells()
    campaign = Campaign(name="victim", cells=tuple(cells))
    resumed = campaign.run(cache_dir=tmp_path / "store", **carrier)
    stats = campaign.last_stats
    assert stats.failed == 0 and stats.hits + stats.executed == len(cells)
    undisturbed, _ = execute_cells(cells)
    assert [payload_hash(p) for p in resumed] == [
        payload_hash(p) for p in undisturbed
    ]
    assert not list((tmp_path / "store").rglob("*.checkpoint.json"))
    return stats


class TestOrchestratorKill:
    @pytest.mark.parametrize("carrier", CARRIERS, ids=str)
    def test_kill_dash_9_then_resume_bit_identical(self, tmp_path, carrier):
        """kill -9 the whole campaign after 3 completed cells; a
        resumed run must recover those 3 from the store alone and
        finish with 100% coverage and payload hashes identical to an
        undisturbed run."""
        code, stderr = run_victim(tmp_path, "SIGKILL", carrier)
        assert code == -signal.SIGKILL, stderr
        stats = resume_from_store(tmp_path, carrier)
        assert stats.hits == 3, "completed cells were not salvaged"
        assert stats.executed == 3


class TestQuarantine:
    def test_deterministic_failure_quarantined_after_max_retries(
        self, tmp_path, monkeypatch
    ):
        calls = []

        def mostly_fine(spec):
            calls.append(spec.seed)
            if spec.seed == 2:
                raise SimulationError("deterministic kaboom", cycle=5)
            return well_behaved(spec)

        monkeypatch.setattr("repro.campaign.engine.run_cell", mostly_fine)
        cache = CellCache(tmp_path / "cache", salt="s1")
        ledger = QuarantineLedger(tmp_path / "q")
        cells = specs(3)
        with pytest.raises(CampaignError) as excinfo:
            execute_cells(
                cells, cache=cache, quarantine=ledger, max_retries=2
            )
        # Exactly --max-retries attempts, then condemned.
        assert calls.count(2) == 2
        assert excinfo.value.attempts == 2
        assert isinstance(excinfo.value.cause, SimulationError)
        key = cache.key_for(cells[1])
        entry = ledger.entry_for(key)
        assert entry["classification"] == "deterministic"
        assert entry["attempts"] == 2
        # The failure did not block the other cells: both are cached.
        assert cache.get(cells[0]) is not None
        assert cache.get(cells[2]) is not None

    def test_second_campaign_skips_quarantined_cell(self, tmp_path, monkeypatch):
        calls = []

        def mostly_fine(spec):
            calls.append(spec.seed)
            if spec.seed == 2:
                raise SimulationError("deterministic kaboom", cycle=5)
            return well_behaved(spec)

        monkeypatch.setattr("repro.campaign.engine.run_cell", mostly_fine)
        cache = CellCache(tmp_path / "cache", salt="s1")
        ledger = QuarantineLedger(tmp_path / "q")
        cells = specs(3)
        with pytest.raises(CampaignError):
            execute_cells(cells, cache=cache, quarantine=ledger)
        first_run_calls = list(calls)

        payloads, stats = execute_cells(
            cells,
            cache=cache,
            quarantine=QuarantineLedger(tmp_path / "q"),  # reopened from disk
            failure_mode="continue",
        )
        # No new attempts at all: goods hit the cache, the bad cell is
        # skipped by the ledger without burning its retry budget.
        assert calls == first_run_calls
        assert stats.hits == 2 and stats.executed == 0
        assert stats.quarantined == 1
        assert payloads[1] is None

    def test_exhausted_flaky_cell_is_not_quarantined(self, tmp_path, monkeypatch):
        """A cell whose budget runs out on *differing* signatures is
        flaky, not condemned: its structured report is written for
        post-mortems, but no ledger line — the next campaign retries
        it with a fresh budget instead of skipping it forever."""
        calls = []

        def flaky(spec):
            calls.append(spec.seed)
            if spec.seed == 2:
                raise SimulationError(f"flaky kaboom #{len(calls)}", cycle=5)
            return well_behaved(spec)

        monkeypatch.setattr("repro.campaign.engine.run_cell", flaky)
        cache = CellCache(tmp_path / "cache", salt="s1")
        ledger = QuarantineLedger(tmp_path / "q")
        cells = specs(3)
        payloads, stats = execute_cells(
            cells,
            cache=cache,
            quarantine=ledger,
            max_retries=2,
            failure_mode="continue",
        )
        assert payloads[1] is None
        assert stats.failed == 1 and stats.quarantined == 0
        key = cache.key_for(cells[1])
        assert not ledger.is_quarantined(key)
        report = ledger.load_report(key)
        assert report["classification"] == "exhausted"
        assert len(set(report["signatures"])) == 2  # genuinely differing

        attempts_before = calls.count(2)
        execute_cells(
            cells,
            cache=cache,
            quarantine=QuarantineLedger(tmp_path / "q"),  # reopened
            max_retries=2,
            failure_mode="continue",
        )
        # A fresh budget was spent — the cell was not skipped.
        assert calls.count(2) == attempts_before + 2

    def test_quarantined_cell_raises_typed_error(self, tmp_path, monkeypatch):
        def always_fails(spec):
            raise SimulationError("kaboom")

        monkeypatch.setattr("repro.campaign.engine.run_cell", always_fails)
        cache = CellCache(tmp_path / "cache", salt="s1")
        cells = specs(1)
        with pytest.raises(CampaignError):
            execute_cells(cells, cache=cache, quarantine=tmp_path / "q")
        with pytest.raises(CampaignError) as excinfo:
            execute_cells(cells, cache=cache, quarantine=tmp_path / "q")
        assert isinstance(excinfo.value.cause, QuarantinedCellError)
        assert excinfo.value.attempts == 0


class TestTimeout:
    def test_hung_cell_is_killed_and_does_not_stall_matrix(
        self, tmp_path, monkeypatch
    ):
        def sleepy(spec):
            if spec.seed == 2:
                time.sleep(60)
            return well_behaved(spec)

        monkeypatch.setattr("repro.campaign.engine.run_cell", sleepy)
        ledger = QuarantineLedger(tmp_path / "q")
        cache = CellCache(tmp_path / "cache", salt="s1")
        cells = specs(3)
        start = time.monotonic()
        payloads, stats = execute_cells(
            cells,
            workers=2,
            timeout=0.75,
            max_retries=1,
            cache=cache,
            quarantine=ledger,
            failure_mode="continue",
        )
        elapsed = time.monotonic() - start
        assert elapsed < 30, "timeout enforcement failed to preempt the hang"
        assert stats.timeouts >= 1
        assert payloads[1] is None
        assert payloads[0] == well_behaved(cells[0])
        assert payloads[2] == well_behaved(cells[2])
        report = ledger.load_report(cache.key_for(cells[1]))
        assert report["signatures"] == ["timeout"]
        assert report["error_type"] == "CellTimeoutError"

    def test_timeout_kill_collateral_is_not_charged(self, tmp_path, monkeypatch):
        """Enforcing one cell's deadline kills the whole pool; cells
        that were merely running inside their own deadline are
        collateral damage and must be resubmitted free of charge.
        With ``max_retries=1`` a single wrongly-charged attempt would
        fail the innocent cell outright.

        The order of events is staged on sentinel files, not sleeps:
        the supervisor's clock only advances when a worker reports it
        got somewhere, so the hung cell's deadline cannot pass before
        the bystander is running, however loaded the box is.
        """
        hung_started = tmp_path / "hung-cell-started"
        bystander_started = tmp_path / "bystander-started"

        def clock():
            # The supervisor's time: 0.0 until the hung cell runs, 1.9
            # until the bystander runs, 2.9 from then on.  Seed 1 is
            # submitted at 0.0 (deadline 2.0); seed 3 only once seed 2
            # has seen seed 1 running, so at 1.9 (deadline 3.9).  At
            # 2.9 exactly one deadline has passed, and it cannot pass
            # before the bystander is running.
            return 1.9 * hung_started.exists() + 1.0 * bystander_started.exists()

        def staged(spec):
            if spec.seed == 1:
                hung_started.touch()
                time.sleep(60)  # the genuine timeout
            if spec.seed == 2:
                while not hung_started.exists():
                    time.sleep(0.01)  # frees the slot for seed 3
            if spec.seed == 3 and not bystander_started.exists():
                bystander_started.touch()
                time.sleep(60)  # asleep when seed 1's kill lands
            return well_behaved(spec)

        monkeypatch.setattr("repro.campaign.engine.run_cell", staged)
        monkeypatch.setattr("repro.campaign.engine.perf_counter", clock)
        cells = specs(3)
        payloads, stats = execute_cells(
            cells,
            workers=2,
            timeout=2.0,
            max_retries=1,
            failure_mode="continue",
        )
        assert bystander_started.exists(), "the collateral cell never ran"
        assert stats.timeouts == 1
        assert payloads[0] is None  # the hung cell, charged and failed
        assert payloads[1] == well_behaved(cells[1])
        # The innocent bystander survived despite the 1-attempt budget.
        assert payloads[2] == well_behaved(cells[2])
        assert stats.failed == 1

    def test_timeout_forces_isolation_even_with_one_worker(
        self, tmp_path, monkeypatch
    ):
        """``workers=1`` with a timeout still runs cells in a worker
        process — inline execution could never preempt a hang."""

        def sleepy(spec):
            if spec.seed == 1:
                time.sleep(60)
            return well_behaved(spec)

        monkeypatch.setattr("repro.campaign.engine.run_cell", sleepy)
        cells = specs(2)
        payloads, stats = execute_cells(
            cells,
            workers=1,
            timeout=0.75,
            max_retries=1,
            failure_mode="continue",
        )
        assert stats.timeouts >= 1
        assert payloads[0] is None
        assert payloads[1] == well_behaved(cells[1])


class TestPoolBacklog:
    def test_only_completions_wake_the_supervisor(self, monkeypatch):
        """200 instant cells, 2 workers, nothing to retry and no
        deadline: every ``wait`` blocks until a future completes (no
        alarm while a backlog exists), at most ``workers`` futures are
        in flight, and cells are submitted in declared order."""
        from repro.campaign import engine

        monkeypatch.setattr("repro.campaign.engine.run_cell", well_behaved)
        waits = []
        submitted = []

        def counting_wait(futures, timeout=None, return_when=None):
            waits.append((len(futures), timeout))
            return wait(futures, timeout=timeout, return_when=return_when)

        class RecordingPool(engine.ProcessPoolExecutor):
            def submit(self, fn, spec):
                submitted.append(spec)
                return super().submit(fn, spec)

        wait = engine.wait
        monkeypatch.setattr(engine, "wait", counting_wait)
        monkeypatch.setattr(engine, "ProcessPoolExecutor", RecordingPool)
        cells = specs(200)
        payloads, stats = execute_cells(cells, workers=2)
        assert payloads == [well_behaved(spec) for spec in cells]
        assert stats.executed == 200 and stats.retried == 0
        assert submitted == cells
        assert len(waits) <= len(cells) + 5
        assert {timeout for _, timeout in waits} == {None}
        assert max(inflight for inflight, _ in waits) <= 2


class TestGracefulShutdown:
    @pytest.mark.parametrize("carrier", CARRIERS, ids=str)
    def test_sigterm_flushes_state_and_resumes_cleanly(self, tmp_path, carrier):
        """SIGTERM mid-campaign: the engine closes the event log,
        re-raises as CampaignInterrupted, and a resumed run finds every
        cell the victim finished in the store."""
        code, stderr = run_victim(tmp_path, "SIGTERM", carrier)
        # 41 == CampaignInterrupted propagated carrying SIGTERM.
        assert code == 41, stderr

        # The shutdown path recorded the interruption in the event log.
        events = list(iter_events(tmp_path / "store" / "victim.events.jsonl"))
        interrupted = [e for e in events if e.get("event") == "interrupted"]
        assert interrupted and interrupted[-1]["signal"] == signal.SIGTERM
        done = [e for e in events if e.get("status") == "done"]
        assert len(done) >= 3

        # Every cell the victim logged as done is a hit; the rest run.
        stats = resume_from_store(tmp_path, carrier)
        assert stats.hits == len(done)

    def test_torn_log_and_corrupt_cache_degrade_to_recompute(
        self, tmp_path, monkeypatch
    ):
        """A truncated trailing event-log line and a corrupt cache
        entry (torn writes from a crash) must not poison a resume: the
        log reader skips the torn line and the corrupt cell silently
        recomputes."""
        monkeypatch.setattr("repro.campaign.engine.run_cell", well_behaved)
        cache = CellCache(tmp_path / "cache", salt="s1")
        log = tmp_path / "events.jsonl"
        cells = specs()
        first, _ = execute_cells(cells, cache=cache, log_path=log)

        complete_before = len(list(iter_events(log)))
        with open(log, "a") as fh:
            fh.write('{"event": "cell", "status": "do')  # torn mid-write
        cache.path_for(cells[2]).write_bytes(b'{"payload": tor')

        events = list(iter_events(log))
        assert len(events) == complete_before, "torn line must be skipped"
        resumed, stats = execute_cells(cells, cache=cache, log_path=log)
        assert stats.hits == len(cells) - 1
        assert stats.executed == 1, "corrupt entry must recompute"
        assert stats.failed == 0
        assert [payload_hash(p) for p in resumed] == [
            payload_hash(p) for p in first
        ]
