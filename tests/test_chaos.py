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


_ORCHESTRATOR_SCRIPT = """
import os, signal, sys
from repro.campaign import CellCache, execute_cells
from tests.test_chaos import orchestrator_cells

cells = orchestrator_cells()
cache = CellCache(sys.argv[1])
seen = []

def on_result(index, spec, payload, was_hit):
    seen.append(index)
    if len(seen) == 3:
        os.kill(os.getpid(), signal.SIGKILL)  # kill -9, no cleanup

execute_cells(cells, cache=cache, on_result=on_result)
"""


def orchestrator_cells():
    """Real (tiny) simulation cells for the orchestrator-kill test —
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


class TestOrchestratorKill:
    def test_kill_dash_9_then_resume_bit_identical(self, tmp_path):
        """kill -9 the whole campaign after 3 completed cells; a
        resumed run must recover those 3 from the cache and finish with
        100% coverage and payload hashes identical to an undisturbed
        run."""
        cache_dir = tmp_path / "cache"
        env = dict(os.environ)
        repo = Path(__file__).resolve().parent.parent
        env["PYTHONPATH"] = os.pathsep.join(
            [str(repo / "src"), str(repo), env.get("PYTHONPATH", "")]
        )
        proc = subprocess.run(
            [sys.executable, "-c", _ORCHESTRATOR_SCRIPT, str(cache_dir)],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr

        cells = orchestrator_cells()
        cache = CellCache(cache_dir)
        resumed, stats = execute_cells(cells, cache=cache)
        assert stats.hits == 3, "completed cells were not salvaged"
        assert stats.executed == 3
        assert all(p is not None for p in resumed)

        undisturbed, _ = execute_cells(cells, cache=CellCache(tmp_path / "fresh"))
        assert [payload_hash(p) for p in resumed] == [
            payload_hash(p) for p in undisturbed
        ]


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


class TestCheckpointRecovery:
    def test_campaign_restores_from_checkpoint_without_cache(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(
            "repro.campaign.engine.run_cell", well_behaved
        )
        ckpt = tmp_path / "campaign.checkpoint.json"
        cells = specs(4)
        _, cold = execute_cells(cells, checkpoint=ckpt, checkpoint_every=1)
        assert cold.executed == 4

        def must_not_run(spec):  # pragma: no cover - failure mode
            raise AssertionError("cell re-ran despite checkpoint")

        monkeypatch.setattr("repro.campaign.engine.run_cell", must_not_run)
        payloads, warm = execute_cells(cells, checkpoint=ckpt)
        assert warm.executed == 0
        assert warm.hits == 4 and warm.restored == 4
        assert payloads == [well_behaved(spec) for spec in cells]

    def test_checkpoint_heals_wiped_cache(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.campaign.engine.run_cell", well_behaved)
        ckpt = tmp_path / "c.json"
        cache_dir = tmp_path / "cache"
        cells = specs(2)
        execute_cells(
            cells,
            cache=CellCache(cache_dir, salt="s1"),
            checkpoint=ckpt,
            checkpoint_every=1,
        )
        # Simulate losing the cache but keeping the checkpoint.
        for entry in cache_dir.rglob("*.json"):
            entry.unlink()
        cache = CellCache(cache_dir, salt="s1")
        _, stats = execute_cells(cells, cache=cache, checkpoint=ckpt)
        assert stats.restored == 2 and stats.executed == 0
        # Restored entries were written back into the cache.
        assert cache.get(cells[0]) == well_behaved(cells[0])


    def test_checkpoint_bytes_written_are_linear_in_cells(
        self, tmp_path, monkeypatch
    ):
        """400 instant cells: the periodic rewrites add up to a constant
        multiple of the final file (every-4 rewrites wrote ~50x the
        final file here and ~400x at 3 200 cells), and a small campaign
        still flushes every ``checkpoint_every`` completions."""
        from repro.campaign import supervisor

        monkeypatch.setattr("repro.campaign.engine.run_cell", well_behaved)
        written = []
        real_write = supervisor._atomic_write_json

        def measuring_write(path, doc):
            real_write(path, doc)
            written.append(path.stat().st_size)

        monkeypatch.setattr(supervisor, "_atomic_write_json", measuring_write)
        ckpt = tmp_path / "c.json"
        log = tmp_path / "events.jsonl"
        _, stats = execute_cells(specs(400), checkpoint=ckpt, log_path=log)
        assert stats.executed == 400
        final = ckpt.stat().st_size
        assert written[-1] == final
        assert len(json.loads(ckpt.read_text())["entries"]) == 400
        assert sum(written) <= 12 * final
        flushed_at = [
            e["completed"] for e in iter_events(log) if e["event"] == "checkpoint"
        ]
        assert flushed_at[:8] == [4, 8, 12, 16, 20, 24, 28, 32]
        # Never more than an eighth of the recorded cells unflushed.
        for before, after in zip(flushed_at, flushed_at[1:]):
            assert after - before <= max(4, after // 8)


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


_GRACEFUL_SCRIPT = """
import os, signal, sys
from repro.campaign import CampaignInterrupted, CellCache, execute_cells
from tests.test_chaos import orchestrator_cells

cells = orchestrator_cells()
cache_dir, log_path, ckpt_path = sys.argv[1:4]
seen = []

def on_result(index, spec, payload, was_hit):
    seen.append(index)
    if len(seen) == 3:
        os.kill(os.getpid(), signal.SIGTERM)  # systemd-style stop

try:
    execute_cells(
        cells,
        cache=CellCache(cache_dir),
        checkpoint=ckpt_path,
        checkpoint_every=100,  # only the shutdown path may flush
        log_path=log_path,
        on_result=on_result,
    )
except CampaignInterrupted as exc:
    sys.exit(40 + (1 if exc.signum == signal.SIGTERM else 2))
sys.exit(0)
"""


class TestGracefulShutdown:
    def test_sigterm_flushes_state_and_resumes_cleanly(self, tmp_path):
        """SIGTERM mid-campaign: the engine flushes the checkpoint and
        event log, re-raises as CampaignInterrupted, and a resumed run
        restores the completed cells bit-identically."""
        cache_dir = tmp_path / "cache"
        log = tmp_path / "events.jsonl"
        ckpt = tmp_path / "campaign.checkpoint.json"
        env = dict(os.environ)
        repo = Path(__file__).resolve().parent.parent
        env["PYTHONPATH"] = os.pathsep.join(
            [str(repo / "src"), str(repo), env.get("PYTHONPATH", "")]
        )
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                _GRACEFUL_SCRIPT,
                str(cache_dir),
                str(log),
                str(ckpt),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        # 41 == CampaignInterrupted propagated carrying SIGTERM.
        assert proc.returncode == 41, proc.stderr

        # The shutdown path recorded the interruption in the event log.
        events = list(iter_events(log))
        interrupted = [e for e in events if e.get("event") == "interrupted"]
        assert interrupted and interrupted[-1]["signal"] == signal.SIGTERM
        # The checkpoint was flushed despite checkpoint_every=100.
        ckpt_doc = json.loads(ckpt.read_text())
        assert len(ckpt_doc["entries"]) >= 3

        # Clean resume from checkpoint alone (no cache): completed
        # cells restore, the rest run, hashes match an undisturbed run.
        cells = orchestrator_cells()
        resumed, stats = execute_cells(cells, checkpoint=ckpt)
        assert stats.restored >= 3
        assert stats.restored + stats.executed == len(cells)
        undisturbed, _ = execute_cells(
            cells, cache=CellCache(tmp_path / "fresh")
        )
        assert [payload_hash(p) for p in resumed] == [
            payload_hash(p) for p in undisturbed
        ]

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
