"""Chaos tests for the supervised campaign executor.

The acceptance scenarios of the resilience layer live here:

* a worker process is SIGKILLed mid-campaign — the supervisor charges
  that attempt to that worker's cell alone, replaces the worker, and
  the campaign finishes with payloads bit-identical to an undisturbed
  sequential run; the cell running beside it is neither charged nor
  restarted;
* the *orchestrator* is killed dead (``kill -9``, no cleanup) — a
  resumed campaign recovers the completed cells from the cache and
  finishes with 100% coverage and identical payload hashes;
* a cell that raises is condemned in the store (its failure report
  becomes its entry) on its first attempt without blocking other
  cells, and later campaigns skip it outright until that entry is
  deleted;
* a cell that exceeds its wall-clock budget is killed, classified as
  a timeout, and does not stall the rest of the matrix;
* crashes and timeouts are retried within ``--max-retries``, and a
  budget they spend ends ``exhausted``: stored, never condemning.

Worker-kill tests rely on the ``fork`` start method: monkeypatched
``repro.campaign.engine.run_cell`` propagates into pool workers forked
after the patch.  That holds on Linux/CPython (the platforms CI runs).
"""

import hashlib
import json
import os
import re
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
    FailureReport,
    QuarantinedCellError,
    encode_payload,
    execute_cells,
    iter_events,
    run_cell,
)
from repro.campaign.service import LocalCluster
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
        """SIGKILL one worker mid-cell: the supervisor must replace the
        worker, re-run the victim, and deliver bit-identical payloads."""
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

    def test_repeated_worker_crashes_exhaust_the_culprit(
        self, tmp_path, monkeypatch
    ):
        """A cell that kills its worker every time spends its budget and
        ends ``exhausted`` instead of crash-looping the pool forever; a
        crash depends on the machine, so the verdict does not condemn."""

        def always_kills(spec):
            if spec.seed == 2:
                os.kill(os.getpid(), signal.SIGKILL)
            return well_behaved(spec)

        monkeypatch.setattr("repro.campaign.engine.run_cell", always_kills)
        cache = CellCache(tmp_path / "cache", salt="s1")
        payloads, stats = execute_cells(
            specs(3),
            workers=2,
            cache=cache,
            max_retries=3,
            failure_mode="continue",
        )
        assert stats.crashes == 3
        assert stats.quarantined == 0 and stats.failed == 1
        assert payloads[1] is None
        assert payloads[0] == well_behaved(specs(3)[0])
        assert payloads[2] == well_behaved(specs(3)[2])
        report = cache.lookup(specs(3)[1])
        assert isinstance(report, FailureReport) and not report.condemned
        assert report.classification == "exhausted" and report.attempts == 3
        assert report.error_type == "WorkerCrashError"

    @pytest.mark.parametrize("simulated", [False, True], ids=["stub", "simulated-neighbour"])
    def test_a_crash_is_charged_only_to_its_own_cell(
        self, tmp_path, monkeypatch, simulated
    ):
        """Cell 2 SIGKILLs its worker on every attempt while cell 1 is
        running: cell 1 runs once, undisturbed, and its payload is
        stored; cell 2 alone spends its budget and ends ``exhausted``.
        Cell 1 stays running until cell 2's worker has died twice
        (sentinel files, not sleeps); ``simulated`` makes it then run a
        real synthetic simulation."""
        starts, crashes = tmp_path / "starts", tmp_path / "crashes"

        def poison_beside_innocent(spec):
            with open(starts, "a") as fh:
                fh.write(f"{spec.seed}\n")
            if spec.seed == 2:
                with open(crashes, "a") as fh:
                    fh.write("crash\n")
                os.kill(os.getpid(), signal.SIGKILL)
            deadline = time.monotonic() + 30
            while len(lines(crashes)) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            return run_cell(spec) if simulated else well_behaved(spec)

        monkeypatch.setattr("repro.campaign.engine.run_cell", poison_beside_innocent)
        cache = CellCache(tmp_path / "cache", salt="s1")
        cells = specs(2)
        if simulated:
            cells[0] = CellSpec.synthetic(
                "uniform_random", 0.02, "PowerPunch-PG",
                warmup=50, measurement=200, drain=False, seed=1,
            )
        payloads, stats = execute_cells(
            cells, workers=2, max_retries=3, cache=cache, failure_mode="continue"
        )
        assert lines(starts).count("1") == 1
        assert payloads[0] is not None and payloads[0] == cache.lookup(cells[0])
        if not simulated:
            assert payloads[0] == well_behaved(cells[0])
        report = cache.lookup(cells[1])
        assert isinstance(report, FailureReport) and not report.condemned
        assert (report.classification, report.attempts) == ("exhausted", 3)
        assert lines(crashes) == ["crash"] * 3
        assert (stats.executed, stats.crashes, stats.quarantined, stats.failed) == (1, 3, 0, 1)

    def test_an_outcome_that_will_not_unpickle_costs_only_its_attempt(
        self, monkeypatch
    ):
        """Seed 2's exception pickles in its worker but refuses to
        unpickle here: that attempt fails with a ``RuntimeError`` naming
        the cause, no worker is lost, and every other cell completes."""

        def refusing(spec):
            if spec.seed == 2:
                raise Unloadable()
            return {"seed": spec.seed, "pid": os.getpid()}

        monkeypatch.setattr("repro.campaign.engine.run_cell", refusing)
        failures = []
        payloads, stats = execute_cells(
            specs(4),
            workers=2,
            failure_mode="continue",
            on_failure=lambda i, spec, exc, verdict: failures.append((verdict, exc)),
        )
        assert payloads[1] is None and stats.executed == 3 and stats.crashes == 0
        [(verdict, exc)] = failures
        assert verdict == "deterministic" and isinstance(exc, RuntimeError)
        assert "could not be unpickled" in str(exc) and "refused" in str(exc)
        assert len({payload["pid"] for payload in payloads if payload}) <= 2


class Unloadable(Exception):
    """Pickles fine; unpickling it raises."""

    def __reduce__(self):
        return (_refuse_to_unpickle, ())


def _refuse_to_unpickle():
    raise RuntimeError("refused to unpickle")


def lines(path):
    """The lines a staged cell appended to ``path`` so far."""
    return path.read_text().split() if path.exists() else []


def alive(pid):
    """Whether process ``pid`` exists (a killed pool worker is reaped
    as it is replaced)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def child_env():
    """Environment of a ``python`` child that imports this ``repro``
    and these tests."""
    env = dict(os.environ)
    repo = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = os.pathsep.join(
        [str(repo / "src"), str(repo), env.get("PYTHONPATH", "")]
    )
    return env


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
            env=child_env(),
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


#: One cell that SIGKILLs its own process, run with ``workers=2``
#: into the store at argv[1]; prints the campaign's crash count.
_LONE_POISON_SCRIPT = """
import os, signal, sys
import repro.campaign.engine as engine
from repro.campaign import CellCache, CellSpec, execute_cells

def poison(spec):
    os.kill(os.getpid(), signal.SIGKILL)

engine.run_cell = poison
cell = CellSpec.parsec("canneal", "No-PG", instructions=100, seed=1)
_, stats = execute_cells(
    [cell], workers=2, max_retries=3, cache=CellCache(sys.argv[1]),
    failure_mode="continue",
)
print(stats.crashes)
"""


def suicidal(spec):
    os.kill(os.getpid(), signal.SIGKILL)


class TestLoneCellIsolation:
    """``workers > 1`` means one process per cell attempt, even when a
    single cell is left to run."""

    def test_a_lone_poison_cell_does_not_kill_its_caller(self, tmp_path):
        store = tmp_path / "store"
        proc = subprocess.run(
            [sys.executable, "-c", _LONE_POISON_SCRIPT, str(store)],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["3"]
        report = CellCache(store).lookup(specs(1)[0])
        assert isinstance(report, FailureReport) and not report.condemned
        assert report.classification == "exhausted"

    def test_a_lone_poison_lease_keeps_its_host(self, tmp_path, monkeypatch):
        """A capacity-2 host granted one poison lease runs it in a pool
        worker of its own: the host survives and the client records the
        cell's verdict."""
        monkeypatch.setattr("repro.campaign.engine.run_cell", suicidal)
        cells = specs(1)
        cache = CellCache(tmp_path / "store")
        with LocalCluster(1, capacity=2, max_retries=3) as cluster:
            payloads, stats = execute_cells(
                cells, hosts=cluster.address, cache=cache, failure_mode="continue"
            )
            assert cluster.orchestrator.stats["dead_hosts"] == 0
        assert payloads == [None] and stats.failed == 1
        report = cache.lookup(cells[0])
        assert not report.condemned and report.classification == "exhausted"
        assert report.error_type == "WorkerCrashError"


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
    def test_deterministic_failure_quarantined_on_first_attempt(
        self, tmp_path, monkeypatch
    ):
        """A cell is deterministic, so a ``SimulationError`` is its
        verdict at once: one attempt of the two allowed, condemned, and
        skipped unrun by the next campaign."""
        calls = []

        def mostly_fine(spec):
            calls.append(spec.seed)
            if spec.seed == 2:
                raise SimulationError("deterministic kaboom", cycle=5)
            return well_behaved(spec)

        monkeypatch.setattr("repro.campaign.engine.run_cell", mostly_fine)
        cache = CellCache(tmp_path / "cache", salt="s1")
        cells = specs(3)
        with pytest.raises(CampaignError) as excinfo:
            execute_cells(cells, cache=cache, max_retries=2)
        assert calls.count(2) == 1
        assert excinfo.value.attempts == 1
        assert isinstance(excinfo.value.cause, SimulationError)
        report = cache.lookup(cells[1])
        assert report.classification == "deterministic" and report.condemned
        assert report.attempts == 1
        # The failure did not block the other cells: both are cached.
        assert cache.get(cells[0]) is not None
        assert cache.get(cells[2]) is not None
        _, stats = execute_cells(
            cells, cache=cache, max_retries=2, failure_mode="continue"
        )
        assert (stats.executed, stats.quarantined) == (0, 1)
        assert calls.count(2) == 1

    def test_a_cell_that_raises_in_a_worker_is_attempted_once(
        self, tmp_path, monkeypatch
    ):
        """The pool carrier gives the same verdict as the inline one: an
        error the cell raises in its worker is not retried, whatever
        budget is left, and condemns the cell; its neighbours run."""
        attempts = tmp_path / "attempts"

        def raises_in_worker(spec):
            if spec.seed == 2:
                with open(attempts, "a") as fh:
                    fh.write("attempt\n")
                raise SimulationError("deterministic kaboom", cycle=5)
            return well_behaved(spec)

        monkeypatch.setattr("repro.campaign.engine.run_cell", raises_in_worker)
        cache = CellCache(tmp_path / "cache", salt="s1")
        cells = specs(3)
        payloads, stats = execute_cells(
            cells, workers=2, cache=cache, max_retries=3, failure_mode="continue"
        )
        assert len(lines(attempts)) == 1
        assert payloads[1] is None
        assert payloads[0] == well_behaved(cells[0])
        assert payloads[2] == well_behaved(cells[2])
        assert (stats.executed, stats.retried, stats.crashes, stats.failed) == (2, 0, 0, 1)
        report = cache.lookup(cells[1])
        assert report.classification == "deterministic" and report.condemned
        assert (report.attempts, report.error_type) == (1, "SimulationError")

    def test_second_campaign_skips_quarantined_cell(self, tmp_path, monkeypatch):
        calls = []

        def mostly_fine(spec):
            calls.append(spec.seed)
            if spec.seed == 2:
                raise SimulationError("deterministic kaboom", cycle=5)
            return well_behaved(spec)

        monkeypatch.setattr("repro.campaign.engine.run_cell", mostly_fine)
        cells = specs(3)
        with pytest.raises(CampaignError):
            execute_cells(cells, cache=CellCache(tmp_path / "cache", salt="s1"))
        first_run_calls = list(calls)

        payloads, stats = execute_cells(
            cells,
            cache=CellCache(tmp_path / "cache", salt="s1"),  # reopened
            failure_mode="continue",
        )
        # No new attempts at all: goods hit the cache, the bad cell is
        # skipped on its stored verdict without burning its retry budget.
        assert calls == first_run_calls
        assert stats.hits == 2 and stats.executed == 0
        assert stats.quarantined == 1
        assert payloads[1] is None

    def test_exhausted_crashing_cell_is_not_quarantined(self, tmp_path, monkeypatch):
        """A cell whose budget runs out on worker crashes is unlucky,
        not condemned: its structured report is stored for
        post-mortems, but the next campaign retries it with a fresh
        budget instead of skipping it forever, and its payload then
        replaces the report."""
        attempts = tmp_path / "attempts"

        def crashing(spec):
            if spec.seed == 2:
                with open(attempts, "a") as fh:
                    fh.write("attempt\n")
                os.kill(os.getpid(), signal.SIGKILL)
            return well_behaved(spec)

        monkeypatch.setattr("repro.campaign.engine.run_cell", crashing)
        cache = CellCache(tmp_path / "cache", salt="s1")
        cells = specs(3)
        payloads, stats = execute_cells(
            cells, workers=2, cache=cache, max_retries=2, failure_mode="continue"
        )
        assert payloads[1] is None
        assert stats.failed == 1 and stats.quarantined == 0
        report = cache.lookup(cells[1])
        assert report.classification == "exhausted" and not report.condemned
        assert len(lines(attempts)) == 2

        _, stats = execute_cells(
            cells, workers=2, cache=cache, max_retries=2, failure_mode="continue"
        )
        # A fresh budget was spent — the cell was not skipped.
        assert len(lines(attempts)) == 4
        assert (stats.hits, stats.quarantined, stats.failed) == (2, 0, 1)

        monkeypatch.setattr("repro.campaign.engine.run_cell", well_behaved)
        payloads, stats = execute_cells(cells, cache=cache)
        assert (stats.hits, stats.executed) == (2, 1)
        assert cache.lookup(cells[1]) == well_behaved(cells[1])

    def test_quarantined_cell_raises_typed_error(self, tmp_path, monkeypatch):
        def always_fails(spec):
            raise SimulationError("kaboom")

        monkeypatch.setattr("repro.campaign.engine.run_cell", always_fails)
        cache = CellCache(tmp_path / "cache", salt="s1")
        cells = specs(1)
        with pytest.raises(CampaignError):
            execute_cells(cells, cache=cache)
        with pytest.raises(CampaignError) as excinfo:
            execute_cells(cells, cache=cache)
        assert isinstance(excinfo.value.cause, QuarantinedCellError)
        assert excinfo.value.attempts == 0

    def test_condemned_cell_is_skipped_without_resume_too(self, tmp_path, monkeypatch):
        calls = []

        def always_fails(spec):
            calls.append(spec.seed)
            raise SimulationError("kaboom")

        monkeypatch.setattr("repro.campaign.engine.run_cell", always_fails)
        cache = CellCache(tmp_path / "cache", salt="s1")
        cells = specs(1)
        execute_cells(cells, cache=cache, failure_mode="continue")
        _, stats = execute_cells(
            cells, cache=cache, resume=False, failure_mode="continue"
        )
        assert len(calls) == 1 and stats.quarantined == 1 and stats.executed == 0

    def test_deleting_the_entry_the_message_names_paroles_the_cell(
        self, tmp_path, monkeypatch
    ):
        """The skip message names the one place the verdict is kept:
        deleting exactly that path makes the next run attempt the cell."""
        calls = []

        def mostly_fine(spec):
            calls.append(spec.seed)
            if spec.seed == 2:
                raise SimulationError("deterministic kaboom", cycle=5)
            return well_behaved(spec)

        monkeypatch.setattr("repro.campaign.engine.run_cell", mostly_fine)
        store = tmp_path / "store"
        campaign = Campaign(name="parole", cells=tuple(specs(3)))
        with pytest.raises(CampaignError):
            campaign.run(cache_dir=store)
        with pytest.raises(CampaignError) as skipped:
            campaign.run(cache_dir=store)
        assert isinstance(skipped.value.cause, QuarantinedCellError)
        assert calls.count(2) == 1
        named = Path(re.search(r"remove (\S+) to retry", str(skipped.value)).group(1))
        assert named == CellCache(store).path_for(specs(3)[1])
        named.unlink()
        with pytest.raises(CampaignError) as retried:
            campaign.run(cache_dir=store)
        assert isinstance(retried.value.cause, SimulationError)
        assert calls.count(2) == 2
        last = list(iter_events(store / "parole.events.jsonl"))[-1]
        assert (last["hits"], last["quarantined"]) == (2, 1)
        assert not (store / "quarantine").exists()


class TestTimeout:
    def test_hung_cell_is_killed_and_does_not_stall_matrix(
        self, tmp_path, monkeypatch
    ):
        def sleepy(spec):
            if spec.seed == 2:
                time.sleep(60)
            return well_behaved(spec)

        monkeypatch.setattr("repro.campaign.engine.run_cell", sleepy)
        cache = CellCache(tmp_path / "cache", salt="s1")
        cells = specs(3)
        start = time.monotonic()
        payloads, stats = execute_cells(
            cells,
            workers=2,
            timeout=0.75,
            max_retries=1,
            cache=cache,
            failure_mode="continue",
        )
        elapsed = time.monotonic() - start
        assert elapsed < 30, "timeout enforcement failed to preempt the hang"
        assert stats.timeouts >= 1
        assert payloads[1] is None
        assert payloads[0] == well_behaved(cells[0])
        assert payloads[2] == well_behaved(cells[2])
        report = cache.lookup(cells[1])
        assert (report.classification, report.attempts) == ("exhausted", 1)
        assert report.error_type == "CellTimeoutError" and not report.condemned

    def test_a_timeout_does_not_condemn_the_cell(self, tmp_path, monkeypatch):
        """A cell that outlives a tight ``timeout`` twice ends
        ``exhausted``.  ``timeout`` is not in the cell's key, so the next
        campaign, with room to finish, runs the cell rather than
        skipping it on the first one's verdict."""

        def slow(spec):
            time.sleep(1.0)
            return well_behaved(spec)

        monkeypatch.setattr("repro.campaign.engine.run_cell", slow)
        cache = CellCache(tmp_path / "cache", salt="s1")
        cells = specs(1)
        payloads, stats = execute_cells(
            cells, timeout=0.5, max_retries=2, cache=cache, failure_mode="continue"
        )
        assert payloads == [None] and stats.timeouts == 2
        report = cache.lookup(cells[0])
        assert (report.classification, report.attempts) == ("exhausted", 2)
        assert not report.condemned

        payloads, stats = execute_cells(
            cells, timeout=30, max_retries=2, cache=cache, failure_mode="continue"
        )
        assert (stats.executed, stats.quarantined, stats.failed) == (1, 0, 0)
        assert payloads == [well_behaved(cells[0])] == [cache.lookup(cells[0])]

    def test_a_timeout_kills_only_its_own_cell(self, tmp_path, monkeypatch):
        """Seed 1 hangs past its deadline while seed 3 is running: only
        seed 1's worker is killed.  The bystander keeps running until
        that worker is gone, started exactly once, and completes on
        attempt 1.

        The order of events is staged on the supervisor's own receipts
        and on sentinel files, not sleeps: the supervisor's clock only
        advances when it has received seed 2's result or a worker
        reports it got somewhere, so the hung cell's deadline cannot
        pass before the bystander is running, however loaded the box
        is.
        """
        hung = tmp_path / "hung-cell-pid"
        bystander = tmp_path / "bystander-starts"
        log = tmp_path / "events.jsonl"
        received = set()

        def clock():
            # The supervisor's time: 0.0 until it has received seed 2's
            # result, 1.9 until the bystander runs, 2.9 from then on.
            # Seeds 1 and 2 are sent, and their deadlines read, before
            # seed 2's result can arrive, so at 0.0 (deadline 2.0);
            # seed 3 only after it, so at 1.9 (deadline 3.9).  At 2.9
            # exactly one deadline has passed, and it cannot pass
            # before the bystander is running.  (Not on the hung
            # cell's own sentinel: a worker can start between its send
            # and the clock read that arms its deadline.)
            return 1.9 * (2 in received) + 1.0 * bystander.exists()

        def note_receipt(index, spec, payload, was_hit):
            received.add(spec.seed)

        def staged(spec):
            if spec.seed == 1:
                pid = tmp_path / "pid"
                pid.write_text(str(os.getpid()))
                pid.replace(hung)
                time.sleep(60)  # the genuine timeout
            if spec.seed == 2:
                while not hung.exists():
                    time.sleep(0.01)  # frees the slot for seed 3
            if spec.seed == 3:
                with open(bystander, "a") as fh:
                    fh.write("started\n")
                # Running when seed 1's kill lands; done once it has.
                hung_pid, deadline = int(hung.read_text()), time.monotonic() + 30
                while alive(hung_pid) and time.monotonic() < deadline:
                    time.sleep(0.01)
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
            log_path=log,
            on_result=note_receipt,
        )
        assert lines(bystander) == ["started"]
        assert (stats.timeouts, stats.failed) == (1, 1)
        assert payloads == [None] + [well_behaved(spec) for spec in cells[1:]]
        done = {
            e["seed"]: e["attempts"]
            for e in iter_events(log)
            if e.get("status") == "done"
        }
        assert done == {2: 1, 3: 1}

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
        deadline: every ``wait`` blocks until a worker reports (no
        wait timeout without a deadline), at most ``workers`` cells
        are in flight, and cells are sent in declared order."""
        from multiprocessing.connection import Connection

        from repro.campaign import engine

        monkeypatch.setattr("repro.campaign.engine.run_cell", well_behaved)
        waits = []
        sent = []
        wait, send = engine.wait, Connection.send

        def counting_wait(connections, timeout=None):
            waits.append((len(connections), timeout))
            return wait(connections, timeout)

        def recording_send(connection, obj):
            sent.append(obj)
            return send(connection, obj)

        monkeypatch.setattr(engine, "wait", counting_wait)
        monkeypatch.setattr(Connection, "send", recording_send)
        cells = specs(200)
        payloads, stats = execute_cells(cells, workers=2)
        assert payloads == [well_behaved(spec) for spec in cells]
        assert stats.executed == 200 and stats.retried == 0
        assert sent == cells
        assert len(waits) <= len(cells) + 5
        assert {timeout for _, timeout in waits} == {None}
        assert max(inflight for inflight, _ in waits) <= 2


#: Two ``workers=2`` campaigns: in the first, seed 2 SIGKILLs its pool
#: worker on every attempt; the second SIGTERMs its own process group
#: (itself and its pool workers) at the first result.
_TERMINATED_GROUP_SCRIPT = """
import os, signal, time
import repro.campaign.engine as engine
from repro.campaign import CellSpec, execute_cells

def cell(spec):
    if spec.seed == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(0.2)
    return {"seed": spec.seed}

def terminate_group(index, spec, payload, was_hit):
    os.killpg(os.getpgrp(), signal.SIGTERM)

engine.run_cell = cell
cells = [CellSpec.parsec("canneal", "No-PG", instructions=100, seed=s) for s in (1, 2, 3, 4)]
execute_cells(cells, workers=2, failure_mode="continue")
execute_cells(cells[2:] + cells[:1], workers=2, on_result=terminate_group)
"""


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

    def test_pool_workers_print_no_tracebacks(self, tmp_path):
        """A campaign whose cell SIGKILLs its worker, then a second one
        whose whole process group is SIGTERMed mid-run (a service
        manager stopping it): the only traceback on stderr is the
        campaign's own ``CampaignInterrupted``.  A pool worker never
        runs the engine's signal handler, and nothing complains about
        a worker it lost."""
        proc = subprocess.run(
            [sys.executable, "-c", _TERMINATED_GROUP_SCRIPT],
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
            timeout=120,
        )
        stderr = proc.stderr
        assert stderr.count("Traceback") == 1, stderr
        assert stderr.rstrip().endswith(
            "CampaignInterrupted: campaign interrupted by signal 15"
        ), stderr

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
