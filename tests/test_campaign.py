"""Tests for the declarative campaign engine.

Covers the cell-spec hashing contract, the content-addressed cache
(hit / miss / stale-salt / corrupt-entry paths), the executor
(ordering, parallel equivalence, retry, event log), resuming from the
store alone and the shared CLI plumbing.
"""

import builtins
import dataclasses
import inspect
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro.campaign
from repro.campaign import (
    Campaign,
    CampaignError,
    CampaignStats,
    CellCache,
    CellSpec,
    EventLog,
    decode_payload,
    encode_payload,
    execute_cells,
    freeze_items,
    iter_events,
    merge_event_streams,
    run_cell,
)
from repro.cli import ENGINE_OPTION_KEYS, campaign_argparser, engine_options
from repro.experiments.common import CANONICAL_INSTRUCTIONS, RunRecord, net_static
from repro.noc import Activity, NoCConfig
from repro.noc.errors import SimulationError
from repro.power import DEFAULT_CONSTANTS, PowerConstants, account


#: A cell store written by the parent commit's ``CellCache.put``
#: (salt ``"parent-format"``; one RunRecord entry, one mapping entry).
PARENT_STORE = Path(__file__).parent / "fixtures" / "parent_store"


def make_record(**overrides):
    base = dict(
        workload="w",
        scheme="No-PG",
        execution_time=1000,
        avg_packet_latency=30.0,
        avg_total_latency=33.0,
        avg_blocked_routers=0.5,
        avg_wakeup_wait=1.0,
        injection_rate=0.01,
        dynamic_energy=0.2,
        static_energy=1.0,
        overhead_energy=0.25,
        cycles=1000,
    )
    base.update(overrides)
    return RunRecord(**base)


class TestCellSpec:
    def test_hashable_and_usable_as_dict_key(self):
        a = CellSpec.parsec("canneal", "No-PG")
        b = CellSpec.parsec("canneal", "No-PG")
        assert a == b
        assert {a: 1}[b] == 1

    def test_defaults_use_canonical_instructions(self):
        spec = CellSpec.parsec("canneal", "No-PG")
        assert spec.instructions == CANONICAL_INSTRUCTIONS

    def test_canonical_json_stable_under_kwarg_order(self):
        kw1 = freeze_items({"wakeup_latency": 8, "punch_hops": 3})
        kw2 = freeze_items({"punch_hops": 3, "wakeup_latency": 8})
        a = CellSpec.parsec("canneal", "PowerPunch-PG")
        a = CellSpec(**{**a.__dict__, "scheme_kwargs": kw1})
        b = CellSpec(**{**a.__dict__, "scheme_kwargs": kw2})
        assert a.canonical_json() == b.canonical_json()

    def test_canonical_json_distinguishes_specs(self):
        a = CellSpec.parsec("canneal", "No-PG", seed=1)
        b = CellSpec.parsec("canneal", "No-PG", seed=2)
        assert a.canonical_json() != b.canonical_json()

    def test_config_round_trips_through_items(self):
        cfg = NoCConfig(width=4, height=4, router_stages=4)
        spec = CellSpec.synthetic("uniform_random", 0.01, "No-PG", config=cfg)
        assert spec.build_config() == cfg
        assert NoCConfig.from_items(cfg.to_items()) == cfg

    def test_default_config_items_empty(self):
        assert NoCConfig().to_items() == ()

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            CellSpec(kind="mystery", workload="w")


class TestPayloadCodec:
    def test_run_record_round_trip(self):
        rec = make_record()
        decoded = decode_payload(encode_payload(rec))
        assert decoded == rec
        assert decoded.net_static_energy == pytest.approx(1.25)
        assert decoded.total_energy == pytest.approx(1.45)

    def test_mapping_round_trip(self):
        payload = {"latency": 31.5, "wake_events": 7}
        assert decode_payload(encode_payload(payload)) == payload


class TestCellCache:
    def spec(self):
        return CellSpec.parsec("canneal", "No-PG", instructions=300)

    def test_miss_then_hit(self, tmp_path):
        cache = CellCache(str(tmp_path), salt="s1")
        spec = self.spec()
        assert cache.get(spec) is None
        cache.put(spec, make_record())
        assert cache.get(spec) == make_record()

    def test_stale_salt_is_a_miss(self, tmp_path):
        spec = self.spec()
        CellCache(str(tmp_path), salt="s1").put(spec, make_record())
        assert CellCache(str(tmp_path), salt="s2").get(spec) is None
        # The old entry is untouched, just unreachable under the new salt.
        assert CellCache(str(tmp_path), salt="s1").get(spec) == make_record()

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        cache = CellCache(str(tmp_path), salt="s1")
        spec = self.spec()
        cache.put(spec, make_record())
        path = cache.path_for(spec)
        path.write_text("{ corrupt")
        assert cache.get(spec) is None

    def test_distinct_specs_distinct_keys(self, tmp_path):
        cache = CellCache(str(tmp_path), salt="s1")
        a = CellSpec.parsec("canneal", "No-PG")
        b = CellSpec.parsec("canneal", "ConvOpt-PG")
        assert cache.key_for(a) != cache.key_for(b)

    def test_concurrent_writers_same_key_never_corrupt(self, tmp_path):
        """Two processes hammering put() on the same entry: a reader
        polling throughout must only ever observe a complete entry
        (atomic rename with per-key temp names), and no temp files may
        be left behind."""
        import multiprocessing

        root = str(tmp_path)
        spec = self.spec()
        cache = CellCache(root, salt="s1")
        cache.put(spec, make_record())
        writers = [
            multiprocessing.Process(target=_hammer_cache_put, args=(root, 40))
            for _ in range(2)
        ]
        for proc in writers:
            proc.start()
        try:
            while any(proc.is_alive() for proc in writers):
                assert cache.get(spec) == make_record()
        finally:
            for proc in writers:
                proc.join()
        assert [proc.exitcode for proc in writers] == [0, 0]
        assert cache.get(spec) == make_record()
        from pathlib import Path

        assert not list(Path(root).rglob("*.tmp"))


    def test_key_the_caller_holds_is_the_address(self, tmp_path, monkeypatch):
        """``get``/``put`` with ``key_for(spec)`` passed in are the
        one-argument calls minus the hash."""
        spec = self.spec()
        for cache in (CellCache(str(tmp_path), salt="s1"), CellCache(None, salt="s1")):
            key = cache.key_for(spec)
            monkeypatch.setattr(
                CellSpec, "cache_key", lambda *a: pytest.fail("hashed again")
            )
            assert cache.get(spec, key) is None
            cache.put(spec, make_record(), key)
            assert cache.get(spec, key) == make_record()
            monkeypatch.undo()
            assert cache.get(spec) == make_record()
        assert (
            CellCache(str(tmp_path), salt="s1").path_for(spec)
            == tmp_path / key[:2] / f"{key}.json"
        )

    def test_parent_format_entries_are_hits(self):
        """``tests/fixtures/parent_store`` was written by the parent
        commit's ``put`` (text mode, ``indent=1``): still the same
        address, still a hit, payload equal."""
        entries = sorted(PARENT_STORE.glob("*/*.json"))
        assert len(entries) == 2
        cache = CellCache(PARENT_STORE, salt="parent-format")
        kinds = set()
        for entry in entries:
            text = entry.read_text()
            assert text.startswith('{\n "salt"')  # the indented form
            doc = json.loads(text)
            spec = CellSpec.from_canonical(doc["spec"])
            assert cache.path_for(spec) == entry
            payload = cache.get(spec)
            assert payload == decode_payload(doc["payload"])
            kinds.add(type(payload))
        assert kinds == {RunRecord, dict}

    def test_new_entries_are_compact_json_of_the_same_layout(self, tmp_path):
        cache = CellCache(tmp_path, salt="s1")
        spec = self.spec()
        assert cache.put(spec, make_record()) == cache.path_for(spec)
        raw = cache.path_for(spec).read_bytes()
        assert b"\n" not in raw and b", " not in raw and b'": ' not in raw
        doc = json.loads(cache.path_for(spec).read_text())
        assert list(doc) == ["salt", "spec", "payload"]
        assert doc["salt"] == "s1" and doc["spec"] == spec.canonical()
        assert decode_payload(doc["payload"]) == make_record()

    @pytest.mark.parametrize(
        "damage",
        [
            b"",
            b'{"salt": "s1", "spec": {}, "payload": {"type": "run_rec',
            b"\x80\xfe\x00\xff binary garbage \x9c",
            b"[]",
            b"null",
            b'"payload"',
            b"{}",
            b'{"payload": 5}',
            b'{"payload": {"type": "mapping"}}',
            b'{"payload": {"type": "run_record", "data": {"bogus": 1}}}',
            b'{"payload": {"type": "run_record", "data": [1, 2]}}',
            None,  # a directory where the entry should be
        ],
    )
    def test_unusable_entries_are_misses_and_get_overwritten(self, tmp_path, damage):
        cache = CellCache(tmp_path, salt="s1")
        spec = self.spec()
        path = cache.path_for(spec)
        path.parent.mkdir(parents=True)
        if damage is None:
            path.mkdir()
            assert cache.get(spec) is None
            return
        path.write_bytes(damage)
        assert cache.get(spec) is None
        cache.put(spec, make_record())
        assert cache.get(spec) == make_record()

    def test_put_heals_a_shard_wiped_under_a_live_cache(self, tmp_path):
        cache = CellCache(tmp_path / "store", salt="s1")
        spec = self.spec()
        cache.put(spec, make_record())
        shutil.rmtree(tmp_path / "store")
        assert cache.get(spec) is None
        cache.put(spec, make_record())
        assert cache.get(spec) == make_record()


def _hammer_cache_put(root, iterations):
    """Worker for the concurrent-writer stress test (module-level so it
    pickles under any multiprocessing start method)."""
    cache = CellCache(root, salt="s1")
    spec = CellSpec.parsec("canneal", "No-PG", instructions=300)
    for _ in range(iterations):
        cache.put(spec, make_record())


class TestExecuteCells:
    def cells(self):
        return [
            CellSpec.synthetic(
                "uniform_random", 0.01, scheme, warmup=100, measurement=300
            )
            for scheme in ("No-PG", "PowerPunch-PG")
        ]

    def test_results_in_declared_order(self):
        payloads, stats = execute_cells(self.cells())
        assert [p.scheme for p in payloads] == ["No-PG", "PowerPunch-PG"]
        assert stats.total == 2 and stats.executed == 2 and stats.hits == 0

    def test_parallel_matches_sequential(self):
        seq, _ = execute_cells(self.cells())
        par, _ = execute_cells(self.cells(), workers=2)
        assert par == seq

    def test_cache_hits_on_second_run(self, tmp_path):
        cache = CellCache(str(tmp_path), salt="s1")
        cells = self.cells()
        _, cold = execute_cells(cells, cache=cache)
        warm_payloads, warm = execute_cells(cells, cache=cache)
        assert cold.executed == 2 and cold.hits == 0
        assert warm.executed == 0 and warm.hits == 2
        assert [p.scheme for p in warm_payloads] == ["No-PG", "PowerPunch-PG"]

    def test_no_resume_recomputes(self, tmp_path):
        cache = CellCache(str(tmp_path), salt="s1")
        cells = self.cells()
        execute_cells(cells, cache=cache)
        _, stats = execute_cells(cells, cache=cache, resume=False)
        assert stats.executed == 2 and stats.hits == 0

    def test_event_log_written(self, tmp_path):
        log = tmp_path / "events.jsonl"
        execute_cells(self.cells(), log_path=str(log), name="unit")
        events = [json.loads(line) for line in log.read_text().splitlines()]
        kinds = [e["event"] for e in events]
        assert kinds[0] == "campaign-start"
        assert kinds[-1] == "campaign-end"
        statuses = [e["status"] for e in events if e["event"] == "cell"]
        assert statuses.count("done") == 2
        assert events[0]["name"] == "unit"
        assert events[-1]["executed"] == 2
        assert all("ts" in e for e in events)


class TestOneAddressPerCell:
    """A cell is hashed once per run and the store is asked by key."""

    N = 24

    def cells(self):
        return [
            CellSpec.parsec("canneal", "No-PG", instructions=100, seed=seed)
            for seed in range(self.N)
        ]

    @pytest.fixture
    def counts(self, tmp_path, monkeypatch):
        """``cache_key`` calls, and ``open`` calls under ``tmp_path``."""
        counts = {"hash": 0, "open": 0}
        real_key, real_open = CellSpec.cache_key, builtins.open

        def counting_key(spec, salt):
            counts["hash"] += 1
            return real_key(spec, salt)

        def counting_open(file, *args, **kwargs):
            if str(file).startswith(str(tmp_path)):
                counts["open"] += 1
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(CellSpec, "cache_key", counting_key)
        monkeypatch.setattr(builtins, "open", counting_open)
        monkeypatch.setattr(
            "repro.campaign.engine.run_cell", lambda spec: {"seed": spec.seed}
        )
        return counts

    def test_cold_then_warm_hash_and_open_once_per_cell(self, tmp_path, counts):
        cells = self.cells()
        _, cold = execute_cells(cells, cache=CellCache(tmp_path / "store", salt="s1"))
        assert cold.executed == self.N
        assert counts == {"hash": self.N, "open": self.N}  # N misses, N puts by key

        counts.update(hash=0, open=0)
        payloads, warm = execute_cells(
            cells, cache=CellCache(tmp_path / "store", salt="s1")
        )
        assert warm.hits == self.N and warm.executed == 0
        assert counts == {"hash": self.N, "open": self.N}
        assert payloads == [{"seed": spec.seed} for spec in cells]

    def test_log_and_store_reuse_the_key(self, tmp_path, counts):
        """Everything keyed like the cache is handed the same string."""
        cells = self.cells()
        log_path = tmp_path / "events.jsonl"
        cache = CellCache(tmp_path / "store", salt="s1")
        for _ in ("cold", "warm"):
            counts["hash"] = 0
            execute_cells(cells, cache=cache, log_path=log_path)
            assert counts["hash"] == self.N
        keys = [cache.key_for(spec) for spec in cells]
        events = [e for e in iter_events(log_path) if e["event"] == "cell"]
        assert [e["key"] for e in events] == keys + keys
        assert [e["status"] for e in events] == ["done"] * self.N + ["hit"] * self.N

    def test_a_key_is_only_ever_paired_with_its_own_cell(self, tmp_path, counts):
        """Shuffle the declared order of a stored sweep: payload *i* of
        the warm run is still the one stored for spec *i*."""
        cells = self.cells()
        cache = CellCache(tmp_path / "store", salt="s1")
        execute_cells(cells, cache=cache)
        shuffled = cells[:]
        random.Random(5).shuffle(shuffled)
        assert shuffled != cells
        payloads, stats = execute_cells(shuffled, cache=cache)
        assert stats.hits == self.N
        assert payloads == [{"seed": spec.seed} for spec in shuffled]
        # ... and a sweep that repeats a cell answers each copy.
        payloads, _ = execute_cells(cells[:3] + cells[:3], cache=cache)
        assert payloads == [{"seed": spec.seed} for spec in cells[:3]] * 2


class TestEventLog:
    def test_seq_monotonic_and_host_stamped(self, tmp_path):
        path = tmp_path / "host.events.jsonl"
        log = EventLog(path, host="w0")
        for i in range(3):
            log.emit({"event": "tick", "i": i})
        log.close()
        events = list(iter_events(path))
        assert [e["seq"] for e in events] == [0, 1, 2]
        assert all(e["host"] == "w0" for e in events)
        assert all("ts" in e for e in events)
        # Reopening appends; seq restarts per EventLog instance by
        # design (merge order ties break on ts first, then host/seq).
        log2 = EventLog(path, host="w0")
        log2.emit({"event": "tock"})
        log2.close()
        assert len(list(iter_events(path))) == 4

    def test_iter_events_skips_torn_trailing_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        log.emit({"event": "a"})
        log.emit({"event": "b"})
        log.close()
        with open(path, "a") as fh:
            fh.write('{"event": "c", "status"')  # torn write, no newline
        assert [e["event"] for e in iter_events(path)] == ["a", "b"]
        # Missing file degrades to an empty stream, not an error.
        assert list(iter_events(tmp_path / "missing.jsonl")) == []

    def test_merge_event_streams_orders_by_ts_host_seq(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        a.write_text(
            json.dumps({"ts": 2.0, "seq": 0, "host": "a", "event": "late"})
            + "\n"
            + json.dumps({"ts": 1.0, "seq": 1, "host": "a", "event": "early"})
            + "\n"
        )
        b.write_text(
            json.dumps({"ts": 1.0, "seq": 0, "host": "b", "event": "tie"})
            + "\n"
        )
        merged = merge_event_streams([a, b])
        assert [e["event"] for e in merged] == ["early", "tie", "late"]
        # Deterministic regardless of the order the paths are given in.
        assert merge_event_streams([b, a]) == merged


class TestRetry:
    @pytest.mark.parametrize(
        "error",
        [SimulationError("first attempt"), RuntimeError("bug")],
        ids=lambda error: type(error).__name__,
    )
    def test_a_raising_cell_is_not_retried(self, monkeypatch, error):
        """A cell is deterministic: a second attempt would only repeat
        the first, so whatever the cell raises is the verdict, whatever
        budget is left."""
        spec = CellSpec.parsec("canneal", "No-PG", instructions=100)
        calls = []

        def flaky(s):
            calls.append(s)
            if len(calls) == 1:
                raise error
            return make_record()

        monkeypatch.setattr("repro.campaign.engine.run_cell", flaky)
        payloads, stats = execute_cells([spec], max_retries=4, failure_mode="continue")
        assert payloads == [None]
        assert len(calls) == 1
        assert (stats.retried, stats.executed, stats.failed) == (0, 0, 1)

    def test_failed_cell_raises_campaign_error_after_one_attempt(self, monkeypatch):
        spec = CellSpec.parsec("canneal", "No-PG", instructions=100)

        def always_fails(s):
            raise SimulationError("persistent")

        monkeypatch.setattr("repro.campaign.engine.run_cell", always_fails)
        with pytest.raises(CampaignError) as exc:
            execute_cells([spec], max_retries=2)
        assert exc.value.spec == spec
        assert exc.value.attempts == 1


class TestCampaign:
    def test_run_returns_payloads_and_records_stats(self, tmp_path):
        cells = (
            CellSpec.synthetic(
                "uniform_random", 0.01, "No-PG", warmup=100, measurement=300
            ),
        )
        campaign = Campaign(name="unit", cells=cells)
        [record] = campaign.run(cache_dir=str(tmp_path))
        assert record.avg_packet_latency > 0
        assert campaign.last_stats.total == 1
        # Default event log lands next to the cache.
        assert list(tmp_path.glob("*.events.jsonl"))


class TestStoreIsTheRecord:
    """A finished cell is recorded once, in the store: resuming is a
    store hit, and no second record is written or read beside it."""

    N = 6

    def cells(self):
        return tuple(
            CellSpec.parsec("canneal", "No-PG", instructions=100, seed=seed)
            for seed in range(self.N)
        )

    @pytest.fixture(autouse=True)
    def instant_cells(self, monkeypatch):
        monkeypatch.setattr(
            "repro.campaign.engine.run_cell", lambda spec: {"seed": spec.seed}
        )

    def test_resume_hits_exactly_the_cells_a_cut_short_run_stored(self, tmp_path):
        cells = self.cells()
        stored = cells[:2] + cells[4:5]
        Campaign(name="cut", cells=stored).run(cache_dir=tmp_path)
        campaign = Campaign(name="cut", cells=cells)
        payloads = campaign.run(cache_dir=tmp_path)
        assert payloads == [{"seed": spec.seed} for spec in cells]
        assert campaign.last_stats.hits == len(stored)
        assert campaign.last_stats.executed == self.N - len(stored)
        events = [
            e for e in iter_events(tmp_path / "cut.events.jsonl") if e["event"] == "cell"
        ][len(stored):]
        status = {e["seed"]: e["status"] for e in events}
        assert status == {
            spec.seed: "hit" if spec in stored else "done" for spec in cells
        }

    def test_a_leftover_checkpoint_file_is_never_read(self, tmp_path):
        """A ``<name>.checkpoint.json`` from an older release, with the
        current salt and every key, answers nothing and is left as is."""
        cells = self.cells()
        cache = CellCache(tmp_path)
        leftover = tmp_path / "unit.checkpoint.json"
        leftover.write_text(
            json.dumps(
                {
                    "version": 1,
                    "name": "unit",
                    "salt": cache.salt,
                    "completed": self.N,
                    "entries": {
                        cache.key_for(spec): encode_payload({"seed": -1})
                        for spec in cells
                    },
                }
            )
        )
        before = leftover.read_bytes()
        campaign = Campaign(name="unit", cells=cells)
        payloads = campaign.run(cache_dir=tmp_path)
        assert payloads == [{"seed": spec.seed} for spec in cells]
        assert campaign.last_stats.executed == self.N
        assert campaign.last_stats.hits == 0
        assert leftover.read_bytes() == before

    def test_without_a_store_a_rerun_executes_every_cell(self, tmp_path):
        campaign = Campaign(name="unit", cells=self.cells())
        for _ in ("first", "again"):
            payloads = campaign.run(log_path=tmp_path / "events.jsonl")
            assert payloads == [{"seed": spec.seed} for spec in self.cells()]
            assert campaign.last_stats.executed == self.N
            assert campaign.last_stats.hits == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["events.jsonl"]

    def test_no_checkpoint_surface_is_left(self, tmp_path):
        assert not hasattr(repro.campaign, "CampaignCheckpoint")
        for function in (execute_cells, Campaign.run):
            names = inspect.signature(function).parameters
            assert not [n for n in names if "checkpoint" in n], function
        assert "restored" not in {f.name for f in dataclasses.fields(CampaignStats)}
        Campaign(name="unit", cells=self.cells()).run(cache_dir=tmp_path)
        events = list(iter_events(tmp_path / "unit.events.jsonl"))
        assert "checkpoint" not in events[0]
        assert {e["event"] for e in events} == {"campaign-start", "cell", "campaign-end"}
        assert {e["status"] for e in events if e["event"] == "cell"} == {"done"}
        assert not list(tmp_path.rglob("*.checkpoint.json"))


class TestRunCell:
    def test_metrics_cell_payload_keys(self):
        spec = CellSpec.synthetic(
            "uniform_random",
            0.01,
            "PowerPunch-PG",
            warmup=100,
            measurement=300,
            drain=False,
            metrics=True,
        )
        payload = run_cell(spec)
        assert list(payload) == [
            "latency",
            "wait",
            "activity",
            "delivered",
            "detoured",
        ]
        # The energy is not in the payload: its window's activity is.
        assert payload["activity"]["cycles"] == 300 and payload["activity"]["gated"]

    def test_metrics_payload_prices_the_same_after_the_store(self):
        spec = CellSpec.synthetic(
            "uniform_random", 0.01, "ConvOpt-PG", warmup=100, measurement=300,
            drain=False, metrics=True,
        )
        payload = run_cell(spec)
        stored = decode_payload(json.loads(json.dumps(encode_payload(payload))))
        assert stored == payload
        for constants in (DEFAULT_CONSTANTS, PowerConstants(break_even_cycles=40)):
            fresh = account(Activity(**payload["activity"]), constants)
            assert account(Activity(**stored["activity"]), constants) == fresh
            assert net_static(stored, constants) == fresh.net_static > 0

    def test_scheme_attrs_applied(self):
        from repro.campaign import build_scheme

        spec = CellSpec.synthetic(
            "uniform_random",
            0.01,
            "PowerPunch-PG",
            metrics=True,
        )
        spec = CellSpec(
            **{**spec.__dict__, "scheme_attrs": freeze_items({"slack2": False})}
        )
        scheme = build_scheme(spec)
        assert scheme.slack2 is False

    def test_unknown_scheme_attr_raises(self):
        from repro.campaign import build_scheme

        spec = CellSpec.synthetic("uniform_random", 0.01, "PowerPunch-PG")
        spec = CellSpec(
            **{**spec.__dict__, "scheme_attrs": freeze_items({"bogus_knob": 1})}
        )
        with pytest.raises(TypeError):
            build_scheme(spec)


class TestSharedArgparser:
    def test_engine_flags_present(self):
        parser = campaign_argparser("desc")
        args = parser.parse_args(
            [
                "--workers", "3", "--cache-dir", "/tmp/c", "--no-resume",
                "--timeout", "12.5", "--max-retries", "4", "--hosts", "local:3",
            ]
        )
        assert engine_options(args) == {
            "workers": 3,
            "cache_dir": "/tmp/c",
            "resume": False,
            "timeout": 12.5,
            "max_retries": 4,
            "hosts": "local:3",
            "config_overrides": (),
        }

    def test_defaults(self):
        args = campaign_argparser("desc").parse_args([])
        assert engine_options(args) == {
            "workers": 1,
            "cache_dir": None,
            "resume": True,
            "timeout": None,
            "max_retries": 2,
            "hosts": None,
            "config_overrides": (),
        }
        assert tuple(engine_options(args)) == ENGINE_OPTION_KEYS

    def test_a_records_file_is_not_a_cache_dir(self):
        # No abbreviations: a script still passing the retired
        # ``--cache FILE`` must not have it read as ``--cache-dir FILE``.
        with pytest.raises(SystemExit):
            campaign_argparser("desc").parse_args(["--cache", "suite.json"])

    def test_the_cache_dir_is_the_only_record_directory(self):
        parser = campaign_argparser("desc")
        flags = [flag for action in parser._actions for flag in action.option_strings]
        assert [flag for flag in flags if flag.endswith("-dir")] == ["--cache-dir"]
        # The failure ledger's directory flag is gone, not ignored.
        record = "quarantine"
        with pytest.raises(SystemExit):
            parser.parse_args([f"--{record}-dir", "/tmp/q"])
        assert not [key for key in ENGINE_OPTION_KEYS if record in key]


def test_the_campaign_layer_imports_neither_argparse_nor_the_experiments():
    """``repro.campaign`` sits below the experiments layer and parses no
    command line: a fresh interpreter importing it loads neither."""
    probe = (
        "import sys, repro.campaign; print(sorted(name for name in sys.modules "
        "if name == 'argparse' or name.startswith('repro.experiments')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={"PYTHONPATH": str(Path(repro.campaign.__file__).parents[2]), "PATH": ""},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
