"""Content-address stability of campaign cells.

The robustness options (``faults``, ``strict_invariants``, ``watchdog``,
``degradation``, ``dead_router_threshold``) are ``NoCConfig`` fields, hence part of every cell's cache
key — but only when set: a default-option spec must hash to the very
bytes it hashed to before the fields existed.

The content address does not cover ``PYTHONHASHSEED``, so a payload
must not depend on it either: a cell's bytes are the same under any
hash seed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.campaign import CellSpec
from repro.campaign.spec import CELL_KINDS
from repro.noc import NoCConfig

#: ``cache_key(salt="pin")`` of one default-option spec per cell kind,
#: recorded at c68a3b8 (before the robustness options became config
#: fields).  A change here silently invalidates every cache.
PINNED_KEYS = {
    "parsec": "8467e333206d2a6683f30b448a6ab7f413b98bdfbc583c17999d9d4dacefef53",
    "synthetic": "c60c4bd20e9a9206f771395fb1ffc9dd5b41640e95fa258c784a9efe4a322a5c",
    "synthetic_metrics": "b766b5256a90ebbbcecb2d73be1aff774e0d7d1c783ae45aa2495b25733a4c05",
    "reliability": "39f8f28c27701e72562eddbe28ab2476160f324fa45984aecedfab89e08f1bec",
    "guarantees": "dd46df8dbf1c78ac9e89d67ea6bf4bf30879b261a8a3cb251be1f5ca4929ba16",
}


def _pinned_specs():
    return {
        "parsec": CellSpec.parsec("bodytrack", "PowerPunch-PG"),
        "synthetic": CellSpec.synthetic("uniform_random", 0.02, "ConvOpt-PG"),
        "synthetic_metrics": CellSpec.synthetic(
            "transpose", 0.05, "PowerPunch-PG", metrics=True
        ),
        "reliability": CellSpec.reliability(1),
        "guarantees": CellSpec.guarantees("uniform_random", 0.02, "PowerPunch-PG"),
    }


class TestKeyStability:
    def test_default_option_keys_are_pinned(self):
        assert {
            kind: spec.cache_key(salt="pin")
            for kind, spec in _pinned_specs().items()
        } == PINNED_KEYS

    def test_every_cell_kind_is_pinned(self):
        assert set(PINNED_KEYS) == set(CELL_KINDS)

    def test_default_config_emits_none_of_the_option_fields(self):
        for config in (None, NoCConfig(), NoCConfig(width=4, height=4)):
            text = CellSpec.synthetic(
                "uniform_random", 0.02, "No-PG", config=config
            ).canonical_json()
            for name in ("faults", "strict_invariants", "watchdog"):
                assert name not in text

    def test_every_option_is_in_the_content_address(self):
        spec = _pinned_specs()["synthetic"]
        keys = {spec.cache_key("pin")}
        for overrides in (
            {"faults": "punch_drop,rate=0.5"},
            {"strict_invariants": True},
            {"strict_invariants": True, "watchdog": 300},
            {"degradation": "reroute"},
            {"dead_router_threshold": 7},
        ):
            stamped = spec.with_config_overrides(overrides)
            assert CellSpec.from_canonical(
                json.loads(stamped.canonical_json())
            ) == stamped
            keys.add(stamped.cache_key("pin"))
        assert len(keys) == 6
        # An override that restates the default is no override.
        assert spec.with_config_overrides({"degradation": "none"}) == spec


_PAYLOAD_PROBE = """
import json
from repro.campaign import CellSpec
from repro.campaign.cache import encode_payload
from repro.campaign.runner import run_cell
from repro.noc import NoCConfig
cells = (
    CellSpec.synthetic("uniform_random", 0.05, "PowerPunch-PG", warmup=100,
                       measurement=300, config=NoCConfig(width=4, height=4)),
    CellSpec.parsec("bodytrack", "PowerPunch-PG", instructions=300),
)
for spec in cells:
    print(json.dumps(encode_payload(run_cell(spec)), sort_keys=True))
"""


def test_payload_bytes_do_not_depend_on_the_hash_seed():
    """One synthetic and one parsec cell, in two fresh interpreters
    whose string hashing (set and dict-of-str orders) differs."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _PAYLOAD_PROBE],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE,
            text=True,
        )
        for seed in ("1", "2")
    ]
    outputs = [proc.communicate(timeout=120)[0] for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert len(outputs[0].splitlines()) == 2
    assert outputs[0] == outputs[1]
