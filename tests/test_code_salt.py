"""The content address covers every source file a payload depends on.

An edited bound model, quantile estimator or scheme registry served
stale from a cache is the worst failure the campaign
layer has, so the salted file list is checked against what running the
cells actually imports.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.campaign.cache import code_salt, salted_files, tree_salt

ROOT = Path(repro.__file__).parent

_PROBE = """
import json, sys
from repro.campaign import CellSpec, run_cell
from repro.campaign.spec import CELL_KINDS
from repro.noc import NoCConfig

c4 = NoCConfig(width=4, height=4)
short = dict(warmup=20, measurement=60)
window = dict(config=c4, **short)
cells = [
    CellSpec.parsec("swaptions", "PowerPunch-PG", instructions=30),
    CellSpec.synthetic("uniform_random", 0.05, "ConvOpt-PG", **window),
    CellSpec.synthetic("uniform_random", 0.05, "NoRD-like", metrics=True, **short),
    CellSpec.reliability(3, horizon=40, **window),
    CellSpec.guarantees("uniform_random", 0.05, "PowerPunch-PG", **window),
]
assert sorted(cell.kind for cell in cells) == sorted(CELL_KINDS)
for cell in cells:
    run_cell(cell)
print(json.dumps(sorted(
    module.__file__ for name, module in sys.modules.items()
    if name.split(".")[0] == "repro" and getattr(module, "__file__", None)
)))
"""


def test_every_module_a_cell_imports_is_salted():
    """One small cell of every kind, in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env={"PYTHONPATH": str(ROOT.parent), "PATH": ""},
        capture_output=True,
        text=True,
        check=True,
    )
    imported = {Path(path).resolve() for path in json.loads(out.stdout)}
    campaign = (ROOT / "campaign").resolve()
    runner = campaign / "runner.py"
    needed = {p for p in imported if campaign not in p.parents or p == runner}
    assert runner in needed and len(needed) > 40
    missing = needed - {p.resolve() for p in salted_files(ROOT)}
    assert not missing, f"result-affecting sources outside the salt: {sorted(missing)}"


@pytest.mark.parametrize(
    "relative",
    [
        "guarantees/bounds.py",
        "guarantees/checker.py",
        "experiments/common.py",
        "campaign/runner.py",
        "noc/router.py",
    ],
)
def test_touching_a_salted_file_changes_the_salt(tmp_path, relative):
    for path in salted_files(ROOT):
        target = tmp_path / path.relative_to(ROOT)
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(path, target)
    assert tree_salt(tmp_path) == code_salt()
    with open(tmp_path / relative, "a") as fh:
        fh.write("# touched\n")
    assert tree_salt(tmp_path) != code_salt()


def test_unsalted_layers_do_not_invalidate_results():
    """Report formatting, Table 1, the paper's reference numbers, CLI
    plumbing and the engine stay outside."""
    salted = {path.relative_to(ROOT).as_posix() for path in salted_files(ROOT)}
    for relative in (
        "cli.py",
        "viz.py",
        "campaign/engine.py",
        "experiments/reliability.py",
        "experiments/fig12.py",
        "experiments/headline.py",
        "experiments/table1.py",
        "experiments/paper_targets.py",
    ):
        assert (ROOT / relative).exists() and relative not in salted


def test_ci_cache_keys_mirror_the_salt():
    # Every CI job that restores the cell store keys it on code_salt()
    # itself, computed by a step of the same job before the restore, so
    # the key cannot drift from the salted file list.
    workflow = ROOT.parents[1] / ".github" / "workflows" / "ci.yml"
    if not workflow.exists():
        pytest.skip("not running from a repository checkout")
    salt_step = (
        "id: salt\n        run: echo \"salt=$(python -c 'from repro.campaign import code_salt; "
        "print(code_salt())')\" >> \"$GITHUB_OUTPUT\""
    )
    key = "key: cellcache-${{ steps.salt.outputs.salt }}"
    jobs = [job for job in re.split(r"\n  (?=[\w-]+:\n)", workflow.read_text()) if "cellcache-" in job]
    assert len(jobs) == 2
    for job in jobs:
        assert re.findall(r"key: cellcache-.*", job) == [key]
        assert job.count(salt_step) == 1
        assert job.index(salt_step) < job.index(key)
