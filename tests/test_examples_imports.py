"""Every name an example imports from ``repro`` exists.

The examples are not executed by tier-1 (they simulate for minutes);
this resolves their imports so a moved helper breaks a test, not a
reader's first run.
"""

import ast
import importlib
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


def test_the_seven_tours_are_there():
    assert len(EXAMPLES) == 7


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_repro_imports_resolve(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    checked = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (
                    f"{path.name}: cannot import name {alias.name!r} from {node.module!r}"
                )
                checked += 1
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    importlib.import_module(alias.name)
                    checked += 1
    assert checked, f"{path.name} imports nothing from repro"
