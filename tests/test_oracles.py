"""The oracles stay independent of the code they check."""

import ast
from pathlib import Path

import oracles


def test_oracles_import_nothing_from_the_library():
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append(node.module or "")
    assert "itertools" in modules
    assert [m for m in modules if m.split(".")[0] == "cayleyforge"] == []
