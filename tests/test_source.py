"""Source-level rules for the package: invariants are explicit exceptions,
never `assert` statements, which `python -O` strips; numpy is the only
runtime dependency beyond the standard library; and `space.py` and `risk.py`
import no numpy."""

import ast
import sys
from pathlib import Path

import pytest

import scenariosearch

PACKAGE = Path(scenariosearch.__file__).parent
TREES = {path.name: ast.parse(path.read_text(), filename=str(path))
         for path in sorted(PACKAGE.glob("*.py"))}


def test_no_assert_statements():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements in the package: {found}"


def absolute_imports(tree):
    """(line, module) for every absolute import in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_imports_only_stdlib_and_numpy():
    allowed = sys.stdlib_module_names | {"numpy"}
    found = [
        f"{name}:{line}: {module}"
        for name, tree in TREES.items()
        for line, module in absolute_imports(tree)
        if module.partition(".")[0] not in allowed
    ]
    assert found == [], f"imports beyond the standard library and numpy: {found}"


@pytest.mark.parametrize("name", ["space.py", "risk.py"])
def test_module_imports_no_numpy(name):
    """The axis tables and the risk bands are plain Python: these modules
    keep no numpy copy of them."""
    found = [f"{name}:{line}: {module}"
             for line, module in absolute_imports(TREES[name])
             if module.partition(".")[0] == "numpy"]
    assert found == []
