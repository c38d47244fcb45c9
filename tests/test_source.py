"""Source-level rules for the package: invariants are explicit exceptions,
never `assert` statements, which `python -O` strips; numpy is the only
runtime dependency beyond the standard library; `space.py` and `risk.py`
import no numpy; and every source file parses as Python 3.10."""

import ast
import sys
from pathlib import Path

import pytest

import scenariosearch

PACKAGE = Path(scenariosearch.__file__).parent
REPO = Path(__file__).parents[1]
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


def test_sources_parse_as_python_3_10():
    """Python 3.10, the floor of requires-python, parses every source file
    under src/, tests/ and bench/. This checks the grammar only (no `except*`,
    no `type` statement), not which stdlib APIs a file calls."""
    found = []
    for path in sorted(p for top in ("src", "tests", "bench")
                       for p in (REPO / top).rglob("*.py")):
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            found.append(f"{path.relative_to(REPO)}:{exc.lineno}: {exc.msg}")
    assert found == [], f"syntax newer than Python 3.10: {found}"
    with pytest.raises(SyntaxError):  # the check does reject 3.11 grammar
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=(3, 10))
