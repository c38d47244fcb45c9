"""Source-level rules for the package: invariants are explicit exceptions,
never `assert` statements, which `python -O` strips."""

import ast
from pathlib import Path

import scenariosearch

PACKAGE = Path(scenariosearch.__file__).parent


def test_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements in the package: {found}"
