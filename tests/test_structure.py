"""Layout rules of the package that no behaviour test sees."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cfchain"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def test_no_private_names_cross_modules():
    # a name one module shares with another is part of its interface:
    # it goes public, or it moves to the module that uses it
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.ImportFrom)
                    and (node.level > 0 or (node.module or "").split(".")[0]
                         == "cfchain")):
                found += [f"{path.name}: from {'.' * node.level}"
                          f"{node.module or ''} import {alias.name}"
                          for alias in node.names if _private(alias.name)]
    assert found == []
