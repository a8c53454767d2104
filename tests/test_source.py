"""Static checks on the package source."""

from __future__ import annotations

import ast
import pathlib

import pytest

import epcodes

PACKAGE = pathlib.Path(epcodes.__file__).resolve().parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name the module imports and never reads.

    A name is read when it appears as a bare name anywhere in the module,
    annotations included; `import a.b` binds and is read as `a`.
    """
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_the_check_finds_an_unused_import():
    source = ("from functools import reduce\nfrom operator import xor\n"
              "import os.path\nimport struct as s\n"
              "def f(x: s.Struct):\n    return reduce(len, x)\n")
    assert unused_imports(source) == [(2, "xor"), (3, "os")]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
