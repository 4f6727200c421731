"""A dead-import check over the package's modules, by the stdlib ``ast``.

A deletion can leave an import behind that nothing reads; no linter runs
on the package, so this test finds such names.  ``__init__.py`` is left
out: its imports are the package's public names.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dirichletlab"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names ``source`` binds by an import and never reads: a name is
    read when it is loaded, bare or as the head of an attribute chain,
    anywhere in the module."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_the_check_finds_an_unused_import():
    source = ("import math\nimport numpy as np\nfrom os import path, sep\n"
              "from __future__ import annotations\nx = np.zeros(1) + len(sep)\n")
    assert unused_imports(source) == ["math (line 1)", "path (line 3)"]


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_name_it_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
