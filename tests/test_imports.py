"""Checks over the package's modules, by the stdlib ``ast``.

A deletion can leave an import behind that nothing reads; no linter runs
on the package, so a dead-import check finds such names.  ``__init__.py``
is left out of it: its imports are the package's public names.

Every sum of products has one kernel and every sign one route: a second
dot somewhere, say a held-sign shortcut in ``zeros``, would sum in its own
order, and a second caller of the word mixer would be a second sign route.
A path's signs take two forms, the block stream and one vector: a study
that reads the stream itself keeps its own fill loop beside
``SamplePath._signs``.  So a second check finds every ``dot``, ``matmul``
or ``@`` outside ``summation._row_dots`` and ``evaluation._signed_sums``,
every use of ``paths._mix_words`` outside ``paths._sign_stream``, and
every use of ``paths._sign_stream`` outside ``evaluation._signed_sums``
and ``paths.SamplePath``.

A certificate's weight memo, ``scan_weights``, has one writer,
``evaluation._certified_weights``, which keeps it within the term budget
and in least-recently-used order; a scan reads it unchecked once its
certificate is checked.  A third check finds every write to it, or to a
name bound from it, elsewhere.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dirichletlab"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))
# the names each allowed function alone may use, by module and function
KERNEL = {"dot", "matmul"}
MIXER = {"_mix_words"}
STREAM = {"_sign_stream"}
ALLOWED = {("summation.py", "_row_dots"): KERNEL,
           ("evaluation.py", "_signed_sums"): KERNEL | STREAM,
           ("paths.py", "_sign_stream"): MIXER,
           ("paths.py", "SamplePath"): STREAM}


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


def guarded_uses(source: str, module: str) -> list[str]:
    """The uses in ``source`` of a ``KERNEL``, ``MIXER`` or ``STREAM``
    name, bare or as an attribute, and of the ``@`` operator (a matmul),
    outside the top-level function or class that ``ALLOWED`` grants them to
    in ``module``."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = owner or node.name
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else
                "matmul" if isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.MatMult) else None)
        if name in KERNEL | MIXER | STREAM and name not in ALLOWED.get((module, owner), ()):
            found.append(f"{name} in {owner or 'the module'} (line {node.lineno})")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def test_the_guard_finds_a_second_kernel_and_a_second_sign_route():
    source = ("import numpy as np\nfrom .paths import _mix_words\n"
              "def _held(x, w):\n    return x.dot(w) + np.matmul(x, w) + x @ w\n"
              "def _row_dots(x, y):\n    return np.dot(x, y)\n"
              "def _signs(z, t):\n    return _mix_words([0], z, t)\n")
    assert guarded_uses(source, "zeros.py") == [
        "dot in _held (line 4)", "matmul in _held (line 4)", "matmul in _held (line 4)",
        "dot in _row_dots (line 6)", "_mix_words in _signs (line 8)"]
    assert guarded_uses(source, "summation.py") == [
        "dot in _held (line 4)", "matmul in _held (line 4)", "matmul in _held (line 4)",
        "_mix_words in _signs (line 8)"]


def test_the_guard_finds_a_second_reader_of_the_sign_stream():
    source = ("from . import paths\nfrom .paths import _sign_stream\n"
              "def _bu_sups(st, path):\n"
              "    for lo, _, signs in _sign_stream([path], 9):\n        pass\n"
              "    return paths._sign_stream\n"
              "def _signed_sums(paths, weights):\n    return _sign_stream(paths, 1)\n"
              "class SamplePath:\n"
              "    def _signs(self, count):\n        return _sign_stream([self], count)\n")
    assert guarded_uses(source, "experiments.py") == [
        "_sign_stream in _bu_sups (line 4)", "_sign_stream in _bu_sups (line 6)",
        "_sign_stream in _signed_sums (line 8)", "_sign_stream in SamplePath (line 11)"]
    assert guarded_uses(source, "evaluation.py") == [
        "_sign_stream in _bu_sups (line 4)", "_sign_stream in _bu_sups (line 6)",
        "_sign_stream in SamplePath (line 11)"]
    assert guarded_uses(source, "paths.py") == [
        "_sign_stream in _bu_sups (line 4)", "_sign_stream in _bu_sups (line 6)",
        "_sign_stream in _signed_sums (line 8)"]


@pytest.mark.parametrize("module", ALL_MODULES)
def test_one_summation_kernel_and_one_sign_route(module):
    assert guarded_uses((PACKAGE / module).read_text(encoding="utf-8"), module) == []


# the one writer of a certificate's memo, and the dict methods that write
MEMO_WRITER = ("evaluation.py", "_certified_weights")
MEMO_WRITES = {"pop", "popitem", "clear", "update", "setdefault", "__setitem__",
               "__delitem__"}


def memo_writes(source: str, module: str) -> list[str]:
    """The writes in ``source`` to a ``scan_weights`` memo, read as an
    attribute or through a name bound from one (``memo = cert.scan_weights``,
    also in a tuple assignment), outside ``MEMO_WRITER``: an item assigned
    (``memo[s] = ...``, also augmented), an item deleted, or a call of one of
    ``MEMO_WRITES``, by line.  Names are followed within each top-level
    function."""
    found = []

    def is_memo(node, names):
        return (isinstance(node, ast.Attribute) and node.attr == "scan_weights"
                or isinstance(node, ast.Name) and node.id in names)

    def aliases(func):
        names = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    pairs = ([(target, node.value)] if not isinstance(target, ast.Tuple)
                             else zip(target.elts, node.value.elts)
                             if isinstance(node.value, ast.Tuple) else [])
                    names |= {t.id for t, v in pairs
                              if isinstance(t, ast.Name) and is_memo(v, ())}
        return names

    for func in ast.parse(source).body:
        if (module, getattr(func, "name", None)) == MEMO_WRITER:
            continue
        names = aliases(func)
        for node in ast.walk(func):
            targets = (node.targets if isinstance(node, (ast.Assign, ast.Delete)) else
                       [node.target] if isinstance(node, ast.AugAssign) else [])
            written = [t.value for t in targets if isinstance(t, ast.Subscript)]
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in MEMO_WRITES):
                written.append(node.func.value)
            found += [(node.lineno, getattr(func, "name", "the module"))
                      for value in written if is_memo(value, names)]
    return [f"{owner} (line {line})" for line, owner in sorted(found)]


def test_the_guard_finds_a_second_memo_writer():
    source = ("def _certified_weights(path, sigmas, cert):\n"
              "    n, memo = cert.count, cert.scan_weights\n"
              "    memo[1.0] = memo.pop(2.0)\n"
              "def _shortcut(cert, s, entry):\n"
              "    memo = cert.scan_weights\n"
              "    memo[s] = entry\n"
              "    cert.scan_weights.pop(s)\n"
              "    del memo[s]\n"
              "    return memo.get(s), {}.pop(s, None)\n"
              "cert.scan_weights[0.5] = None\n")
    assert memo_writes(source, "evaluation.py") == [
        "_shortcut (line 6)", "_shortcut (line 7)", "_shortcut (line 8)",
        "the module (line 10)"]
    assert memo_writes(source, "zeros.py") == [
        "_certified_weights (line 3)", "_certified_weights (line 3)",
        "_shortcut (line 6)", "_shortcut (line 7)", "_shortcut (line 8)",
        "the module (line 10)"]


@pytest.mark.parametrize("module", ALL_MODULES)
def test_one_writer_of_the_weight_memo(module):
    assert memo_writes((PACKAGE / module).read_text(encoding="utf-8"), module) == []
