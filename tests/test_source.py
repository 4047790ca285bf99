"""Every name a module of ``src/spdelab`` imports is read there.

An import that nothing reads is dead code that a deletion left behind, with
one exception: a binding that ``perfbench/tracing.py`` wraps under the name
its caller looked up (``TARGETS``) must stay importable even after the
module stops calling it.  The tracing file is loaded by path, read-only, as
``test_bench_bindings.py`` loads it.
"""

import ast
import functools
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "spdelab").glob("*.py"))


@functools.cache
def _traced_bindings():
    """``(module, name)`` of each ``TARGETS`` binding: ``("stepper", "apply_qgamma")``, ..."""
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("source_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {(module.rpartition(".")[2], attr) for _name, module, attr in tracing.TARGETS}


def unread_imports(tree: ast.Module) -> list[str]:
    """The names ``tree`` binds by an import and never reads."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_every_import_is_read(path):
    unread = unread_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert [name for name in unread if (path.stem, name) not in _traced_bindings()] == []


def test_an_unread_import_is_caught():
    tree = ast.parse("import os\nimport numpy as np\nfrom math import pi, tau\nnp.sqrt(pi)\n")
    assert unread_imports(tree) == ["os", "tau"]
