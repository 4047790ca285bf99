"""Rules on what the modules of ``src/spdelab`` import.

Every name a module imports is read there.  An import that nothing reads is
dead code that a deletion left behind, with one exception: a binding that
``perfbench/tracing.py`` wraps under the name its caller looked up
(``TARGETS``) must stay importable even after the module stops calling it.
The tracing file is loaded by path, read-only, as ``test_bench_bindings.py``
loads it.

A private name (``_name``) crosses modules only where ``PRIVATE_IMPORTS``
allows it: a decision that another module needs belongs behind a public one.

Each kind of process or thread that src starts has one owner (``STARTERS``),
so a budget of the host's CPUs has exactly those sites to govern.
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


# (importing module, private name) that may cross: the CLI's check takes the
# operators a study's paths take, and a study sweeps and colors as a run does
PRIVATE_IMPORTS = {("cli", "_cached_ops"), ("convergence", "_color"), ("convergence", "_sweep")}


def private_imports(tree: ast.Module) -> list[str]:
    """The ``_name``s, dunders aside, that ``tree`` imports from a module of its package."""
    return [a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for a in node.names
            if a.name.startswith("_") and not a.name.endswith("__")]


def test_private_names_cross_modules_only_where_allowed():
    crossing = {(path.stem, name) for path in SOURCES
                for name in private_imports(ast.parse(path.read_text(encoding="utf-8")))}
    assert crossing == PRIVATE_IMPORTS


def test_a_private_import_is_caught():
    tree = ast.parse("from . import __version__\nfrom .stepper import _sweep, evolve\n"
                     "from os import _exit\n")
    assert private_imports(tree) == ["_sweep"]


# the name that starts each kind of process or thread src starts -> the one
# module that starts it: the draw child and the Monte Carlo helper thread, and
# a study's worker pool
STARTERS = {"fork": "rng", "ThreadPoolExecutor": "rng", "ProcessPoolExecutor": "convergence"}
# names that start a process or a thread in other ways, which src does not use
OTHER_STARTERS = {"forkpty", "posix_spawn", "Popen", "Process", "Thread"}


def started(tree: ast.Module) -> set[str]:
    """The names of ``STARTERS`` and ``OTHER_STARTERS`` that ``tree`` reads,
    as a name (``ThreadPoolExecutor``) or an attribute (``os.fork``)."""
    read = {n.attr if isinstance(n, ast.Attribute) else n.id for n in ast.walk(tree)
            if isinstance(n, (ast.Attribute, ast.Name)) and isinstance(n.ctx, ast.Load)}
    return read & (STARTERS.keys() | OTHER_STARTERS)


def test_every_process_or_thread_src_starts_has_one_owner():
    found = {(path.stem, name) for path in SOURCES
             for name in started(ast.parse(path.read_text(encoding="utf-8")))}
    assert found == {(owner, name) for name, owner in STARTERS.items()}


def test_a_process_or_thread_start_is_caught():
    tree = ast.parse("import os, threading\nfrom concurrent import futures\n"
                     "if hasattr(os, 'fork'):\n    os.fork()\n"
                     "threading.Thread(target=print)\nfutures.ProcessPoolExecutor()\n")
    assert started(tree) == {"fork", "Thread", "ProcessPoolExecutor"}
