"""The benchmark's calls into spdelab must keep working.

``perfbench/tracing.py`` replaces each ``TARGETS`` entry under the name its
caller looks up; a refactor that drops or moves one of those bindings makes
the traced run report the layer as absent.  ``perfbench/workloads.py`` builds
its runs through ``plan_study``, ``SchemeConfig`` and ``path_errors``; a
refactor that breaks those calls makes every benchmark operation fail.  These
tests load both files by path (without changing anything), resolve each
wrapped entry the way the tracer does and run every workload at its smoke
size.
"""

import functools
import importlib
import importlib.util
import math
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@functools.cache
def _load(name):
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # @dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name,module_name,attr", _load("tracing").TARGETS)
def test_wrap_target_resolves(name, module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    assert callable(owner), f"{name}: {module_name}.{attr} not found"


@pytest.mark.parametrize("name", sorted(_load("workloads").WORKLOADS))
def test_workload_runs_at_smoke_size(name):
    workloads = _load("workloads")
    spec = workloads.WORKLOADS[name]
    wl = spec.build(7, **spec.smoke)
    if isinstance(wl, workloads.Analysis):
        wl.bdg(*wl.bdg_cases()[0])
    wl.run(0)
    wl.run(1)
    summary = wl.summary()
    assert len(summary["digest"]) == 16
    if isinstance(wl, workloads.Study):
        rates = summary["fitted_rates"].values()
        assert sum(r["paths"] for r in rates) == 2
        assert all(math.isfinite(r["fitted"]) for r in rates)
    else:
        assert len(summary["holder_exponents"]) == 2
        assert len(summary["bdg_ratios"]) == 1
