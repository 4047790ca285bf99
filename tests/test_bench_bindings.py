"""The benchmark's calls into spdelab must keep working.

``perfbench/tracing.py`` replaces each ``TARGETS`` entry under the name its
caller looks up; a refactor that drops or moves one of those bindings makes
the traced run report the layer as absent.  ``perfbench/workloads.py`` builds
its runs through ``plan_study``, ``SchemeConfig`` and ``path_errors``; a
refactor that breaks those calls makes every benchmark operation fail.  These
tests load both files by path (without changing anything), resolve each
wrapped entry the way the tracer does and run every workload at its smoke
size.  The Monte Carlo throughput counts the paths of every
``l0.ito_integral_elementary`` call, so ``bdg_ratio`` must make one such call
per attempt, looked up at call time.
"""

import dataclasses
import functools
import importlib
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from spdelab import l0
from spdelab.exceptions import StatisticalAlarm

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


@pytest.mark.parametrize("degenerate", [0, 1, 2])
def test_path_counter_sees_every_bdg_attempt(monkeypatch, degenerate):
    # the first `degenerate` attempts get quad_var = 0 with sup > 0, which
    # makes bdg_ratio rerun at 10x the paths, then raise
    tracing = _load("tracing")
    real = l0.ito_integral_elementary
    attempts = []

    def ito(phi, seed, n_paths=1):
        sample = real(phi, seed, n_paths)
        attempts.append(n_paths)
        if len(attempts) <= degenerate:
            return dataclasses.replace(sample, quad_var=np.zeros(n_paths))
        return sample

    monkeypatch.setattr(l0, "ito_integral_elementary", ito)
    phi = l0.ElementaryIntegrand(1, np.linspace(0.0, 1.0, 5), "wiener_functional")
    tracer = tracing.Tracer(tracing.PATH_COUNTER)
    tracer.install()
    try:
        with tracer.op("bdg"):
            if degenerate == 2:
                with pytest.raises(StatisticalAlarm):
                    l0.bdg_ratio(phi, 2.0, 1000, seed=3)
            else:
                assert math.isfinite(l0.bdg_ratio(phi, 2.0, 1000, seed=3))
    finally:
        tracer.uninstall()
    assert attempts == [1000, 10_000][: degenerate + 1]
    assert tracer.counts[("bdg", "l0.paths")] == sum(attempts)
    calls = tracer.aggregate()[("bdg", "l0.ito_integral_elementary")]["calls"]
    assert calls == len(attempts)
