"""In-memory spans around the public functions of each spdelab layer.

The traced run replaces each public function under the name its caller
looks up at call time (``spdelab.stepper.apply_qgamma``,
``FemOperators.system_solve``, ...), so nothing in the package changes.
Every call records one span: name, start, end and the span that was open
when it began.  The benchmark opens one root span per operation, which
tags every span below it with the operation's phase (``cold``, ``warm``,
``bdg``).  A few low-frequency functions also feed counters through
probes (pencil solves, time steps, factor fill-in, Monte Carlo paths).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (layer.function, module, attribute): one binding a caller looks up.  A
# function with several callers is listed once per binding; a dotted
# attribute is a method looked up on its class.
TARGETS = (
    ("rng.keyed_normals", "spdelab.noise", "keyed_normals"),
    ("rng.keyed_normals", "spdelab.driver", "keyed_normals"),
    ("noise.fine_increment", "spdelab.noise", "fine_increment"),
    ("noise.aggregate_increment", "spdelab.stepper", "aggregate_increment"),
    ("noise.restrict_increment", "spdelab.stepper", "restrict_increment"),
    ("driver.eval_b_grid", "spdelab.stepper", "eval_b_grid"),
    ("mesh.assemble", "spdelab.convergence", "assemble"),
    ("mesh.assemble", "spdelab.mesh", "assemble"),
    ("mesh.restriction_matrix", "spdelab.convergence", "restriction_matrix"),
    ("mesh.system_solve", "spdelab.mesh", "FemOperators.system_solve"),
    ("mesh.m_norm", "spdelab.mesh", "FemOperators.m_norm"),
    ("fracpow.apply_qgamma", "spdelab.stepper", "apply_qgamma"),
    ("stepper.evolve_fast", "spdelab.convergence", "evolve_fast"),
    ("stepper.evolve_fast", "spdelab.stepper", "evolve_fast"),
    ("convergence.path_errors", "spdelab.convergence", "path_errors"),
    ("convergence.relative_error", "spdelab.convergence", "relative_error"),
    ("l0.bdg_ratio", "spdelab.l0", "bdg_ratio"),
    ("l0.ito_integral_elementary", "spdelab.l0", "ito_integral_elementary"),
    ("l0.holder_exponent", "spdelab.l0", "holder_exponent"),
)

# The untraced run wraps only this one: bdg_ratio reruns at 10x the paths
# internally, and the Monte Carlo throughput counts every path simulated.
PATH_COUNTER = tuple(t for t in TARGETS if t[0] == "l0.ito_integral_elementary")


# metric -> (unit, span names it is computed from)
PER_LAYER = {
    "rng.keyed_normals.calls": ("count", ("rng.keyed_normals",)),
    "rng.keyed_normals.self_s": ("s", ("rng.keyed_normals",)),
    "noise.fine_increment.calls": ("count", ("noise.fine_increment",)),
    "noise.fine_increment.self_s": ("s", ("noise.fine_increment",)),
    "noise.aggregate_increment.self_s": ("s", ("noise.aggregate_increment",)),
    "noise.restrict_increment.self_s": ("s", ("noise.restrict_increment",)),
    "noise.draws_per_fine_step": ("ratio", ("noise.fine_increment",)),
    "driver.eval_b_grid.calls": ("count", ("driver.eval_b_grid",)),
    "driver.eval_b_grid.self_s": ("s", ("driver.eval_b_grid",)),
    "mesh.system_solve.calls": ("count", ("mesh.system_solve",)),
    "mesh.system_solve.self_s": ("s", ("mesh.system_solve",)),
    "mesh.assemble.s": ("s", ("mesh.assemble",)),
    "mesh.restriction_matrix.s": ("s", ("mesh.restriction_matrix",)),
    "mesh.mass_chol.nnz": ("count", ("mesh.assemble",)),
    "fracpow.apply_qgamma.calls": ("count", ("fracpow.apply_qgamma",)),
    "fracpow.apply_qgamma.self_s": ("s", ("fracpow.apply_qgamma",)),
    "fracpow.apply_qgamma.first_s": ("s", ("fracpow.apply_qgamma",)),
    "fracpow.nodes": ("count", ("fracpow.apply_qgamma",)),
    "fracpow.pencil_solves": ("count", ("fracpow.apply_qgamma",)),
    "stepper.evolve_fast.calls": ("count", ("stepper.evolve_fast",)),
    "stepper.evolve_fast.self_s": ("s", ("stepper.evolve_fast",)),
    "stepper.steps": ("count", ("stepper.evolve_fast",)),
    "convergence.path_errors.s": ("s", ("convergence.path_errors",)),
    "convergence.relative_error.self_s": ("s", ("convergence.relative_error",)),
    "l0.bdg_ratio.s": ("s", ("l0.bdg_ratio",)),
    "l0.bdg_ratio.reruns": ("count", ("l0.bdg_ratio", "l0.ito_integral_elementary")),
    "l0.holder_exponent.self_s": ("s", ("l0.holder_exponent",)),
    "l0.holder_exponent.norm_calls": ("count", ("l0.holder_exponent", "mesh.m_norm")),
    "trace.path_s": ("s", ()),
    "trace.overhead_s": ("s", ()),
}

# computed counts that must repeat exactly between runs of one commit
EXACT_COUNTS = (
    "noise.draws_per_fine_step",
    "stepper.steps",
    "fracpow.nodes",
    "fracpow.pencil_solves",
    "mesh.mass_chol.nnz",
    "rng.keyed_normals.calls",
    "l0.holder_exponent.norm_calls",
)


def _bound_arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.phase = "none"
        # (phase, key) -> value; probes add to these
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.absent: dict[str, str] = {}
        self._saved: list[tuple[object, str, object]] = []
        self._factored: dict[tuple, object] = {}

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> float:
        t = time.perf_counter()
        self.end[idx] = t
        self._stack.pop()
        return t - self.start[idx]

    @contextmanager
    def op(self, phase: str):
        """Root span of one benchmark operation; tags its subtree with ``phase``."""
        self.phase = phase
        idx = self._open(self._id(f"op.{phase}"))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        nid = self._id(name)
        probe = _PROBES.get(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = close(idx)
            if probe is not None:
                probe(self, _bound_arguments(fn, args, kwargs), result, seconds)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; a missing one is recorded as absent, not skipped silently."""
        for name, module_name, attr in self.targets:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if not callable(fn):
                self.absent[name] = f"{module_name}.{attr} not found"
                continue
            self._saved.append((owner, leaf, fn))
            setattr(owner, leaf, self.wrap(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, fn = self._saved.pop()
            setattr(owner, leaf, fn)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
        }

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def aggregate(self) -> dict[tuple[str, str], dict[str, float]]:
        """(phase, span name) -> calls, total seconds and self seconds."""
        arr = self.arrays()
        dur = arr["end"] - arr["start"]
        own = dur - child_coverage(arr["start"], arr["end"], arr["parent"])
        parent = arr["parent"].tolist()
        name_id = arr["name_id"].tolist()
        root = list(range(len(parent)))
        for i, p in enumerate(parent):
            if p >= 0:
                root[i] = root[p]
        out: dict[tuple[str, str], dict[str, float]] = {}
        for i, nid in enumerate(name_id):
            phase = self.names[name_id[root[i]]].removeprefix("op.")
            stat = out.setdefault(
                (phase, self.names[nid]), {"calls": 0, "s": 0.0, "self_s": 0.0}
            )
            stat["calls"] += 1
            stat["s"] += float(dur[i])
            stat["self_s"] += float(own[i])
        return out


def child_coverage(start, end, parent) -> np.ndarray:
    """Length of each span's interval covered by the union of its children.

    Children are clipped to the parent's interval and overlaps between
    siblings count once, so self time (duration minus coverage) is never
    negative.
    """
    start, end, parent = (np.asarray(a) for a in (start, end, parent))
    covered = np.zeros(start.size)
    children = np.flatnonzero(parent >= 0)
    order = children[np.lexsort((start[children], parent[children]))]
    s, e, par = start.tolist(), end.tolist(), parent.tolist()
    current, reach = -1, 0.0
    for i in order.tolist():
        p = par[i]
        if p != current:
            current, reach = p, s[p]
        lo, hi = max(s[i], reach), min(e[i], e[p])
        if hi > lo:
            covered[p] += hi - lo
            reach = hi
    return covered


def _probe_apply_qgamma(tracer, arguments, result, seconds):
    spec, ops, g = arguments["spec"], arguments["ops"], np.asarray(arguments["g"])
    nodes = int(spec.nodes.size)
    columns = 1 if g.ndim == 1 else g.shape[1]
    phase = tracer.phase
    tracer.counts[(phase, "fracpow.nodes")] = max(
        tracer.counts[(phase, "fracpow.nodes")], nodes
    )
    tracer.counts[(phase, "fracpow.pencil_solves")] += nodes * columns
    # the first call per (level operators, gamma, k) factors the pencil
    key = (id(ops), spec.gamma, spec.k)
    if key not in tracer._factored:
        tracer._factored[key] = ops  # keeps the id from being reused
        tracer.counts[("all", "fracpow.apply_qgamma.first_s")] += seconds


def _probe_evolve_fast(tracer, arguments, result, seconds):
    tracer.counts[(tracer.phase, "stepper.steps")] += arguments["config"].time_steps


def _probe_assemble(tracer, arguments, result, seconds):
    key = ("all", "mesh.mass_chol.nnz")
    tracer.counts[key] = max(tracer.counts[key], result.mass_chol.nnz)


def _probe_ito(tracer, arguments, result, seconds):
    tracer.counts[(tracer.phase, "l0.paths")] += arguments["n_paths"]


_PROBES = {
    "fracpow.apply_qgamma": _probe_apply_qgamma,
    "stepper.evolve_fast": _probe_evolve_fast,
    "mesh.assemble": _probe_assemble,
    "l0.ito_integral_elementary": _probe_ito,
}


def layer_metrics(tracer, n_traced, fine_steps, traced_s, bare_s):
    """Per-layer metrics and, for each one whose wrap target is gone, the reason.

    Per traced warm operation unless the metric covers the whole run
    (set-up spans, first pencil factorizations, the BDG phase).
    """
    agg = tracer.aggregate()

    def total(phase, name, key):
        return agg.get((phase, name), {}).get(key, 0)

    def per_op(name, key):
        return total("warm", name, key) / n_traced

    def whole_run(name):
        return sum(stat["s"] for (_, n), stat in agg.items() if n == name)

    def count(phase, key):
        return tracer.counts.get((phase, key), 0)

    values = {
        "noise.draws_per_fine_step": per_op("noise.fine_increment", "calls") / fine_steps,
        "mesh.assemble.s": whole_run("mesh.assemble"),
        "mesh.restriction_matrix.s": whole_run("mesh.restriction_matrix"),
        "mesh.mass_chol.nnz": count("all", "mesh.mass_chol.nnz"),
        "fracpow.apply_qgamma.first_s": count("all", "fracpow.apply_qgamma.first_s"),
        "fracpow.nodes": count("warm", "fracpow.nodes"),
        "fracpow.pencil_solves": count("warm", "fracpow.pencil_solves") / n_traced,
        "stepper.steps": count("warm", "stepper.steps") / n_traced,
        "l0.bdg_ratio.s": total("bdg", "l0.bdg_ratio", "s"),
        "l0.bdg_ratio.reruns": total("bdg", "l0.ito_integral_elementary", "calls")
        - total("bdg", "l0.bdg_ratio", "calls"),
        "l0.holder_exponent.norm_calls": per_op("mesh.m_norm", "calls"),
        "trace.path_s": statistics.median(traced_s),
        "trace.overhead_s": statistics.median(traced_s) - statistics.median(bare_s),
    }
    metrics, absent = {}, {}
    for metric, (unit, needs) in PER_LAYER.items():
        missing = [tracer.absent[n] for n in needs if n in tracer.absent]
        if missing:
            absent[metric] = "; ".join(missing)
            continue
        if metric not in values:
            name, key = metric.rsplit(".", 1)
            values[metric] = per_op(name, key)
        metrics[metric] = {"value": values[metric], "unit": unit}
    return metrics, absent
