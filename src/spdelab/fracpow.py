"""Sinc quadrature for negative fractional powers of the (M, K) pencil.

The inverse fractional power is approximated by an exponentially convergent
exponential-substitution quadrature: for gamma in (0, 1),

    Q(g) = (k sin(pi gamma) / pi) * sum_j e^{(1-gamma) y_j} (e^{y_j} M + K)^{-1} g,

with nodes ``y_j = j k`` for ``j = -M_neg .. N_pos``.  The node counts grow
like 1/k^2 so the truncation error matches the discretization error of the
trapezoid rule, giving a total error of order ``exp(-pi^2 / (2 k))``.

Endpoints are handled by convention: gamma = 0 is the identity and gamma = 1
the full inverse of K.  In all cases the input is the load-vector
representation of the operand and the output its coefficient representation,
so the gamma = 0 map is M^{-1}.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .driver import dct1
from .exceptions import DomainError
from .mesh import DyadicMesh, FemOperators

#: Most quadrature nodes of one spec.  The count grows like
#: pi^2 / (2 k^2) (1/gamma + 1/(1 - gamma)): 423 at k 0.25 and gamma 0.25,
#: and 79,038 at k 0.25 and gamma 1e-3.
MAX_NODES = 2**17

#: Most stored entries of the pencil factors over all nodes of one spec,
#: 12 bytes each (3 GiB).  One 2-d level-7 pencil LU has about 1.07M entries,
#: so about 250 nodes fit; 1,995 nodes (gamma 0.01, k 0.5) of level 6 do not.
#: A 1-d LDLᵀ stores 2n - 1 numbers.
MAX_PENCIL_NNZ = 2**28

#: Columns of a block colored per pass: a node's right-hand side and solution
#: then stay in cache, and a 2-d SuperLU solve costs less per column.
COLOR_COLUMNS = 256

#: Columns from which a 1-d block is colored in the DCT-I eigenbasis, off the pencil
#: sum in the last bits; the narrower blocks of studies and steps keep every bit.
DCT_COLUMNS = 2048


@dataclass(frozen=True)
class QuadratureSpec:
    """Nodes of the fractional-power quadrature.

    For gamma in {0, 1} the spec is a sentinel (identity / full inverse)
    with an empty node array.
    """

    gamma: float
    k: float
    n_pos: int
    n_neg: int
    nodes: np.ndarray

    @property
    def is_identity(self) -> bool:
        return self.gamma == 0.0

    @property
    def is_full_inverse(self) -> bool:
        return self.gamma == 1.0


def make_spec(gamma: float, k: float) -> QuadratureSpec:
    """Build the quadrature spec for exponent ``gamma`` and resolution ``k``."""
    if not 0.0 <= gamma <= 1.0:
        raise DomainError(f"gamma must lie in [0, 1], got {gamma}")
    if not 0.0 < k <= math.sqrt(np.finfo(float).max):
        raise DomainError(f"k must be positive, with a finite square, got {k}")
    if gamma in (0.0, 1.0):
        return QuadratureSpec(gamma, k, 0, 0, np.array([]))
    try:
        n_pos = math.ceil(math.pi**2 / (2.0 * gamma * k**2))
        n_neg = math.ceil(math.pi**2 / (2.0 * (1.0 - gamma) * k**2))
    except (ZeroDivisionError, OverflowError):  # k**2 underflows or a count is inf
        n_pos = n_neg = math.inf
    if n_pos + n_neg + 1 > MAX_NODES:
        raise DomainError(
            f"gamma {gamma} and k {k} need more than {MAX_NODES} quadrature nodes"
        )
    nodes = np.arange(-n_neg, n_pos + 1) * float(k)  # an int k may pass int64
    return QuadratureSpec(gamma, k, n_pos, n_neg, nodes)


def scalar_qgamma(spec: QuadratureSpec, a: float) -> float:
    """Quadrature applied to the scalar pencil (1, a); approximates a^-gamma."""
    if not a > 0.0:
        raise DomainError(f"a must be positive, got {a}")
    if spec.is_identity:
        return 1.0
    if spec.is_full_inverse:
        return 1.0 / a
    # summands c e^{(1-gamma) y} / (e^y + a) rewritten in log space so that
    # neither factor overflows on its own
    c = spec.k * math.sin(math.pi * spec.gamma) / math.pi
    log_terms = (1.0 - spec.gamma) * spec.nodes - np.logaddexp(
        spec.nodes, math.log(a)
    )
    return float(c * np.sum(np.exp(log_terms)))


def _shift_factor(ops: FemOperators, y: float):
    """The ``ops.factor`` of the shifted system at node ``y``, scaled to keep
    its coefficients finite: M + e^{-y} K for y >= 0, e^y M + K below."""
    if y >= 0.0:
        return ops.factor(ops.mass + math.exp(-y) * ops.a2_matrix)
    return ops.factor(math.exp(y) * ops.mass + ops.a2_matrix)


def _dct_modes(mesh: DyadicMesh) -> tuple[np.ndarray, np.ndarray]:
    """(mu, tau) with M V = D V diag(mu) and T V = D V diag(tau) in 1-d, for
    V_ij = cos(pi i j / N) on N cells and D = diag(1/2, 1, ..., 1, 1/2)."""
    cos = np.cos(np.pi * mesh.cell_size * np.arange(mesh.n_vertices))
    return mesh.cell_size * (2.0 + cos) / 3.0, (2.0 - 2.0 * cos) / mesh.cell_size


def pencil_factors(ops: FemOperators, spec: QuadratureSpec):
    """The factor of each node of ``spec`` (gamma in (0, 1)) in node order,
    each kept in ``ops.cached``; raises ``DomainError`` before the second is
    fetched if all of them would hold more than ``MAX_PENCIL_NNZ`` entries."""
    factors = (
        ops.cached(("pencil", spec.k, j), lambda: _shift_factor(ops, y))
        for j, y in zip(range(-spec.n_neg, spec.n_pos + 1), spec.nodes)
    )
    first = next(factors)
    if spec.nodes.size * first.nnz > MAX_PENCIL_NNZ:
        raise DomainError(
            f"{spec.nodes.size} pencil factors of {first.nnz} entries "
            f"exceed the guard of {MAX_PENCIL_NNZ}"
        )
    yield first
    yield from factors


class _PencilSolver:
    """The quadrature of one spec on one level: a scale and a factor per node.

    Built once per (operators, gamma, k) and reused across every time step
    and path touching that level.  The shifted system at node ``y_j = j k``
    does not depend on gamma, so its factor (``ops.factor``: an LDLᵀ in 1-d,
    an LU in 2-d) is made once per (operators, k, j) through ``ops.cached``
    and shared by every spec of that k (``pencil_factors``).  Positive
    nodes are scaled as e^{-gamma y} (M + e^{-y} K)^{-1}, negative nodes as
    e^{(1-gamma) y} (e^y M + K)^{-1}.  ``apply`` colors a block through
    every node in node order, ``COLOR_COLUMNS`` columns at a time, each
    chunk copied once F-ordered, the layout that ``dpttrs`` and SuperLU
    solve in; in 2-d wide blocks may differ from the whole block in the
    last bits, while a 1-d solve equals its column-by-column solves.  Given
    the mass matrix, it colors coefficient vectors in place: each chunk
    takes its own load vectors and is overwritten by its result.  In
    1-d the pencil is diagonal in the DCT-I basis (``_dct_modes``), so a
    chunk of a block of ``DCT_COLUMNS`` or more columns is
    ``dct1(s * dct1(D^-1 g)) / (2N)``, ``s_j = q(lambda_j) / mu_j``.
    """

    def __init__(self, ops: FemOperators, spec: QuadratureSpec):
        self._mesh, self._spec = ops.mesh, spec
        c = spec.k * math.sin(math.pi * spec.gamma) / math.pi
        self._scales = [
            c * math.exp(-spec.gamma * y) if y >= 0.0
            else c * math.exp((1.0 - spec.gamma) * y)
            for y in spec.nodes
        ]
        self._factors = list(pencil_factors(ops, spec))

    @functools.cached_property
    def _dct_scaling(self) -> np.ndarray:  # s / (2N) as a column, made on first use
        mu, tau = _dct_modes(self._mesh)
        s = [scalar_qgamma(self._spec, (m + t) / m) / m for m, t in zip(mu, tau)]
        return np.array(s)[:, None] / (2 * mu.size - 2)

    def apply(self, g: np.ndarray, mass=None) -> np.ndarray:
        block = g.reshape(g.shape[0], -1)  # a column is a block of one
        cols = block.shape[1]
        dct = cols >= DCT_COLUMNS and self._mesh.dim == 1
        out = np.empty(block.shape, order="F") if mass is None else block
        # a lone last column would take the one-column solve, which rounds
        # differently in 2-d; it joins the chunk before it
        edges = [*range(0, max(cols - 1, 1), COLOR_COLUMNS), cols]
        for lo, hi in zip(edges, edges[1:]):
            part = block[:, lo:hi] if mass is None else mass @ block[:, lo:hi]
            part = np.asarray(part, order="F")
            acc = out[:, lo:hi]
            if dct:  # D^-1 part, then two transforms around the scaling
                part = np.r_[2.0 * part[:1], part[1:-1], 2.0 * part[-1:]]
                acc[...] = dct1(self._dct_scaling * dct1(part))
                continue
            acc[...] = 0.0
            for scale, factor in zip(self._scales, self._factors):
                x = factor.solve(part)
                x *= scale  # the roundings of acc += scale * x
                acc += x
        return out.reshape(g.shape)


def apply_qgamma(
    spec: QuadratureSpec, ops: FemOperators, g: np.ndarray, *, in_place: bool = False
) -> np.ndarray:
    """Apply the fractional-inverse quadrature to a load vector ``g``.

    Returns the coefficient vector of the result: the weighted sum of
    shifted-pencil solves for gamma in (0, 1), K^{-1} g for gamma = 1, and
    M^{-1} g for gamma = 0.  A 2-d ``g`` is treated as a batch of load
    vectors in its columns.  With ``in_place``, ``g`` holds coefficient
    vectors instead and is overwritten with the result for their load
    vectors ``ops.mass @ g``, bit for bit; for gamma in (0, 1) each chunk of
    columns takes its own, so nothing of ``g``'s size is allocated.
    """
    g = np.asarray(g)
    if g.shape[0] != ops.n_dof:
        raise DomainError(
            f"operand has {g.shape[0]} entries, mesh has {ops.n_dof} vertices"
        )
    if spec.is_identity or spec.is_full_inverse:
        # one solve of the whole block: 2-d multi-column solves round by width
        key, matrix = (("mass_factor", ops.mass) if spec.is_identity
                       else ("a2_factor", ops.a2_matrix))
        solver = ops.cached(key, lambda: ops.factor(matrix))
        if not in_place:
            return solver.solve(g)
        g[...] = solver.solve(ops.mass @ g)
        return g
    key = ("quadrature", spec.gamma, spec.k)
    solver = ops.cached(key, lambda: _PencilSolver(ops, spec))
    return solver.apply(g, ops.mass if in_place else None)
