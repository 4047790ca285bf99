"""Sinc quadrature for negative fractional powers of the (M, K) pencil.

The inverse fractional power is approximated by an exponentially convergent
exponential-substitution quadrature: for gamma in (0, 1),

    Q(g) = (k sin(pi gamma) / pi) * sum_j e^{(1-gamma) y_j} (e^{y_j} M + K)^{-1} g,

with nodes ``y_j = j k`` for ``j = -M_neg .. N_pos``.  The node counts grow
like 1/k^2 so the truncation error matches the discretization error of the
trapezoid rule, giving a total error of order ``exp(-pi^2 / (2 k))``.
Endpoints are one-node quadratures: gamma = 0 is the identity and gamma = 1
the full inverse of K.  The input is the load-vector representation of the
operand and the output its coefficient representation, so the gamma = 0 map
is M^{-1}.  ``apply_qgamma`` colors through the one ``_coloring`` that a
level's operators cache per (gamma, k): a closed form in 1-d, solves in 2-d.
"""

from __future__ import annotations

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

#: Most stored entries of the pencil factors over all nodes of one 2-d spec,
#: 12 bytes each (3 GiB).  One 2-d level-7 pencil LU has about 1.07M entries,
#: so about 250 nodes fit; 1,995 nodes (gamma 0.01, k 0.5) of level 6 do not.
MAX_PENCIL_NNZ = 2**28

#: Columns of a block colored per pass: a node's right-hand side and solution
#: then stay in cache, and a 2-d SuperLU solve costs less per column.
COLOR_COLUMNS = 256


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
    """The LU of each node of ``spec`` in node order, each kept in ``ops.cached``,
    for 2-d operators and gamma in (0, 1), the one kind of run that factors
    pencils; raises ``DomainError`` before the second is fetched if all would
    hold more than ``MAX_PENCIL_NNZ`` entries."""
    if ops.mesh.dim == 1 or not spec.nodes.size:  # a closed form, or one solve
        return
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


def _coloring(ops: FemOperators, spec: QuadratureSpec):
    """``color(part, acc)``, which writes the quadrature of ``part`` to ``acc``.

    For gamma in (0, 1), the 1-d pencil is diagonal in the DCT-I basis
    (``_dct_modes``), so ``part`` is colored as ``dct1(s * dct1(D^-1 g)) /
    (2N)``, ``s_j = q(lambda_j) / mu_j``, and no factor is built; the 2-d one
    is the sum of one solve per node in node order, positive nodes scaled as
    e^{-gamma y} (M + e^{-y} K)^{-1}, negative nodes as e^{(1-gamma) y}
    (e^y M + K)^{-1}, each node's LU, free of gamma, shared by every spec of
    that k (``pencil_factors``).  Gamma 0 and 1 are one node of weight 1 in
    both dimensions: one solve with the factor of M or K, made once per
    operators for every k.  ``color`` holds no reference to ``ops``, so no
    cycle outlives the operators that cache it.
    """
    factors = list(pencil_factors(ops, spec))
    if factors:
        c = spec.k * math.sin(math.pi * spec.gamma) / math.pi
        scales = [c * math.exp(-spec.gamma * y if y >= 0.0 else (1.0 - spec.gamma) * y)
                  for y in spec.nodes]

        def color(part, acc):
            acc[...] = 0.0
            for scale, factor in zip(scales, factors):
                x = factor.solve(part)
                x *= scale  # the roundings of acc += scale * x
                acc += x
                del x  # so no two nodes' solutions are alive at once
    elif spec.nodes.size:  # 1-d
        mu, tau = _dct_modes(ops.mesh)
        s = [scalar_qgamma(spec, (m + t) / m) / m for m, t in zip(mu, tau)]
        scaling = np.array(s)[:, None] / (2 * mu.size - 2)

        def color(part, acc):  # two transforms around s / (2N) of a D^-1 copy
            acc[...] = dct1(scaling * dct1(np.r_[2 * part[:1], part[1:-1], 2 * part[-1:]]))
    else:  # gamma 0 or 1: one node of weight 1, so the sum is one solve
        key, matrix = (("mass_factor", ops.mass) if spec.is_identity
                       else ("a2_factor", ops.a2_matrix))
        one = ops.cached(key, lambda: ops.factor(matrix))

        def color(part, acc):
            acc[...] = one.solve(part)
    return color


def apply_qgamma(
    spec: QuadratureSpec, ops: FemOperators, g: np.ndarray, *, in_place: bool = False
) -> np.ndarray:
    """Apply the fractional-inverse quadrature to a load vector ``g``.

    Returns the coefficient vector of the result: the weighted sum of
    shifted-pencil solves for gamma in (0, 1), in its closed form in 1-d,
    K^{-1} g for gamma = 1, and M^{-1} g for gamma = 0.  A 2-d ``g`` is a
    batch of load vectors in its columns, colored ``COLOR_COLUMNS`` at a
    time, each chunk copied once F-ordered, as SuperLU and LAPACK solve it; a
    wide 2-d block may differ from the whole block in the last bits.  With
    ``in_place``, ``g`` holds coefficient vectors instead and is overwritten
    with the result for their load vectors ``ops.mass @ g``, bit for bit,
    chunk by chunk, so nothing of ``g``'s size is allocated.
    """
    g = np.asarray(g)
    if g.shape[0] != ops.n_dof:
        raise DomainError(
            f"operand has {g.shape[0]} entries, mesh has {ops.n_dof} vertices"
        )
    color = ops.cached(("quadrature", spec.gamma, spec.k), lambda: _coloring(ops, spec))
    block = g.reshape(g.shape[0], -1)  # a column is a block of one
    cols = block.shape[1]
    out = block if in_place else np.empty(block.shape, order="F")
    # a lone last column would take the one-column solve, which rounds
    # differently in 2-d; it joins the chunk before it
    edges = [*range(0, max(cols - 1, 1), COLOR_COLUMNS), cols]
    for lo, hi in zip(edges, edges[1:]):
        part = block[:, lo:hi]  # a view first, so no chunk outlives its pass
        part = np.asarray(ops.mass @ part if in_place else part, order="F")
        color(part, out[:, lo:hi])
    return out.reshape(g.shape)
