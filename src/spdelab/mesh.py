"""Nested dyadic meshes on (0,1)^d and exact P1 finite element assembly.

The domain is the unit interval or unit square with zero Neumann boundary
conditions, so every vertex carries a degree of freedom.  All meshes at
level ``L`` have cell size ``2**-L``; vertices of level ``L`` are a subset
of those at level ``L+1``, which makes inter-level transfer index
computable.  Every cell is a simplex of volume ``cell_size**dim / dim!``, so
one closed form, in the barycentric gradients of the cell, gives the P1 element
matrices of both dimensions exactly, without numerical quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cholesky_banded
from scipy.linalg.lapack import dpttrf, dpttrs
from scipy.sparse.linalg import spilu, splu

from .exceptions import DomainError, NumericalError

# Memory guards: finest admissible level per dimension, finest dyadic time
# grid (2**MAX_TIME_EXP steps), most scalar-driver modes and most paths of a
# convergence study, whose seeds are laid out before its first path.
MAX_LEVEL = {1: 14, 2: 8}
MAX_TIME_EXP = 20
MAX_MODES = 2**16
MAX_PATHS = 2**20

#: Relative residual above which a direct solve is considered failed.
SOLVER_TOL = 1e-10


@dataclass(frozen=True)
class DyadicMesh:
    """Uniform simplicial mesh of (0,1)^dim at dyadic refinement level."""

    dim: int
    level: int
    cell_size: float
    vertices: np.ndarray  # (n_vertices, dim), lexicographic order
    cells: np.ndarray  # (n_cells, dim + 1) vertex indices
    h: float  # maximal element diameter

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]


def build_mesh(dim: int, level: int) -> DyadicMesh:
    """Build the level-``level`` dyadic mesh of (0,1)^dim.

    For dim 2 each 2^-L square is split along the diagonal from its
    lower-left to its upper-right corner, giving two right isoceles
    triangles; the mesh parameter h is the hypotenuse length.
    """
    if dim not in (1, 2):
        raise DomainError(f"dim must be 1 or 2, got {dim}")
    if level < 0:
        raise DomainError(f"level must be >= 0, got {level}")
    if level > MAX_LEVEL[dim]:
        raise DomainError(f"level {level} exceeds guard {MAX_LEVEL[dim]} for dim {dim}")

    n = 2**level
    cell = 1.0 / n
    xs = np.linspace(0.0, 1.0, n + 1)

    if dim == 1:
        vertices = xs[:, None].copy()
        cells = np.column_stack([np.arange(n), np.arange(1, n + 1)])
        h = cell
    else:
        # index(ix, iy) = ix * (n + 1) + iy, lexicographic in (x, y)
        ix, iy = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
        vertices = np.column_stack([xs[ix.ravel()], xs[iy.ravel()]])
        sq_i, sq_j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        a = (sq_i * (n + 1) + sq_j).ravel()  # (i, j)
        b = a + (n + 1)  # (i+1, j)
        c = b + 1  # (i+1, j+1)
        d = a + 1  # (i, j+1)
        lower = np.column_stack([a, b, c])
        upper = np.column_stack([a, c, d])
        cells = np.vstack([lower, upper])
        h = np.sqrt(2.0) * cell

    return DyadicMesh(
        dim=dim, level=level, cell_size=cell, vertices=vertices, cells=cells, h=h
    )


def _assemble(mesh: DyadicMesh) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    d = mesh.dim
    c = mesh.cells
    p = mesh.vertices[c]  # (n_cells, d + 1, d)
    # the columns of the inverse edge matrix are the gradients of the
    # barycentric coordinates of vertices 1..d; vertex 0's is minus their sum
    grad = np.linalg.inv(p[:, 1:] - p[:, :1]).transpose(0, 2, 1)
    grad = np.concatenate([-grad.sum(axis=1, keepdims=True), grad], axis=1)
    # every dyadic cell has the same volume, exact in floating point
    vol = mesh.cell_size**d / math.factorial(d)
    # T_e = vol grad_i . grad_j;  M_e = vol (1 + I) / ((d + 1)(d + 2))
    te = vol * np.einsum("cik,cjk->cij", grad, grad)
    me = vol * ((np.ones((d + 1, d + 1)) + np.eye(d + 1)) / ((d + 1) * (d + 2)))
    rows = np.repeat(c, d + 1, axis=1).ravel()
    cols = np.tile(c, (1, d + 1)).ravel()
    m_data = np.tile(me.ravel(), mesh.n_cells)
    shape = (mesh.n_vertices, mesh.n_vertices)
    mass = sp.coo_matrix((m_data, (rows, cols)), shape=shape).tocsr()
    stiff = sp.coo_matrix((te.ravel(), (rows, cols)), shape=shape).tocsr()
    return mass, stiff


def mass_factor(mass: sp.spmatrix) -> sp.csr_matrix:
    """Sparse lower-triangular Cholesky factor L with L @ L.T == mass.

    Any factor of the mass matrix yields the same Gaussian law for L @ rho
    with rho standard normal; the Cholesky factor is the cheapest choice on
    these banded matrices.
    """
    try:
        lower = sp.tril(mass).todia()
        # LAPACK lower band storage: row r holds diagonal -r
        ab = np.zeros((1 - lower.offsets.min(), mass.shape[0]))
        ab[-lower.offsets] = lower.data
        cb = cholesky_banded(ab, lower=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - message detail
        raise NumericalError(f"mass matrix is not positive definite: {exc}")
    except Exception as exc:
        raise NumericalError(f"banded Cholesky failed: {exc}")
    factor = sp.dia_matrix((cb, -np.arange(len(cb))), shape=mass.shape).tocsr()
    factor.eliminate_zeros()
    return factor


class TridiagonalLDL:
    """The LDLᵀ of a symmetric positive definite tridiagonal matrix (LAPACK
    ``dpttrf``) in its 2n - 1 numbers, solved column by column (``dpttrs``)."""

    def __init__(self, a: sp.spmatrix):
        coo = a.tocoo()
        if np.any(np.abs(coo.row - coo.col)[coo.data != 0] > 1):
            raise NumericalError("matrix is not tridiagonal")
        lower = a.diagonal(-1)
        if not np.array_equal(lower, a.diagonal(1)):
            raise NumericalError("tridiagonal matrix is not exactly symmetric")
        n = a.shape[0]
        # the LAPACK wrapper wants one off-diagonal entry even when n = 1
        self._d, self._e, info = dpttrf(a.diagonal(), lower if n > 1 else np.zeros(1))
        if info > 0:
            raise NumericalError(
                f"tridiagonal matrix is not positive definite (pivot {info} of {n})"
            )

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """The solution for ``rhs``, which stays untouched."""
        return dpttrs(self._d, self._e, rhs)[0]


class FemOperators:
    """Assembled P1 matrices and factorizations for one mesh level.

    Holds the mass matrix M, the stiffness matrix T (zero Neumann, so
    constants lie in its kernel), the second-operator matrix K = M + T,
    and the lower Cholesky factor of M.  ``factor`` decides how every SPD
    system of the level is factored, and every factorization built from
    them lives in the one keyed cache behind ``cached``: the backward Euler
    ``BlockSystem``s under ``("system", dt, others)``, the 2-d LU of each
    shifted pencil under ``("pencil", k, j)``, shared by every gamma of k,
    the M and K factors of gamma 0 and 1 under ``"mass_factor"`` and
    ``"a2_factor"``, shared by every k, the quadrature colorings under
    ``("quadrature", gamma, k)``, and each coarser level's operators and
    restriction under ``("coarse", level)``.  The object is immutable apart
    from that cache and safe to share across threads.
    """

    #: the SuperLU options of every 2-d factor: the symmetric minimum-degree
    #: order with diagonal pivots, a third less fill than COLAMD
    lu_options = dict(
        permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )

    def __init__(self, mesh: DyadicMesh):
        self.mesh = mesh
        self.mass, self.stiffness = _assemble(mesh)
        # a2(u, v) = (u, v) + (grad u, grad v) in the implemented case
        self.a2_matrix = (self.mass + self.stiffness).tocsr()
        self.mass_chol = mass_factor(self.mass)
        self._cache: dict = {}

    @property
    def n_dof(self) -> int:
        return self.mesh.n_vertices

    def cached(self, key, build):
        """The value stored under ``key``, made by ``build()`` on first request."""
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = build()
        return value

    def coarse(self, level: int) -> tuple[FemOperators, sp.csr_matrix | None]:
        """The operators of ``level`` of this dimension and the restriction
        from this level to it, built once; ``(self, None)`` at this level."""
        if level == self.mesh.level:
            return self, None

        def build():
            mesh = build_mesh(self.mesh.dim, level)
            a = restriction_matrix(mesh, self.mesh)  # rejects a finer level
            return assemble(mesh), a

        return self.cached(("coarse", level), build)

    def factor(self, a: sp.spmatrix, **options):
        """The factor of an SPD system ``a`` of this level's dimension, with
        ``solve``: in 1-d the ``TridiagonalLDL`` of ``a``; in 2-d its ``splu``
        with ``lu_options``, updated by ``options``."""
        if self.mesh.dim == 1:
            return TridiagonalLDL(a)
        return splu(a.tocsc(), **{**self.lu_options, **options})

    def system(self, dt: float, others: tuple = ()) -> BlockSystem:
        """The backward Euler system of this level and ``others``, built once."""
        levels = (self, *others)
        return self.cached(("system", dt, others), lambda: BlockSystem(levels, dt))

    # unused in the package, but perfbench/tracing.py wraps the single solve
    # under this name and the tests' step-by-step oracles call it, so it stays
    def system_solve(self, dt: float, rhs: np.ndarray) -> np.ndarray:
        """Solve (M + dt T) x = rhs with a relative residual check."""
        system = self.system(dt)
        x = system.solve(rhs)
        system.check(x[None], rhs[None])
        return x

    def m_norm(self, v: np.ndarray) -> float | np.ndarray:
        """Mass-weighted norm, the discrete L2 norm of the P1 function; of
        each row of a ``(k, n_dof)`` block, bit-identical row by row."""
        # vecdot takes BLAS ddot per row, whose kernel depends on the strides:
        # the rows of v keep theirs and those of M v are made contiguous
        mv = np.ascontiguousarray((self.mass @ v.T).T)
        return np.sqrt(np.vecdot(v, mv))


class BlockSystem:
    """The block-diagonal (M + dt T) of a stack of levels, run ``i`` at
    ``offsets[i]:offsets[i + 1]``, with its mass matrix and factor.

    In 1-d the stack is itself tridiagonal, with zero coupling between its
    blocks, so its LDLᵀ decouples exactly and each slice of ``solve`` is bit
    for bit the solve of the level's own factor.  In 2-d each block is
    pre-permuted, rows and columns alike, by its own order (read off a
    no-fill ILU with ``lu_options``) and the stack factored in natural
    order, so each slice is bit for bit the level's own one-level solve; a
    plain stack ``splu`` is not.

    ``advance`` takes a block's backward Euler steps, each through
    ``solve``.  In 1-d it forms ``mass @ beta`` from the stack's three
    diagonals, added in a CSR row's order: the sparse product bit for bit,
    without a dispatch that costs more than the arithmetic on a small mesh.
    """

    def __init__(self, levels: tuple, dt: float):
        self.dt = dt
        self.offsets = np.cumsum([0] + [o.n_dof for o in levels])
        systems = [(o.mass + dt * o.stiffness).tocsc() for o in levels]
        self.matrix = sp.block_diag(systems, "csc")
        self.mass = sp.block_diag([o.mass for o in levels], "csr")
        self._perm = self._bands = None
        if levels[0].mesh.dim == 1:  # a stack has one dimension
            self._bands = tuple(self.mass.diagonal(k) for k in (0, -1, 1))
            self._factor = levels[0].factor(self.matrix)
            return
        opts = levels[0].lu_options
        orders = [spilu(s, drop_tol=1, fill_factor=1, **opts).perm_c for s in systems]
        blocks = [s[:, np.argsort(q)] for s, q in zip(systems, orders)]
        self._perm = np.concatenate([q + s for q, s in zip(orders, self.offsets)])
        self._rows = np.argsort(self._perm)
        stack = sp.block_diag(blocks, "csc")[self._rows]
        self._factor = levels[0].factor(stack, permc_spec="NATURAL")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self._perm is None:
            return self._factor.solve(rhs)
        return self._factor.solve(rhs[self._rows])[self._perm]

    def advance(self, beta: np.ndarray, loads: np.ndarray) -> tuple[np.ndarray, ...]:
        """The states of the steps from ``beta`` whose loads are the columns
        of ``loads``, and their right-hand sides ``mass @ previous + load``,
        one row a step."""
        states = np.empty((loads.shape[1], beta.size))
        rhs = np.empty_like(states)
        for j, r in enumerate(rhs):
            if self._bands is None:
                r[:] = self.mass @ beta
            else:
                dg, lo, up = self._bands
                np.multiply(dg, beta, out=r)
                r[1:] += lo * beta[:-1]
                r[:-1] += up * beta[1:]
            r += loads[:, j]
            beta = states[j] = self.solve(r)
        return states, rhs

    def check(self, x: np.ndarray, rhs: np.ndarray) -> None:
        """Raise ``NumericalError`` unless each row of ``x`` solves the system
        for that row of ``rhs`` to ``SOLVER_TOL``, relative to each level's
        own slice of the row; a zero slice is not checked."""
        res = (self.matrix @ x.T).T - rhs
        starts = self.offsets[:-1]
        rhs_sq, res_sq = (np.add.reduceat(v * v, starts, axis=1) for v in (rhs, res))
        checked = rhs_sq > 0.0
        rel = np.sqrt(res_sq[checked] / rhs_sq[checked])
        bad = np.flatnonzero(~(rel <= SOLVER_TOL))
        if bad.size:
            sizes = np.broadcast_to(np.diff(self.offsets), checked.shape)
            raise NumericalError(
                f"backward Euler solve residual {rel[bad[0]]:.3e} exceeds "
                f"{SOLVER_TOL:.0e} (n={sizes[checked][bad[0]]}, dt={self.dt})"
            )


def assemble(mesh: DyadicMesh) -> FemOperators:
    """Assemble all finite element operators for ``mesh``."""
    return FemOperators(mesh)


def restriction_matrix(coarse: DyadicMesh, fine: DyadicMesh) -> sp.csr_matrix:
    """Matrix A with A[i, j] = (coarse hat function i)(fine vertex j).

    Transfers projected noise from the fine to the coarse level; its
    transpose prolongs coarse nodal values.  Columns sum to one because the
    hat functions partition unity.
    """
    if coarse.dim != fine.dim:
        raise DomainError("meshes differ in dimension")
    if coarse.level > fine.level:
        raise DomainError(
            f"coarse level {coarse.level} exceeds fine level {fine.level}"
        )
    # The coarse cells are the Kuhn simplices of each square: the one holding
    # a fine vertex walks from the square's corner along the axes in decreasing
    # order of the vertex's local coordinates s, a tie taking x first, and the
    # hat weights at its d + 1 vertices are the gaps of (1, s_(1), ..., s_(d), 0)
    n_c = 2**coarse.level
    x = fine.vertices * float(n_c)
    corner = np.minimum(x.astype(int), n_c - 1)
    s = x - corner
    order = np.argsort(-s, axis=1, kind="stable")
    s = np.take_along_axis(s, order, axis=1)
    gaps = np.pad(s, ((0, 0), (1, 1)), constant_values=(1.0, 0.0))
    vals = gaps[:, :-1] - gaps[:, 1:]
    strides = (n_c + 1) ** np.arange(coarse.dim)[::-1]
    walk = np.pad(np.cumsum(strides[order], axis=1), ((0, 0), (1, 0)))
    rows = (corner @ strides)[:, None] + walk
    cols = np.repeat(np.arange(fine.n_vertices), coarse.dim + 1)
    shape = (coarse.n_vertices, fine.n_vertices)
    a = sp.coo_matrix((vals.ravel(), (rows.ravel(), cols)), shape=shape).tocsr()
    a.eliminate_zeros()
    return a
