"""Nested dyadic meshes on (0,1)^d and exact P1 finite element assembly.

The domain is the unit interval or unit square with zero Neumann boundary
conditions, so every vertex carries a degree of freedom.  All meshes at
level ``L`` have cell size ``2**-L``; vertices of level ``L`` are a subset
of those at level ``L+1``, which makes inter-level transfer index
computable.  Element integrals for P1 hat functions are polynomial and are
assembled from closed forms, without numerical quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cholesky_banded
from scipy.sparse.linalg import spilu, splu

from .exceptions import CapacityError, DomainError, FactorizationError, NumericalError

# Memory guards: finest admissible level per dimension, finest dyadic time
# grid (2**MAX_TIME_EXP steps) and most scalar-driver modes.
MAX_LEVEL = {1: 14, 2: 8}
MAX_TIME_EXP = 20
MAX_MODES = 2**16

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
        raise CapacityError(
            f"level {level} exceeds guard {MAX_LEVEL[dim]} for dim {dim}"
        )

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


def _assemble_1d(mesh: DyadicMesh) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    ell = mesh.cell_size
    nv = mesh.n_vertices
    c = mesh.cells
    # local matrices: M_e = (ell/6)[[2,1],[1,2]], T_e = (1/ell)[[1,-1],[-1,1]]
    me = (ell / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
    te = (1.0 / ell) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    rows = np.repeat(c, 2, axis=1).ravel()
    cols = np.tile(c, (1, 2)).ravel()
    m_data = np.tile(me.ravel(), mesh.n_cells)
    t_data = np.tile(te.ravel(), mesh.n_cells)
    mass = sp.coo_matrix((m_data, (rows, cols)), shape=(nv, nv)).tocsr()
    stiff = sp.coo_matrix((t_data, (rows, cols)), shape=(nv, nv)).tocsr()
    return mass, stiff


def _assemble_2d(mesh: DyadicMesh) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    nv = mesh.n_vertices
    c = mesh.cells
    p = mesh.vertices[c]  # (n_cells, 3, 2)
    # edge opposite local vertex k
    e = np.stack([p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0]], axis=1)
    area = 0.5 * (
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0])
    )
    # T_e[i, j] = (e_i . e_j) / (4 A);  M_e = (A / 12)(1 + I)
    te = np.einsum("cid,cjd->cij", e, e) / (4.0 * area)[:, None, None]
    m_local = (np.ones((3, 3)) + np.eye(3)) / 12.0
    me = area[:, None, None] * m_local[None]
    rows = np.repeat(c, 3, axis=1).ravel()
    cols = np.tile(c, (1, 3)).ravel()
    mass = sp.coo_matrix((me.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()
    stiff = sp.coo_matrix((te.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()
    return mass, stiff


def _lower_banded(m: sp.spmatrix) -> np.ndarray:
    """Lower triangle of a symmetric banded matrix in LAPACK band storage."""
    coo = m.tocoo()
    n = coo.shape[0]
    keep = coo.row >= coo.col
    r, c, v = coo.row[keep], coo.col[keep], coo.data[keep]
    bw = int((r - c).max()) if len(r) else 0
    ab = np.zeros((bw + 1, n))
    ab[r - c, c] = v
    return ab


def mass_factor(mass: sp.spmatrix) -> sp.csr_matrix:
    """Sparse lower-triangular Cholesky factor L with L @ L.T == mass.

    Any factor of the mass matrix yields the same Gaussian law for L @ rho
    with rho standard normal; the Cholesky factor is the cheapest choice on
    these banded matrices.
    """
    ab = _lower_banded(mass)
    try:
        cb = cholesky_banded(ab, lower=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - message detail
        raise FactorizationError(f"mass matrix is not positive definite: {exc}")
    except Exception as exc:
        raise FactorizationError(f"banded Cholesky failed: {exc}")
    n = ab.shape[1]
    diags = [cb[r, : n - r] for r in range(ab.shape[0])]
    offsets = [-r for r in range(ab.shape[0])]
    factor = sp.diags(diags, offsets, shape=(n, n), format="csr")
    factor.eliminate_zeros()
    return factor


class FemOperators:
    """Assembled P1 matrices and factorizations for one mesh level.

    Holds the mass matrix M, the stiffness matrix T (zero Neumann, so
    constants lie in its kernel), the second-operator matrix K = M + T,
    and the lower Cholesky factor of M.  Every factorization built from
    them (the backward Euler ``BlockSystem``s, the shifted-pencil solvers,
    the M and K LUs) lives in the one keyed cache behind ``cached``; the
    object is immutable apart from that cache and safe to share across
    threads.
    """

    def __init__(self, mesh: DyadicMesh):
        self.mesh = mesh
        if mesh.dim == 1:
            self.mass, self.stiffness = _assemble_1d(mesh)
        else:
            self.mass, self.stiffness = _assemble_2d(mesh)
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
        if v.ndim == 1:
            return float(np.sqrt(v @ (self.mass @ v)))
        # vecdot takes BLAS ddot per row, whose kernel depends on the strides:
        # the rows of v keep theirs and those of M v are contiguous, as above
        mv = np.ascontiguousarray((self.mass @ v.T).T)
        return np.sqrt(np.vecdot(v, mv))


class BlockSystem:
    """The block-diagonal (M + dt T) of a stack of levels, run ``i`` at
    ``offsets[i]:offsets[i + 1]``, with its mass matrix and LU.

    Each block is pre-permuted by its own COLAMD order (read off a no-fill
    incomplete LU) and the stack is factored in natural order, so ``solve``
    gives every level's slice bit for bit as that level's own ``splu`` would;
    a plain ``splu`` of the stack rounds differently in 1-d.
    """

    def __init__(self, levels: tuple, dt: float):
        self.dt = dt
        self.offsets = np.cumsum([0] + [o.n_dof for o in levels])
        systems = [(o.mass + dt * o.stiffness).tocsc() for o in levels]
        orders = [spilu(s, drop_tol=1.0, fill_factor=1.0).perm_c for s in systems]
        blocks = [s[:, np.argsort(q)] for s, q in zip(systems, orders)]
        self._lu = splu(sp.block_diag(blocks, "csc"), permc_spec="NATURAL")
        self._perm = np.concatenate([q + s for q, s in zip(orders, self.offsets)])
        self.matrix = sp.block_diag(systems, "csc")
        self.mass = sp.block_diag([o.mass for o in levels], "csr")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return self._lu.solve(rhs)[self._perm]

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
    n_c = 2**coarse.level
    inv_hc = float(n_c)
    pts = fine.vertices

    if coarse.dim == 1:
        x = pts[:, 0]
        cell = np.minimum((x * inv_hc).astype(int), n_c - 1)
        s = x * inv_hc - cell
        j = np.arange(fine.n_vertices)
        rows = np.concatenate([cell, cell + 1])
        cols = np.concatenate([j, j])
        vals = np.concatenate([1.0 - s, s])
    else:
        stride = n_c + 1
        x, y = pts[:, 0], pts[:, 1]
        cx = np.minimum((x * inv_hc).astype(int), n_c - 1)
        cy = np.minimum((y * inv_hc).astype(int), n_c - 1)
        s = x * inv_hc - cx
        t = y * inv_hc - cy
        base = cx * stride + cy
        j = np.arange(fine.n_vertices)
        low = s >= t  # lower-right triangle of the square, else upper-left
        rows = np.concatenate(
            [
                base,
                np.where(low, base + stride, base + stride + 1),
                np.where(low, base + stride + 1, base + 1),
            ]
        )
        cols = np.concatenate([j, j, j])
        vals = np.concatenate(
            [
                np.where(low, 1.0 - s, 1.0 - t),
                np.where(low, s - t, s),
                np.where(low, t, t - s),
            ]
        )
    a = sp.coo_matrix(
        (vals, (rows, cols)), shape=(coarse.n_vertices, fine.n_vertices)
    ).tocsr()
    a.eliminate_zeros()
    return a
