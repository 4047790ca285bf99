"""Closed-form and independently computed oracles for the assembled operators.

Every check recomputes its expected value through a different route than
the production assembly (hand closed forms in 1d, loop assembly with
edge-midpoint quadrature in 2d) so that agreement is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .mesh import DyadicMesh, assemble, build_mesh, restriction_matrix

#: Most vertices the dense oracles take on: they hold four n x n float arrays,
#: 134 MB at 1-d level 11 (2049 vertices); 2-d level 5 has 1089.
MAX_DENSE_VERTICES = 2**11 + 1


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def expected_1d_matrices(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense 1d mass/stiffness matrices from the textbook closed forms."""
    n = 2**level + 1
    h = 2.0**-level
    mass = np.zeros((n, n))
    stiff = np.zeros((n, n))
    for i in range(n):
        interior = 0 < i < n - 1
        mass[i, i] = (4.0 if interior else 2.0) * h / 6.0
        stiff[i, i] = (2.0 if interior else 1.0) / h
        if i + 1 < n:
            mass[i, i + 1] = mass[i + 1, i] = h / 6.0
            stiff[i, i + 1] = stiff[i + 1, i] = -1.0 / h
    return mass, stiff


def expected_2d_matrices(mesh: DyadicMesh) -> tuple[np.ndarray, np.ndarray]:
    """Loop assembly with edge-midpoint quadrature (exact for quadratics)."""
    n = mesh.n_vertices
    mass = np.zeros((n, n))
    stiff = np.zeros((n, n))
    for cell in mesh.cells:
        p = mesh.vertices[cell]
        area = 0.5 * abs(
            (p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1])
            - (p[1, 1] - p[0, 1]) * (p[2, 0] - p[0, 0])
        )
        # coefficients of lambda_i(x) = a_i + b_i . x from lambda_i(p_j) = delta_ij
        mat = np.column_stack([np.ones(3), p])
        coeffs = np.linalg.solve(mat, np.eye(3))  # column i: (a_i, b_i)
        grads = coeffs[1:, :]  # (2, 3)
        mids = 0.5 * (p[[0, 1, 2]] + p[[1, 2, 0]])  # edge midpoints
        vals = coeffs[0, :] + mids @ coeffs[1:, :]  # (midpoint, basis fn)
        for i in range(3):
            for j in range(3):
                mass[cell[i], cell[j]] += area / 3.0 * np.sum(vals[:, i] * vals[:, j])
                stiff[cell[i], cell[j]] += area * (grads[:, i] @ grads[:, j])
    return mass, stiff


def assembly_checks(dim: int, level: int, corrupt: bool = False) -> list[CheckResult]:
    """Compare assembled operators against the independent oracles.

    ``corrupt`` perturbs one assembled entry first, to demonstrate that the
    comparison actually detects mismatches.
    """
    mesh = build_mesh(dim, level)
    if mesh.n_vertices > MAX_DENSE_VERTICES:
        raise DomainError(
            f"dense oracles need n x n arrays; {mesh.n_vertices} vertices exceed "
            f"the guard of {MAX_DENSE_VERTICES}"
        )
    ops = assemble(mesh)
    mass = ops.mass.toarray()
    stiff = ops.stiffness.toarray()
    if corrupt:
        mass[0, 0] += 1e-6

    exp_mass, exp_stiff = (expected_1d_matrices(level) if dim == 1
                           else expected_2d_matrices(mesh))

    def entry_diff(got, want) -> tuple[float, str]:
        d = np.abs(got - want)
        i, j = np.unravel_index(np.argmax(d), d.shape)
        return d[i, j], f"max |diff| = {d[i, j]:.3e} at entry ({i}, {j})"

    ones = np.ones(mesh.n_vertices)
    row_sums = np.abs(ops.stiffness @ ones).max()
    total = float(ones @ (ops.mass @ ones))
    k_diff = (ops.a2_matrix - (ops.mass + ops.stiffness)).nnz
    chol = ops.mass_chol
    rt = np.abs((chol @ chol.T - ops.mass).toarray()).max() / np.abs(mass).max()
    rows = [  # (name, error, detail, bound): a check passes when error <= bound
        ("mass matches oracle", *entry_diff(mass, exp_mass), 1e-12),
        ("stiffness matches oracle", *entry_diff(stiff, exp_stiff), 1e-12),
        ("stiffness kernel contains constants", row_sums,
         f"max |T @ 1| = {row_sums:.3e}", 1e-12),
        ("total measure is 1", abs(total - 1.0), f"1'M1 = {total!r}", 1e-12),
        ("K equals M + T", k_diff, f"{k_diff} differing entries", 0),
        ("Cholesky round trip", rt, f"relative max diff {rt:.3e}", 1e-12),
    ]
    if level >= 1:
        coarse = build_mesh(dim, level - 1)
        a = restriction_matrix(coarse, mesh)
        col_sums = np.abs(np.asarray(a.sum(axis=0)).ravel() - 1.0).max()
        # prolongation must reproduce affine functions exactly at fine vertices
        affine_c = 3.0 + 2.0 * coarse.vertices.sum(axis=1)
        affine_f = 3.0 + 2.0 * mesh.vertices.sum(axis=1)
        prol_err = np.abs(a.T @ affine_c - affine_f).max()
        rows += [
            ("restriction columns sum to 1", col_sums,
             f"max |col sum - 1| = {col_sums:.3e}", 1e-14),
            ("prolongation reproduces affine functions", prol_err,
             f"max error {prol_err:.3e}", 1e-13),
        ]
    return [CheckResult(name, err <= bound, detail) for name, err, detail, bound in rows]
