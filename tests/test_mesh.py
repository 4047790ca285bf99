import numpy as np
import pytest
import scipy.sparse as sp

from spdelab import checks
from spdelab.checks import assembly_checks, expected_1d_matrices, expected_2d_matrices
from spdelab.exceptions import DomainError, NumericalError
from spdelab.mesh import (
    FemOperators,
    TridiagonalLDL,
    assemble,
    build_mesh,
    mass_factor,
    restriction_matrix,
)


class TestBuildMesh:
    def test_coarsest_interval(self):
        mesh = build_mesh(1, 0)
        assert mesh.n_vertices == 2
        assert mesh.n_cells == 1
        assert mesh.h == 1.0
        np.testing.assert_array_equal(mesh.vertices.ravel(), [0.0, 1.0])

    def test_1d_level_3_counts(self):
        mesh = build_mesh(1, 3)
        assert mesh.n_vertices == 9
        assert mesh.n_cells == 8
        assert mesh.h == 1.0 / 8.0

    def test_2d_level_2_counts(self):
        mesh = build_mesh(2, 2)
        assert mesh.dim == 2
        assert mesh.n_vertices == 25
        assert mesh.h == pytest.approx(np.sqrt(2.0) / 4.0)

    def test_2d_level_1_hand_enumeration(self):
        # 2x2 squares, each split along its lower-left/upper-right diagonal
        mesh = build_mesh(2, 1)
        assert mesh.n_vertices == 9
        assert mesh.n_cells == 8
        assert mesh.h == pytest.approx(np.sqrt(2.0) / 2.0)

    @pytest.mark.parametrize("dim,level", [(1, 0), (1, 5), (2, 0), (2, 3)])
    def test_vertex_count(self, dim, level):
        mesh = build_mesh(dim, level)
        assert mesh.n_vertices == (2**level + 1) ** dim

    def test_vertices_lexicographic(self):
        mesh = build_mesh(2, 2)
        as_tuples = [tuple(v) for v in mesh.vertices]
        assert as_tuples == sorted(as_tuples)

    def test_cells_tile_domain(self):
        for dim, level in [(1, 4), (2, 2)]:
            mesh = build_mesh(dim, level)
            if dim == 1:
                vols = np.diff(mesh.vertices[mesh.cells].squeeze(-1), axis=1).ravel()
            else:
                p = mesh.vertices[mesh.cells]
                vols = 0.5 * (
                    (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                    - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0])
                )
            assert np.all(vols > 0.0)
            assert np.sum(vols) == pytest.approx(1.0, abs=1e-14)

    def test_nested_vertices(self):
        for dim in (1, 2):
            coarse = build_mesh(dim, 2)
            fine = build_mesh(dim, 3)
            fine_set = {tuple(v) for v in fine.vertices}
            assert all(tuple(v) in fine_set for v in coarse.vertices)

    def test_capacity_guard(self):
        with pytest.raises(DomainError, match="level 15 exceeds guard 14 for dim 1"):
            build_mesh(1, 15)
        with pytest.raises(DomainError, match="level 9 exceeds guard 8 for dim 2"):
            build_mesh(2, 9)

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            build_mesh(3, 1)
        with pytest.raises(DomainError):
            build_mesh(1, -1)


class TestAssemble:
    def test_1d_level_2_closed_form(self):
        # interior M rows (h/6)[1,4,1], boundary (h/6)[2,1]; T rows (1/h)[-1,2,-1]
        ops = assemble(build_mesh(1, 2))
        h = 0.25
        mass = ops.mass.toarray()
        stiff = ops.stiffness.toarray()
        np.testing.assert_allclose(mass[2, 1:4], h / 6.0 * np.array([1, 4, 1]), atol=1e-15)
        np.testing.assert_allclose(mass[0, :2], h / 6.0 * np.array([2, 1]), atol=1e-15)
        np.testing.assert_allclose(
            stiff[2, 1:4], 1.0 / h * np.array([-1, 2, -1]), atol=1e-13
        )

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_1d_matches_closed_form_entrywise(self, level):
        ops = assemble(build_mesh(1, level))
        exp_mass, exp_stiff = expected_1d_matrices(level)
        np.testing.assert_allclose(ops.mass.toarray(), exp_mass, atol=1e-12, rtol=0)
        np.testing.assert_allclose(
            ops.stiffness.toarray(), exp_stiff, atol=1e-12, rtol=0
        )

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_2d_matches_quadrature_oracle(self, level):
        mesh = build_mesh(2, level)
        ops = assemble(mesh)
        exp_mass, exp_stiff = expected_2d_matrices(mesh)
        np.testing.assert_allclose(ops.mass.toarray(), exp_mass, atol=1e-12, rtol=0)
        np.testing.assert_allclose(
            ops.stiffness.toarray(), exp_stiff, atol=1e-12, rtol=0
        )

    @pytest.mark.parametrize("dim,level", [(1, 3), (1, 6), (2, 2), (2, 4)])
    def test_invariants(self, dim, level):
        ops = assemble(build_mesh(dim, level))
        one = np.ones(ops.n_dof)
        # exact symmetry
        assert (ops.mass != ops.mass.T).nnz == 0
        assert (ops.stiffness != ops.stiffness.T).nnz == 0
        # Neumann kernel and partition of unity
        assert np.abs(ops.stiffness @ one).max() <= 1e-12
        assert one @ (ops.mass @ one) == pytest.approx(1.0, abs=1e-12)
        # K = M + T exactly
        assert (ops.a2_matrix - (ops.mass + ops.stiffness)).nnz == 0

    def test_eigenvalue_sanity(self):
        ops = assemble(build_mesh(1, 4))
        t_eigs = np.linalg.eigvalsh(ops.stiffness.toarray())
        m_eigs = np.linalg.eigvalsh(ops.mass.toarray())
        assert abs(t_eigs[0]) <= 1e-12
        assert np.all(t_eigs[1:] > 1e-10)
        assert np.all(m_eigs > 0.0)

    def test_backward_euler_solve_residual(self):
        ops = assemble(build_mesh(2, 3))
        rhs = np.sin(np.arange(ops.n_dof, dtype=float))
        x = ops.system_solve(1e-3, rhs)
        system = ops.mass + 1e-3 * ops.stiffness
        rel = np.linalg.norm(system @ x - rhs) / np.linalg.norm(rhs)
        assert rel <= 1e-10

    @pytest.mark.parametrize("dim,level", [(1, 5), (1, 9), (2, 3), (2, 5)])
    @pytest.mark.parametrize("rows", [1, 2, 7, 300])
    def test_m_norm_of_a_block_equals_each_row(self, dim, level, rows):
        # BLAS ddot rounds strided rows differently from contiguous ones, so
        # each layout is checked against the norms of its own rows
        ops = assemble(build_mesh(dim, level))
        w = np.random.default_rng(rows).standard_normal((rows, 2 * ops.n_dof))
        v = w[:, ::2]  # rows with a stride of two entries
        for block in (v.copy(), np.asfortranarray(v), v):
            expected = [ops.m_norm(r) for r in block]
            np.testing.assert_array_equal(ops.m_norm(block), expected)

    def test_cached_builds_once_per_key(self):
        ops = assemble(build_mesh(1, 2))
        built = []

        def build():
            built.append(1)
            return object()

        first = ops.cached(("probe", 1), build)
        assert ops.cached(("probe", 1), build) is first
        assert ops.cached(("probe", 2), build) is not first
        assert len(built) == 2

    def test_system_solve_factors_once_per_dt(self, monkeypatch):
        factored = counted_factors(monkeypatch)
        ops = assemble(build_mesh(1, 3))
        rhs = np.cos(np.arange(ops.n_dof, dtype=float))
        x1 = ops.system_solve(0.25, rhs)
        np.testing.assert_array_equal(ops.system_solve(0.25, rhs), x1)
        ops.system_solve(0.5, rhs)
        assert len(factored) == 2


    def test_check_solves_checks_each_row(self):
        ops = assemble(build_mesh(1, 3))
        system = ops.system(0.25)
        rhs = np.vstack(
            [np.ones(ops.n_dof), np.zeros(ops.n_dof), np.arange(ops.n_dof, dtype=float)]
        )
        x = np.vstack([system.solve(r) for r in rhs])
        system.check(x, rhs)
        x[1] = 1.0  # a row with a zero right-hand side is not checked
        system.check(x, rhs)
        x[2] *= 1.0 + 1e-6
        with pytest.raises(NumericalError):
            system.check(x, rhs)
        x[2] = np.nan
        with pytest.raises(NumericalError):
            system.check(x, rhs)

    def test_check_solves_checks_each_level_of_a_stack(self):
        ops, coarse = assemble(build_mesh(1, 4)), assemble(build_mesh(1, 2))
        system = ops.system(0.25, (coarse,))
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, ops.n_dof + coarse.n_dof))
        x[1, ops.n_dof :] = 0.0  # a zero slice is not checked
        rhs = (system.matrix @ x.T).T
        system.check(x, rhs)
        x[1, ops.n_dof :] = 1.0
        system.check(x, rhs)
        x[2, ops.n_dof :] *= 1.0 + 1e-6
        with pytest.raises(NumericalError, match=f"n={coarse.n_dof},"):
            system.check(x, rhs)


class TestTridiagonalLDL:
    def test_not_tridiagonal_rejected(self):
        a = sp.diags([[1.0] * 3, [4.0] * 4, [1.0] * 3], [-1, 0, 1]).tolil()
        a[3, 0] = a[0, 3] = 0.5
        with pytest.raises(NumericalError, match="not tridiagonal"):
            TridiagonalLDL(a)

    def test_not_exactly_symmetric_rejected(self):
        a = sp.diags([[1.0, 1.0 + 2.0**-52], [4.0] * 3, [1.0, 1.0]], [-1, 0, 1])
        with pytest.raises(NumericalError, match="not exactly symmetric"):
            TridiagonalLDL(a)

    def test_not_positive_definite_rejected(self):
        # leading minors 1 and 1 - 4 < 0: dpttrf stops at pivot 2
        a = sp.diags([[2.0, 0.5], [1.0, 1.0, 4.0], [2.0, 0.5]], [-1, 0, 1])
        with pytest.raises(NumericalError, match="pivot 2 of 3"):
            TridiagonalLDL(a)

    def test_stored_zeros_off_the_band_are_ignored(self):
        a = sp.csr_matrix(([2.0, 3.0, 4.0, 0.0], ([0, 1, 2, 0], [0, 1, 2, 2])))
        assert a.nnz == 4
        x = TridiagonalLDL(a).solve(np.ones(3))
        np.testing.assert_array_equal(x, [1 / 2, 1 / 3, 1 / 4])

    def test_one_row(self):
        factor = TridiagonalLDL(sp.csr_matrix([[2.0]]))
        np.testing.assert_array_equal(factor.solve(np.array([3.0])), [1.5])

    def test_level_systems_are_exactly_symmetric(self):
        for level in range(2, 10):
            ops = assemble(build_mesh(1, level))
            for a in (ops.mass, ops.a2_matrix, ops.mass + 2.0**-14 * ops.stiffness):
                np.testing.assert_array_equal(a.diagonal(1), a.diagonal(-1))

    @pytest.mark.parametrize("cols", [2, 5, 12, 20])
    def test_block_solves_equal_column_solves(self, cols):
        # dpttrs solves each column on its own, in C, F or strided layout
        ops = assemble(build_mesh(1, 9))
        factor = ops.factor(ops.mass + 0.5 * ops.a2_matrix)
        g = np.random.default_rng(cols).standard_normal((ops.n_dof, 2 * cols))
        for block in (g[:, :cols].copy(), np.asfortranarray(g[:, :cols]), g[:, ::2]):
            x = factor.solve(block)
            for j in range(cols):
                np.testing.assert_array_equal(x[:, j], factor.solve(block[:, j]))


class TestMassFactor:
    def test_identity(self):
        eye = sp.identity(4, format="csr")
        np.testing.assert_array_equal(mass_factor(eye).toarray(), np.eye(4))

    def test_diagonal(self):
        d = sp.diags([4.0, 9.0]).tocsr()
        np.testing.assert_allclose(mass_factor(d).toarray(), np.diag([2.0, 3.0]))

    def test_round_trip_level_2(self):
        ops = assemble(build_mesh(1, 2))
        factor = mass_factor(ops.mass)
        err = np.abs((factor @ factor.T - ops.mass).toarray()).max()
        assert err <= 1e-12 * np.abs(ops.mass.toarray()).max()

    def test_lower_triangular(self):
        factor = assemble(build_mesh(2, 2)).mass_chol
        assert (sp.triu(factor, k=1)).nnz == 0

    def test_non_spd_rejected(self):
        bad = sp.diags([1.0, -1.0]).tocsr()
        with pytest.raises(NumericalError, match="mass matrix is not positive definite"):
            mass_factor(bad)


class TestRestriction:
    def test_same_level_identity(self):
        mesh = build_mesh(1, 2)
        a = restriction_matrix(mesh, mesh)
        np.testing.assert_array_equal(a.toarray(), np.eye(mesh.n_vertices))

    def test_1d_midpoint_column(self):
        # fine vertex 1/4 sits halfway between coarse vertices 0 and 1/2
        a = restriction_matrix(build_mesh(1, 1), build_mesh(1, 2))
        np.testing.assert_allclose(a[:, 1].toarray().ravel(), [0.5, 0.5, 0.0])

    @pytest.mark.parametrize("dim,lc,lf", [(1, 1, 3), (1, 2, 2), (2, 1, 3), (2, 2, 3)])
    def test_columns_sum_to_one(self, dim, lc, lf):
        a = restriction_matrix(build_mesh(dim, lc), build_mesh(dim, lf))
        col_sums = np.asarray(a.sum(axis=0)).ravel()
        np.testing.assert_allclose(col_sums, 1.0, atol=1e-14)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_prolongation_reproduces_affine(self, dim):
        coarse, fine = build_mesh(dim, 2), build_mesh(dim, 4)
        a = restriction_matrix(coarse, fine)
        g = lambda pts: 1.0 - 0.5 * pts[:, 0] + (pts[:, -1] if dim == 2 else 0.0)
        np.testing.assert_allclose(
            a.T @ g(coarse.vertices), g(fine.vertices), atol=1e-14
        )

    @pytest.mark.parametrize("dim,top", [(1, 9), (2, 5)])
    def test_restrictions_compose_and_reproduce_affine_exactly(self, dim, top):
        # nested P1 spaces: a coarse hat is a combination of the finer hats,
        # and dyadic weights and values keep every sum exact
        meshes = [build_mesh(dim, level) for level in range(top + 1)]
        a = {
            (c, f): restriction_matrix(meshes[c], meshes[f])
            for c in range(top + 1) for f in range(c, top + 1)
        }
        for g in (
            lambda x: 0.75 - 0.5 * x[:, 0] + 0.25 * x[:, -1],
            lambda x: x[:, 0] - 3.0 * x[:, -1],
            lambda x: np.full(len(x), 2.0),
        ):
            for (c, f), a_cf in a.items():
                np.testing.assert_array_equal(
                    a_cf.T @ g(meshes[c].vertices), g(meshes[f].vertices)
                )
        for (c, f), a_cf in a.items():
            for m in range(c, f + 1):
                assert (a_cf != a[c, m] @ a[m, f]).nnz == 0, (c, m, f)

    def test_rejects_mismatched(self):
        with pytest.raises(DomainError):
            restriction_matrix(build_mesh(1, 2), build_mesh(2, 2))
        with pytest.raises(DomainError):
            restriction_matrix(build_mesh(1, 3), build_mesh(1, 2))


# the rows of assembly_checks, in order; the last two check the transfers to
# the next coarser level, so level 0 has only the first six
CHECK_NAMES = [
    "mass matches oracle",
    "stiffness matches oracle",
    "stiffness kernel contains constants",
    "total measure is 1",
    "K equals M + T",
    "Cholesky round trip",
    "restriction columns sum to 1",
    "prolongation reproduces affine functions",
]


class TestChecks:
    def test_default_suite_passes(self):
        for dim, level in [(1, 3), (2, 2)]:
            assert all(r.passed for r in assembly_checks(dim, level))

    def test_corruption_detected(self):
        results = assembly_checks(1, 2, corrupt=True)
        failed = [r for r in results if not r.passed]
        assert failed
        assert "diff" in failed[0].detail

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_rows_come_in_order(self, dim, level):
        names = [r.name for r in assembly_checks(dim, level)]
        assert names == CHECK_NAMES[: 6 if level == 0 else 8]

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("level", [0, 2])
    def test_corruption_fails_only_the_mass_row(self, dim, level):
        results = assembly_checks(dim, level, corrupt=True)
        assert [r.name for r in results if not r.passed] == ["mass matches oracle"]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_a_scaled_restriction_fails_the_transfer_rows(self, dim, monkeypatch):
        real = checks.restriction_matrix
        monkeypatch.setattr(
            checks, "restriction_matrix", lambda coarse, fine: 1.001 * real(coarse, fine)
        )
        results = assembly_checks(dim, 2)
        assert [r.name for r in results if not r.passed] == CHECK_NAMES[6:]


# (dim, stream level, coarse levels, dt): the stacks of the space studies,
# then runs alone on their time grid (the references and a time-study run)
STACKS = [
    (1, 9, (2, 3, 4, 5, 6), 2.0**-14),
    (2, 6, (2, 3, 4), 2.0**-6),
    (1, 9, (), 2.0**-14),
    (2, 6, (), 2.0**-6),
    (1, 9, (), 2.0**-6),
    (2, 6, (2, 3, 4), 2.0**-12),
]


@pytest.mark.parametrize("dim,fine,coarse,dt", STACKS)
def test_stacked_solves_match_each_level(dim, fine, coarse, dt):
    # in 1-d the LDLᵀ of the stack decouples at the zero coupling between
    # its blocks, so each slice is held to the solve of its level's own
    # factor; in 2-d this guards the pre-permuted natural-order
    # factorization and the orders read off incomplete LUs, which must be
    # those of each level's own LU (a plain splu with the symmetric order
    # rounds differently), so each slice is held to its level's own system
    levels = [assemble(build_mesh(dim, lv)) for lv in (fine, *coarse)]
    system = levels[0].system(dt, tuple(levels[1:]))
    offsets = system.offsets
    np.testing.assert_array_equal(offsets, np.cumsum([0] + [o.n_dof for o in levels]))
    own = [(o.mass + dt * o.stiffness).tocsc() for o in levels]
    for a, s0, s1 in zip(own, offsets, offsets[1:]):
        assert (system.matrix[s0:s1, s0:s1] != a).nnz == 0
    solves = [
        o.factor(a).solve if dim == 1 else o.system(dt).solve
        for a, o in zip(own, levels)
    ]
    rng = np.random.default_rng(11)
    for _ in range(20):
        rhs = rng.standard_normal(offsets[-1])
        x = system.solve(rhs)
        system.check(x[None], rhs[None])
        for o, solve, s0, s1 in zip(levels, solves, offsets, offsets[1:]):
            np.testing.assert_array_equal(x[s0:s1], solve(rhs[s0:s1]))
            np.testing.assert_array_equal(
                (system.mass @ x)[s0:s1], o.mass @ x[s0:s1]
            )


def counted_factors(monkeypatch):
    """Record (kind, size) of every factor and incomplete LU from now on."""
    import spdelab.mesh as mesh_module

    factored = []

    def counting(kind, real):
        def factor(*args, **options):  # (self, a) for the method, (a,) for spilu
            factored.append((kind, args[-1].shape[0]))
            return real(*args, **options)

        return factor

    monkeypatch.setattr(FemOperators, "factor", counting("factor", FemOperators.factor))
    monkeypatch.setattr(mesh_module, "spilu", counting("ilu", mesh_module.spilu))
    return factored


def test_system_built_once_per_dt_and_levels(monkeypatch):
    factored = counted_factors(monkeypatch)
    ops, c2, c3 = (assemble(build_mesh(1, lv)) for lv in (4, 2, 3))
    first = ops.system(0.25, (c2, c3))
    # one factor of the tridiagonal stack, no level keeps one of its own,
    # and no order is read off an incomplete LU
    assert factored == [("factor", 31)]
    assert ops.system(0.25, (c2, c3)) is first
    assert len(factored) == 1
    ops.system(0.5, (c2, c3))
    ops.system(0.25, (c3, c2))
    ops.system(0.25, (c2,))
    assert factored[1:] == [("factor", 31), ("factor", 31), ("factor", 22)]
    # one level is a stack of one, cached under the same key shape, and
    # system_solve uses it
    alone = ops.system(0.25)
    assert factored[-1] == ("factor", 17)
    assert ops.system(0.25, ()) is alone
    rhs = np.arange(ops.n_dof, dtype=float)
    np.testing.assert_array_equal(ops.system_solve(0.25, rhs), alone.solve(rhs))
    assert len(factored) == 5


def test_2d_stack_orders_come_from_each_level(monkeypatch):
    factored = counted_factors(monkeypatch)
    ops, c1 = (assemble(build_mesh(2, lv)) for lv in (3, 1))
    ops.system(0.25, (c1,))
    # each level's column order is read off an incomplete LU, then the
    # pre-permuted stack is factored once
    assert factored == [("ilu", 81), ("ilu", 9), ("factor", 90)]
