import numpy as np
import pytest
import scipy.sparse as sp

from spdelab.checks import assembly_checks, expected_1d_matrices, expected_2d_matrices
from spdelab.exceptions import (
    CapacityError,
    DomainError,
    FactorizationError,
    NumericalError,
)
from spdelab.mesh import (
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
        with pytest.raises(CapacityError):
            build_mesh(1, 15)
        with pytest.raises(CapacityError):
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
        import spdelab.mesh as mesh_module

        factored = []
        real_splu = mesh_module.splu

        def counting_splu(a):
            factored.append(a.shape)
            return real_splu(a)

        monkeypatch.setattr(mesh_module, "splu", counting_splu)
        ops = assemble(build_mesh(1, 3))
        rhs = np.cos(np.arange(ops.n_dof, dtype=float))
        x1 = ops.system_solve(0.25, rhs)
        np.testing.assert_array_equal(ops.system_solve(0.25, rhs), x1)
        ops.system_solve(0.5, rhs)
        assert len(factored) == 2


    def test_check_solves_checks_each_row(self):
        ops = assemble(build_mesh(1, 3))
        lu, _system = ops.system_factor(0.25)
        rhs = np.vstack(
            [np.ones(ops.n_dof), np.zeros(ops.n_dof), np.arange(ops.n_dof, dtype=float)]
        )
        x = np.vstack([lu.solve(r) for r in rhs])
        ops.check_solves(0.25, x, rhs)
        x[1] = 1.0  # a row with a zero right-hand side is not checked
        ops.check_solves(0.25, x, rhs)
        x[2] *= 1.0 + 1e-6
        with pytest.raises(NumericalError):
            ops.check_solves(0.25, x, rhs)
        x[2] = np.nan
        with pytest.raises(NumericalError):
            ops.check_solves(0.25, x, rhs)


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
        with pytest.raises(FactorizationError):
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

    def test_rejects_mismatched(self):
        with pytest.raises(DomainError):
            restriction_matrix(build_mesh(1, 2), build_mesh(2, 2))
        with pytest.raises(DomainError):
            restriction_matrix(build_mesh(1, 3), build_mesh(1, 2))


class TestChecks:
    def test_default_suite_passes(self):
        for dim, level in [(1, 3), (2, 2)]:
            assert all(r.passed for r in assembly_checks(dim, level))

    def test_corruption_detected(self):
        results = assembly_checks(1, 2, corrupt=True)
        failed = [r for r in results if not r.passed]
        assert failed
        assert "diff" in failed[0].detail
