import math

import numpy as np
import pytest
import scipy.linalg

from spdelab import fracpow, stepper
from spdelab.driver import sample_driver
from spdelab.exceptions import CapacityError, DomainError
from spdelab.fracpow import apply_qgamma, make_spec, scalar_qgamma
from spdelab.mesh import FemOperators, assemble, build_mesh
from spdelab.noise import NoiseStream


class TestMakeSpec:
    def test_node_counts_half(self):
        spec = make_spec(0.5, 0.5)
        assert spec.n_pos == spec.n_neg == 40
        assert spec.nodes.size == 81

    def test_full_inverse_sentinel(self):
        spec = make_spec(1.0, 0.5)
        assert spec.is_full_inverse
        assert spec.nodes.size == 0

    def test_identity_sentinel(self):
        spec = make_spec(0.0, 0.5)
        assert spec.is_identity
        assert spec.nodes.size == 0

    def test_nodes_increasing(self):
        spec = make_spec(0.3, 0.4)
        assert np.all(np.diff(spec.nodes) > 0.0)
        np.testing.assert_allclose(spec.nodes, np.arange(-spec.n_neg, spec.n_pos + 1) * 0.4)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            make_spec(-0.1, 0.5)
        with pytest.raises(DomainError):
            make_spec(1.1, 0.5)
        with pytest.raises(DomainError):
            make_spec(0.5, 0.0)
        for k in (math.inf, math.nan):
            with pytest.raises(DomainError):
                make_spec(0.5, k)

    @pytest.mark.parametrize(
        "gamma,k",
        # nodes ~ pi^2 / (2 gamma k^2): 2e13 and 2e15; k**2 underflows to 0;
        # the count overflows to inf
        [(1e-12, 0.5), (0.5, 1e-7), (0.5, 1e-200), (1e-320, 0.5)],
    )
    def test_node_guard(self, gamma, k):
        with pytest.raises(CapacityError):
            make_spec(gamma, k)

    def test_node_guard_admits_the_studied_resolutions(self):
        # the finest quadratures of the tests and acceptance criteria
        for gamma in (1e-3, 0.25, 0.5, 0.75, 1.0 - 1e-3):
            assert make_spec(gamma, 0.25).nodes.size <= fracpow.MAX_NODES

    def test_node_counts_unit_resolution(self):
        spec = make_spec(0.5, 1.0)
        assert spec.n_pos == spec.n_neg == 10
        assert spec.nodes.size == 21


class TestScalarQgamma:
    def test_at_one(self):
        assert scalar_qgamma(make_spec(0.5, 0.5), 1.0) == pytest.approx(1.0, abs=1e-4)

    def test_at_ten_quarter(self):
        expected = 10.0**-0.25
        got = scalar_qgamma(make_spec(0.25, 0.25), 10.0)
        assert got == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("a", [0.5, 1.0, 10.0])
    def test_exponential_error_decay(self, gamma, a):
        # error(k) ~ C exp(-pi^2 / (2k)): each halving of k multiplies the
        # log-error drop; check the trend without pinning the constant
        errs = [
            abs(scalar_qgamma(make_spec(gamma, k), a) - a**-gamma)
            for k in (1.0, 0.5, 0.25)
        ]
        assert errs[0] > errs[1] > errs[2]
        for k, e_k, e_half in zip((1.0, 0.5), errs, errs[1:]):
            predicted_drop = math.pi**2 / (2.0 * k)
            measured_drop = math.log(e_k / e_half)
            assert predicted_drop / 3.0 <= measured_drop <= predicted_drop * 3.0

    def test_monotone_in_a(self):
        spec = make_spec(0.4, 0.3)
        vals = [scalar_qgamma(spec, a) for a in (0.5, 1.0, 2.0, 5.0, 20.0)]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_sentinel_continuity_at_one(self):
        # gamma -> 0+ and gamma -> 1- both approach the sentinel value 1 at a = 1
        for gamma in (1e-3, 1.0 - 1e-3):
            assert scalar_qgamma(make_spec(gamma, 0.25), 1.0) == pytest.approx(
                1.0, abs=1e-2
            )
        assert scalar_qgamma(make_spec(0.0, 0.25), 1.0) == 1.0
        assert scalar_qgamma(make_spec(1.0, 0.25), 1.0) == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            scalar_qgamma(make_spec(0.5, 0.5), 0.0)


class TestApplyQgamma:
    def test_scalar_surrogate(self):
        # 1x1 pencil M = 1, K = a reduces to the scalar quadrature
        import types

        import scipy.sparse as sp

        class TinyOps:
            mass = sp.csr_matrix(np.array([[1.0]]))
            a2_matrix = sp.csr_matrix(np.array([[2.0]]))
            n_dof = 1
            mesh = types.SimpleNamespace(dim=1)
            factor = FemOperators.factor

            def cached(self, key, build):
                return build()

        spec = make_spec(0.5, 0.25)
        got = apply_qgamma(spec, TinyOps(), np.array([1.0]))
        assert got[0] == pytest.approx(2.0**-0.5, abs=1e-6)

    def test_constant_eigenvector(self):
        # K 1 = M 1, so the load M @ 1 maps to 1^(-gamma) * 1 = 1
        ops = assemble(build_mesh(1, 3))
        spec = make_spec(0.5, 0.25)
        got = apply_qgamma(spec, ops, ops.mass @ np.ones(ops.n_dof))
        np.testing.assert_allclose(got, 1.0, atol=1e-6)

    def test_full_inverse_round_trip(self):
        ops = assemble(build_mesh(1, 4))
        v = np.sin(np.linspace(0.0, 3.0, ops.n_dof))
        got = apply_qgamma(make_spec(1.0, 0.5), ops, ops.a2_matrix @ v)
        np.testing.assert_allclose(got, v, atol=1e-10)

    def test_identity_is_mass_inverse(self):
        ops = assemble(build_mesh(1, 3))
        v = np.cos(np.linspace(0.0, 2.0, ops.n_dof))
        got = apply_qgamma(make_spec(0.0, 0.5), ops, ops.mass @ v)
        np.testing.assert_allclose(got, v, atol=1e-10)

    @pytest.mark.parametrize("level", [2, 3, 4])
    @pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75])
    def test_spectral_equivalence(self, level, gamma):
        # diagonalize the pencil K v = lambda M v and compare against the
        # eigenspace-wise scalar map applied mode by mode
        ops = assemble(build_mesh(1, level))
        spec = make_spec(gamma, 0.5)
        k_dense = ops.a2_matrix.toarray()
        m_dense = ops.mass.toarray()
        lam, vecs = scipy.linalg.eigh(k_dense, m_dense)
        g = np.sin(np.arange(ops.n_dof, dtype=float))
        expected = vecs @ (
            np.array([scalar_qgamma(spec, lv) for lv in lam]) * (vecs.T @ g)
        )
        got = apply_qgamma(spec, ops, g)
        np.testing.assert_allclose(got, expected, atol=1e-8)

    def test_batched_columns_match(self):
        ops = assemble(build_mesh(1, 3))
        spec = make_spec(0.5, 0.5)
        g = np.random.default_rng(1).standard_normal((ops.n_dof, 4))
        batched = apply_qgamma(spec, ops, g)
        for j in range(4):
            np.testing.assert_allclose(batched[:, j], apply_qgamma(spec, ops, g[:, j]))

    def test_dimension_mismatch(self):
        ops = assemble(build_mesh(1, 3))
        with pytest.raises(DomainError):
            apply_qgamma(make_spec(0.5, 0.5), ops, np.ones(4))

    def test_solver_cache_reused(self, monkeypatch):
        # the solver is built once per (operators, gamma, k), then reused
        built = []

        def counting_solver(ops, spec):
            built.append((spec.gamma, spec.k))
            return solver_class(ops, spec)

        solver_class = fracpow._PencilSolver
        monkeypatch.setattr(fracpow, "_PencilSolver", counting_solver)
        ops = assemble(build_mesh(1, 3))
        first = apply_qgamma(make_spec(0.5, 0.5), ops, np.ones(ops.n_dof))
        again = apply_qgamma(make_spec(0.5, 0.5), ops, np.ones(ops.n_dof))
        np.testing.assert_array_equal(first, again)
        apply_qgamma(make_spec(0.25, 0.5), ops, np.ones(ops.n_dof))
        assert built == [(0.5, 0.5), (0.25, 0.5)]


def whole_block_oracle(spec, ops, g):
    """The quadrature of ``g`` with one solve per node of the whole block."""
    solver = fracpow._PencilSolver(ops, spec)
    out = np.zeros_like(g)
    for scale, factor in zip(solver._scales, solver._factors):
        out += scale * factor.solve(g)
    return out


class TestChunkedColoring:
    @pytest.mark.parametrize("level", [3, 5])
    @pytest.mark.parametrize("cols", [1, 2, 255, 256, 257, 513, 8193])
    def test_1d_chunks_equal_the_whole_block(self, level, cols):
        ops = assemble(build_mesh(1, level))
        spec = make_spec(0.75, 0.5)
        g = np.random.default_rng(cols).standard_normal((ops.n_dof, cols))
        np.testing.assert_array_equal(
            apply_qgamma(spec, ops, g), whole_block_oracle(spec, ops, g)
        )

    def test_1d_snapshots_equal_the_whole_block(self, monkeypatch):
        # 513 snapshots: chunks of 256 and 257 columns
        ops = assemble(build_mesh(1, 3))
        cfg = stepper.SchemeConfig(
            dim=1, gamma=0.75, space_level=3, time_steps=2**9, master_seed=4,
            mode="final_time",
        )

        def run():
            stream = NoiseStream(seed=4, fine_level=3, fine_steps=2**9)
            return stepper.evolve_fast(
                cfg, stream, sample_driver(4, 20), ops=ops, snapshot_level=9
            )

        chunked = run()
        monkeypatch.setattr(stepper, "apply_qgamma", whole_block_oracle)
        whole = run()
        np.testing.assert_array_equal(chunked.snapshots, whole.snapshots)
        np.testing.assert_array_equal(chunked.alpha, whole.alpha)

    def test_2d_chunks_match_the_whole_block(self):
        # in 2-d the multi-column supernodal solves go through BLAS, whose
        # kernel depends on the block width, so a 1,025-column block and its
        # chunks of 256 may round differently in the last bits; entries that
        # cancel to near zero make the error relative to each column's norm
        ops = assemble(build_mesh(2, 5))
        spec = make_spec(0.5, 0.5)
        g = np.random.default_rng(5).standard_normal((ops.n_dof, 1025))
        got = apply_qgamma(spec, ops, g)
        expected = whole_block_oracle(spec, ops, g)
        err = np.linalg.norm(got - expected, axis=0)
        assert np.all(err <= 1e-12 * np.linalg.norm(expected, axis=0))


def test_2d_factors_take_the_symmetric_order():
    # COLAMD with partial pivoting keeps 314,140 entries of L + U in either
    # factor at 2-d level 6; the symmetric minimum-degree order keeps
    # 203,460 and pivots on the diagonal
    ops = assemble(build_mesh(2, 6))
    lus = [fracpow._shift_factor(ops, 0.5), ops.system(2.0**-12)._factor]
    for lu in lus:
        assert lu.nnz <= 210_000
        np.testing.assert_array_equal(lu.perm_r, lu.perm_c)


def test_pencil_memory_guard(monkeypatch):
    # 1,995 nodes x about 203k entries of L + U at 2-d level 6
    built = counted_factors(monkeypatch)
    ops = assemble(build_mesh(2, 6))
    with pytest.raises(CapacityError):
        apply_qgamma(make_spec(0.01, 0.5), ops, np.ones(ops.n_dof))
    assert len(built) == 1
    apply_qgamma(make_spec(0.5, 0.5), ops, np.ones(ops.n_dof))  # 81 nodes fit


def counted_factors(monkeypatch):
    """Record the shape of every matrix factored from now on."""
    built = []
    factor = FemOperators.factor

    def counting_factor(self, a, **options):
        built.append(a.shape)
        return factor(self, a, **options)

    monkeypatch.setattr(FemOperators, "factor", counting_factor)
    return built


def fresh_ops_oracle(spec, ops, g):
    """The quadrature of ``g`` with every node of ``spec`` factored anew."""
    fresh = assemble(ops.mesh)
    return fracpow._PencilSolver(fresh, spec).apply(g)


class TestSharedShifts:
    # at k 0.5, gamma 0.25 has nodes j in [-27, 79] and gamma 0.75 has
    # j in [-79, 27]: 107 each, 55 in common
    def test_common_shifts_are_factored_once(self, monkeypatch):
        built = counted_factors(monkeypatch)
        ops = assemble(build_mesh(1, 4))
        first, second = make_spec(0.25, 0.5), make_spec(0.75, 0.5)
        apply_qgamma(first, ops, np.ones(ops.n_dof))
        assert len(built) == 107
        apply_qgamma(second, ops, np.ones(ops.n_dof))
        assert len(built) == 159
        solvers = [
            ops.cached(("quadrature", spec.gamma, spec.k), None)
            for spec in (first, second)
        ]
        # node j sits at index j + 27 of the first spec and j + 79 of the second
        for j in range(-27, 28):
            assert solvers[0]._factors[j + 27] is solvers[1]._factors[j + 79]
        assert len({id(f) for solver in solvers for f in solver._factors}) == 159

    @pytest.mark.parametrize(
        "dim,gammas,cols",
        [(1, (0.25, 0.75), 1), (1, (0.25, 0.75), 300), (2, (0.5, 0.75), 1)],
    )
    def test_shared_factors_equal_fresh_ones(self, dim, gammas, cols):
        ops = assemble(build_mesh(dim, 4))
        g = np.random.default_rng(cols).standard_normal((ops.n_dof, cols))
        for gamma in gammas:
            spec = make_spec(gamma, 0.5)
            np.testing.assert_array_equal(
                apply_qgamma(spec, ops, g), fresh_ops_oracle(spec, ops, g)
            )
