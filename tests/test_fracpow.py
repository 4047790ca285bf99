import gc
import inspect
import math
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.lapack import dpttrs

from spdelab import fracpow, mesh, stepper
from spdelab.driver import sample_driver
from spdelab.exceptions import DomainError
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
        # inf, nan, and a k whose square overflows, a float or an integer
        for k in (math.inf, math.nan, 1e300, 10**400):
            with pytest.raises(DomainError, match="k must be positive"):
                make_spec(0.5, k)
        assert make_spec(0.5, math.sqrt(np.finfo(float).max)).nodes.size == 3

    def test_an_integer_k_past_int64_has_float_nodes(self):
        # a JSON integer k reaches make_spec as a Python int
        nodes = make_spec(0.5, 2**64).nodes
        np.testing.assert_array_equal(nodes, [-(2.0**64), 0.0, 2.0**64])

    @pytest.mark.parametrize(
        "gamma,k",
        # nodes ~ pi^2 / (2 gamma k^2): 2e13 and 2e15; k**2 underflows to 0;
        # the count overflows to inf
        [(1e-12, 0.5), (0.5, 1e-7), (0.5, 1e-200), (1e-320, 0.5)],
    )
    def test_node_guard(self, gamma, k):
        with pytest.raises(DomainError, match="quadrature nodes"):
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
        # 1x1 pencil M = 1, K = a reduces to the scalar quadrature; a 2-d
        # mesh, so that it is the sum of the pencil solves
        import types

        import scipy.sparse as sp

        class TinyOps:
            mass = sp.csr_matrix(np.array([[1.0]]))
            a2_matrix = sp.csr_matrix(np.array([[2.0]]))
            n_dof = 1
            mesh = types.SimpleNamespace(dim=2)
            factor = FemOperators.factor
            lu_options = FemOperators.lu_options

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
        # the coloring is built once per (operators, gamma, k), then reused
        built = []

        def counting_coloring(ops, spec):
            built.append((spec.gamma, spec.k))
            return coloring(ops, spec)

        coloring = fracpow._coloring
        monkeypatch.setattr(fracpow, "_coloring", counting_coloring)
        ops = assemble(build_mesh(1, 3))
        first = apply_qgamma(make_spec(0.5, 0.5), ops, np.ones(ops.n_dof))
        again = apply_qgamma(make_spec(0.5, 0.5), ops, np.ones(ops.n_dof))
        np.testing.assert_array_equal(first, again)
        apply_qgamma(make_spec(0.25, 0.5), ops, np.ones(ops.n_dof))
        assert built == [(0.5, 0.5), (0.25, 0.5)]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("gamma", [0.5, 1.0])
@pytest.mark.parametrize("in_place", [False, True])
def test_no_coloring_keeps_its_operators_alive(dim, gamma, in_place):
    # the operators cache the coloring; were it to reference them, the cycle
    # would keep a level's matrices and factors alive until a collection
    gc.disable()
    try:
        ops = assemble(build_mesh(dim, 3))
        apply_qgamma(make_spec(gamma, 0.5), ops, np.ones((ops.n_dof, 3)), in_place=in_place)
        coloring = ops.cached(("quadrature", gamma, 0.5), None)
        refs = [weakref.ref(ops), weakref.ref(coloring)]
        del ops, coloring
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def pencil_terms(spec, ops):
    """Per node of ``spec``, in node order: its weight, computed here, and the
    factor of its shifted system, made anew by ``fracpow._shift_factor``."""
    c = spec.k * math.sin(math.pi * spec.gamma) / math.pi
    for y in spec.nodes:
        weight = c * math.exp(-spec.gamma * y if y >= 0.0 else (1.0 - spec.gamma) * y)
        yield weight, fracpow._shift_factor(ops, y)


def whole_block_oracle(spec, ops, g):
    """The pencil sum of ``g``: the quadrature with one solve per node of the
    whole block."""
    out = np.zeros_like(g)
    for weight, factor in pencil_terms(spec, ops):
        out += weight * factor.solve(g)
    return out


def dpttrs_oracle(spec, ops, g):
    """The 1-d pencil sum of ``g`` with one LAPACK ``dpttrs`` call per column
    and node."""
    columns = np.asfortranarray(g.reshape(g.shape[0], -1)).T
    out = np.zeros_like(g)
    for weight, factor in pencil_terms(spec, ops):
        x = np.column_stack([dpttrs(factor._d, factor._e, c)[0] for c in columns])
        out += weight * x.reshape(g.shape)
    return out


def c_slice_oracle(spec, ops, g):
    """The quadrature of ``g`` in ``COLOR_COLUMNS`` chunks, a lone last column
    joining the chunk before it, each node solving a C-ordered slice."""
    block = np.ascontiguousarray(g.reshape(g.shape[0], -1))  # a column is a block of one
    out = np.zeros_like(block)
    cols = block.shape[1]
    edges = [*range(0, max(cols - 1, 1), fracpow.COLOR_COLUMNS), cols]
    terms = list(pencil_terms(spec, ops))
    for lo, hi in zip(edges, edges[1:]):
        for weight, factor in terms:
            x = factor.solve(block[:, lo:hi])
            x *= weight
            out[:, lo:hi] += x
    return out.reshape(g.shape)


# level -> the most that a 1-d DCT-I coloring may differ from the pencil sum,
# relative to its largest entry: 3-5x the largest gap measured over gamma
# 0.25, 0.5 and 0.75, k 0.5 and 0.25 and 1, 16 and 300 columns, which was
# 2.2e-15, 2.3e-15, 2.9e-15, 1.2e-14, 4.6e-14, 1.7e-13, 7.5e-13, 2.6e-12,
# 1.5e-11 and 3.9e-11 at levels 0-9
PENCIL_SUM_GAP = {
    0: 1e-14, 1: 1e-14, 2: 1e-14, 3: 4e-14, 4: 1.5e-13,
    5: 5e-13, 6: 2.5e-12, 7: 8e-12, 8: 5e-11, 9: 1.2e-10,
}


def assert_near_pencil_sum(got, expected, level):
    """``got``, a 1-d DCT-I coloring, lies within ``PENCIL_SUM_GAP[level]``
    of the pencil sum ``expected``, relative to its largest entry."""
    gap = np.abs(got - expected).max()
    assert gap <= PENCIL_SUM_GAP[level] * np.abs(expected).max()


def layouts(g):
    """``g`` C-ordered, F-ordered and as a view of every other column."""
    strided = np.zeros((g.shape[0], 2 * g.shape[1]))
    strided[:, ::2] = g
    return np.ascontiguousarray(g), np.asfortranarray(g), strided[:, ::2]


def final_time_run(steps_exp, snapshot_level, dim=1, level=3):
    """A final-time path of 2^steps_exp steps, with snapshots (1-d level 3)."""
    ops = assemble(build_mesh(dim, level))
    cfg = stepper.SchemeConfig(
        dim=dim, gamma=0.75, space_level=level, time_steps=2**steps_exp,
        master_seed=4, mode="final_time",
    )
    stream = NoiseStream(seed=4, fine_level=level, fine_steps=2**steps_exp)
    return stepper.evolve_fast(
        cfg, stream, sample_driver(4, 20), ops=ops, snapshot_level=snapshot_level
    )


def on_the_snapshot_path(oracle):
    """A final-time run's ``apply_qgamma`` with ``oracle`` in its place: the
    raw states it colors in place, the snapshots and the final state, are
    overwritten with the oracle of their load vectors, ``M @ raw.T`` whole."""

    def apply(spec, ops, raw, *, in_place):
        assert in_place
        raw[...] = oracle(spec, ops, ops.mass @ raw)
        return raw

    return apply


class TestChunkedColoring:
    @pytest.mark.parametrize("level", [3, 5])
    @pytest.mark.parametrize("cols", [1, 2, 255, 256, 257, 513, 8193])
    def test_1d_chunks_equal_the_whole_block(self, level, cols):
        # the DCT-I colors each column on its own, so the chunks of a block
        # give its columns' bits, near the pencil sum of the whole block
        ops = assemble(build_mesh(1, level))
        spec = make_spec(0.75, 0.5)
        g = np.random.default_rng(cols).standard_normal((ops.n_dof, cols))
        got = apply_qgamma(spec, ops, g)
        assert_near_pencil_sum(got, whole_block_oracle(spec, ops, g), level)
        for j in (0, cols // 2, cols - 1):
            np.testing.assert_array_equal(got[:, j], apply_qgamma(spec, ops, g[:, j]))

    def test_1d_snapshots_equal_the_whole_block(self, monkeypatch):
        # 513 snapshots, colored in place in chunks of 256 and 257 columns
        chunked = final_time_run(9, 9)
        monkeypatch.setattr(stepper, "apply_qgamma", on_the_snapshot_path(whole_block_oracle))
        whole = final_time_run(9, 9)
        assert chunked.snapshots.flags.c_contiguous
        assert_near_pencil_sum(chunked.snapshots, whole.snapshots, 3)
        assert_near_pencil_sum(chunked.alpha, whole.alpha, 3)

    def test_1d_swept_snapshots_equal_dpttrs_solves(self, monkeypatch):
        # 4,097 snapshots, colored in place in the DCT-I eigenbasis, and the
        # final state, near one dpttrs solve per column and node
        wide = final_time_run(12, 12)
        monkeypatch.setattr(stepper, "apply_qgamma", on_the_snapshot_path(dpttrs_oracle))
        solved = final_time_run(12, 12)
        assert wide.snapshots.shape == (4097, 9)
        assert_near_pencil_sum(wide.snapshots, solved.snapshots, 3)
        assert_near_pencil_sum(wide.alpha, solved.alpha, 3)

    def test_2d_snapshots_equal_per_node_solves_of_c_slices(self, monkeypatch):
        # 513 snapshots of a 2-d run, colored in place in chunks of 256 and 257
        # columns, round like the chunks of the whole block M @ raw.T
        chunked = final_time_run(9, 9, dim=2, level=2)
        monkeypatch.setattr(stepper, "apply_qgamma", on_the_snapshot_path(c_slice_oracle))
        sliced = final_time_run(9, 9, dim=2, level=2)
        assert chunked.snapshots.shape == (513, 25)
        np.testing.assert_array_equal(chunked.snapshots, sliced.snapshots)
        np.testing.assert_array_equal(chunked.alpha, sliced.alpha)

    def test_wide_1d_blocks_make_no_dpttrs_call(self, monkeypatch):
        # no width of block, down to a single vector, takes a pencil solve
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return dpttrs(*args, **kwargs)

        monkeypatch.setattr(mesh, "dpttrs", counted)
        ops = assemble(build_mesh(1, 5))
        spec = make_spec(0.75, 0.5)  # 107 nodes
        g = np.random.default_rng(8).standard_normal((ops.n_dof, 8193))
        for cols in (1, 2, 16, 255, 256, 257, 2048, 8193):
            apply_qgamma(spec, ops, g[:, :cols])
        apply_qgamma(spec, ops, g[:, 0])
        assert calls == []

    @pytest.mark.parametrize("cols", [257, 513])
    def test_2d_chunks_equal_per_node_solves_of_c_slices(self, cols):
        # one F copy per chunk, as SuperLU solves it, rounds like a solve of
        # the C slice at every node
        ops = assemble(build_mesh(2, 4))
        spec = make_spec(0.75, 0.5)
        g = np.random.default_rng(cols).standard_normal((ops.n_dof, cols))
        blocks = layouts(g)
        expected = c_slice_oracle(spec, ops, blocks[0])
        for block in blocks:
            np.testing.assert_array_equal(apply_qgamma(spec, ops, block), expected)

    @pytest.mark.parametrize(
        "level,cols", [(5, 1), (5, 16), (5, 257), (3, 2049), (0, 2048)]
    )
    def test_1d_blocks_equal_dpttrs_column_solves(self, level, cols):
        # every layout gives the same bits, near the dpttrs solves
        ops = assemble(build_mesh(1, level))
        spec = make_spec(0.75, 0.5)
        g = np.random.default_rng(cols).standard_normal((ops.n_dof, cols))
        blocks = layouts(g)
        got = apply_qgamma(spec, ops, blocks[0])
        assert_near_pencil_sum(got, dpttrs_oracle(spec, ops, blocks[0]), level)
        for block in blocks[1:]:
            np.testing.assert_array_equal(apply_qgamma(spec, ops, block), got)
        column = apply_qgamma(spec, ops, blocks[2][:, 0])  # a strided vector
        np.testing.assert_array_equal(column, got[:, 0])

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


def endpoint_factor(gamma, ops):
    """The factor of M (gamma 0) or K (gamma 1), made anew."""
    return ops.factor(ops.a2_matrix if gamma else ops.mass)


class TestEndpoints:
    # gamma 0 and 1 are the quadrature of one node of weight 1: each chunk is
    # one solve with the factor of M or of K, so a 1-d block of any width and
    # a 2-d block of one chunk give the bits of one solve of the whole block
    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    @pytest.mark.parametrize(
        "dim,cols", [(1, None), (1, 1), (1, 256), (1, 257), (1, 513),
                     (2, None), (2, 1), (2, 256)],
    )
    def test_a_block_is_one_solve(self, dim, cols, gamma):
        ops = assemble(build_mesh(dim, 5 if dim == 1 else 4))
        factor = endpoint_factor(gamma, ops)
        rng = np.random.default_rng(cols)
        coef = rng.standard_normal(ops.n_dof if cols is None else (ops.n_dof, cols))
        load = ops.mass @ coef
        spec = make_spec(gamma, 0.5)
        np.testing.assert_array_equal(apply_qgamma(spec, ops, load), factor.solve(load))
        apply_qgamma(spec, ops, coef, in_place=True)
        np.testing.assert_array_equal(coef, factor.solve(load))

    @pytest.mark.parametrize("gamma", [0.0, 1.0])
    def test_wide_2d_chunks_match_the_whole_block(self, gamma):
        # 513 columns are colored as chunks of 256 and 257, whose supernodal
        # solves may round unlike one solve of the whole block
        ops = assemble(build_mesh(2, 4))
        coef = np.random.default_rng(513).standard_normal((ops.n_dof, 513))
        load = ops.mass @ coef
        expected = endpoint_factor(gamma, ops).solve(load)
        spec = make_spec(gamma, 0.5)
        for got in (apply_qgamma(spec, ops, load),
                    apply_qgamma(spec, ops, coef, in_place=True)):
            err = np.linalg.norm(got - expected, axis=0)
            assert np.all(err <= 1e-14 * np.linalg.norm(expected, axis=0))


LD = np.longdouble
PI_LD = np.arccos(LD(-1.0))


def dct_basis(n, dtype=float):
    """V_ij = cos(pi i j / N) of the N + 1 = n nodes, with the angle reduced
    exactly, and D = diag(1/2, 1, ..., 1, 1/2)."""
    i = np.arange(n)
    pi = PI_LD if dtype is LD else np.pi
    v = np.cos(pi * (np.outer(i, i) % (2 * n - 2)).astype(dtype) / (n - 1))
    return v, np.r_[0.5, np.ones(n - 2), 0.5].astype(dtype)


def shifts_ld(spec):
    """Per node in long double: its weight and the coefficients (a, b) of its
    shifted system a M + b K."""
    gamma, y = LD(spec.gamma), spec.nodes.astype(LD)
    c = LD(spec.k) * np.sin(PI_LD * gamma) / PI_LD
    pos = y >= 0
    weight = c * np.exp(np.where(pos, -gamma * y, (1 - gamma) * y))
    return weight, np.where(pos, 1, np.exp(y)), np.where(pos, np.exp(-y), 1)


def closed_form_oracle_ld(spec, ops, g):
    """The quadrature of the unrounded 1-d P1 pair in long double, diagonal in
    its exact DCT-I eigenpairs."""
    v, d = dct_basis(ops.n_dof, LD)
    h = LD(1) / (ops.n_dof - 1)
    mu, tau = h * (2 + v[1]) / 3, (2 - 2 * v[1]) / h
    weight, a, b = shifts_ld(spec)
    q = (weight / (a * mu[:, None] + b * (mu + tau)[:, None])).sum(axis=1)
    norms = (v * v * d[:, None]).sum(axis=0)  # v_j' D v_j
    return v @ ((q / norms)[:, None] * (v.T @ g.astype(LD)))


def thomas_oracle_ld(spec, ops, g):
    """The pencil sum of ``g`` with long-double Thomas solves of the
    float64-assembled matrices."""
    mass, a2 = (m.toarray().astype(LD) for m in (ops.mass, ops.a2_matrix))
    out = np.zeros(g.shape, dtype=LD)
    for weight, a, b in zip(*shifts_ld(spec)):
        system = a * mass + b * a2
        diag, off, x = np.diag(system).copy(), np.diag(system, 1), g.astype(LD)
        for r in range(1, len(diag)):
            f = off[r - 1] / diag[r - 1]
            diag[r] -= f * off[r - 1]
            x[r] -= f * x[r - 1]
        x[-1] /= diag[-1]
        for r in range(len(diag) - 2, -1, -1):
            x[r] = (x[r] - off[r] * x[r + 1]) / diag[r]
        out += weight * x
    return out


class TestDctColoring:
    @pytest.mark.parametrize("level", [0, 1, 5, 9])
    def test_modes_diagonalize_the_assembled_pair(self, level):
        # M V = D V diag(mu) and T V = D V diag(tau): 4.4e-16 of max |A V|
        # at level 9; the DCT-I coloring reads neither matrix
        ops = assemble(build_mesh(1, level))
        v, d = dct_basis(ops.n_dof)
        for a, eig in zip((ops.mass, ops.stiffness), fracpow._dct_modes(ops.mesh)):
            av = a @ v
            assert np.abs(av - d[:, None] * v * eig).max() <= 2e-15 * np.abs(av).max()

    @pytest.mark.parametrize("level", range(10))
    def test_dct_is_near_the_pencil_sum(self, level):
        ops = assemble(build_mesh(1, level))
        for gamma in (0.25, 0.5, 0.75):
            for k in (0.5, 0.25):
                spec = make_spec(gamma, k)
                for cols in (1, 16, 300):
                    g = np.random.default_rng(cols).standard_normal((ops.n_dof, cols))
                    got = apply_qgamma(spec, ops, g)
                    assert_near_pencil_sum(got, whole_block_oracle(spec, ops, g), level)

    @pytest.mark.parametrize("level", [3, 4, 5])
    def test_dct_is_nearer_the_exact_quadrature(self, level):
        # max error / max entry at level 5 (level 9: 3.6e-13, 3.2e-12, 3.9e-11):
        # DCT-I vs the long-double closed form 1.4e-15, the pencil sum vs
        # long-double solves of the float64 matrices 1.1e-14, the two 1.6e-13;
        # each side is nearest its own reference
        ops = assemble(build_mesh(1, level))
        spec = make_spec(0.75, 0.5)
        g = np.random.default_rng(level).standard_normal((ops.n_dof, 2049))
        dct = apply_qgamma(spec, ops, g)
        pencil = whole_block_oracle(spec, ops, g)
        exact, solved = closed_form_oracle_ld(spec, ops, g), thomas_oracle_ld(spec, ops, g)
        top = float(np.abs(exact).max())

        def err(a, b):
            return float(np.abs(a.astype(LD) - b).max()) / top

        assert err(dct, exact) <= 1e-14 and err(pencil, solved) <= 1e-13
        assert err(dct, pencil) <= 1e-12
        assert err(dct, exact) < err(pencil, exact)
        assert err(pencil, solved) < err(dct, solved)


def test_2d_factors_take_the_symmetric_order():
    # COLAMD with partial pivoting keeps 314,140 entries of L + U in either
    # factor at 2-d level 6; the symmetric minimum-degree order keeps
    # 203,460 and pivots on the diagonal
    ops = assemble(build_mesh(2, 6))
    lus = [fracpow._shift_factor(ops, 0.5), ops.system(2.0**-12)._factor]
    for lu in lus:
        assert lu.nnz <= 210_000
        np.testing.assert_array_equal(lu.perm_r, lu.perm_c)


def test_2d_node_sum_holds_one_node_solution_at_a_time():
    # a chunk's node sum holds its F-ordered load and one node's solution, so
    # coloring a 2-d block of 513 columns (chunks of 256 and 257) in place
    # peaks about as gamma 1's one solve does: 1.17 blocks against 1.00, 1.50
    # while each node's solution outlived the next node's solve
    ops = assemble(build_mesh(2, 4))
    coef = np.random.default_rng(513).standard_normal((ops.n_dof, 513))

    def peak(gamma):
        # less what outlives the call: a SuperLU solve may leave scipy-internal
        # memory allocated, by a size that depends on the process's history
        # (a quarter block after the whole suite, none in this module alone)
        spec = make_spec(gamma, 0.5)
        apply_qgamma(spec, ops, coef.copy(), in_place=True)  # factors the pencil
        block = coef.copy()
        tracemalloc.start()
        try:
            apply_qgamma(spec, ops, block, in_place=True)
            kept, peak = tracemalloc.get_traced_memory()
            return peak - kept
        finally:
            tracemalloc.stop()

    assert peak(0.5) <= peak(1.0) + 0.25 * coef.nbytes


def test_pencil_memory_guard(monkeypatch):
    # 1,995 nodes x about 203k entries of L + U at 2-d level 6
    built = counted_factors(monkeypatch)
    ops = assemble(build_mesh(2, 6))
    with pytest.raises(DomainError, match="pencil factors of"):
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
    return apply_qgamma(spec, assemble(ops.mesh), g)


class TestSharedShifts:
    # at k 0.5, gamma 0.25 has nodes j in [-27, 79] and gamma 0.75 has
    # j in [-79, 27]: 107 each, 55 in common
    def test_common_shifts_are_factored_once(self, monkeypatch):
        built = counted_factors(monkeypatch)
        ops = assemble(build_mesh(2, 3))
        first, second = make_spec(0.25, 0.5), make_spec(0.75, 0.5)
        apply_qgamma(first, ops, np.ones(ops.n_dof))
        assert len(built) == 107
        apply_qgamma(second, ops, np.ones(ops.n_dof))
        assert len(built) == 159
        # each coloring holds, for its node j, the factor under ("pencil", k, j)
        shared = {j: ops.cached(("pencil", 0.5, j), None) for j in range(-79, 80)}
        for spec in (first, second):
            coloring = ops.cached(("quadrature", spec.gamma, spec.k), None)
            held = inspect.getclosurevars(coloring).nonlocals["factors"]
            nodes = range(-spec.n_neg, spec.n_pos + 1)
            assert all(f is shared[j] for j, f in zip(nodes, held, strict=True))
        assert len({id(f) for f in shared.values()}) == 159

    @pytest.mark.parametrize(
        "dim,gammas,cols",
        [(2, (0.25, 0.75), 1), (2, (0.25, 0.75), 300), (2, (0.5, 0.75), 1)],
    )
    def test_shared_factors_equal_fresh_ones(self, dim, gammas, cols):
        ops = assemble(build_mesh(dim, 4))
        g = np.random.default_rng(cols).standard_normal((ops.n_dof, cols))
        for gamma in gammas:
            spec = make_spec(gamma, 0.5)
            np.testing.assert_array_equal(
                apply_qgamma(spec, ops, g), fresh_ops_oracle(spec, ops, g)
            )

    @pytest.mark.parametrize("dim", [1, 2])
    def test_an_endpoint_factor_serves_every_k(self, dim, monkeypatch):
        built = counted_factors(monkeypatch)
        ops = assemble(build_mesh(dim, 3))
        for k in (0.5, 0.25):
            for in_place in (False, True):
                g = np.ones((ops.n_dof, 3))
                apply_qgamma(make_spec(1.0, k), ops, g, in_place=in_place)
        assert len(built) == 1
        apply_qgamma(make_spec(0.0, 0.5), ops, np.ones(ops.n_dof))
        apply_qgamma(make_spec(0.0, 0.25), ops, np.ones(ops.n_dof), in_place=True)
        assert len(built) == 2

    def test_1d_builds_no_factor(self, monkeypatch):
        # the DCT-I colors every gamma in (0, 1); only gamma 0 and 1 factor
        built = counted_factors(monkeypatch)
        ops = assemble(build_mesh(1, 4))
        for gamma in (0.25, 0.5, 0.75):
            for cols in (1, 16, 300):
                apply_qgamma(make_spec(gamma, 0.5), ops, np.ones((ops.n_dof, cols)))
        assert built == []
