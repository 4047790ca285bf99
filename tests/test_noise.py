import numpy as np
import pytest
import scipy.sparse as sp

from spdelab.exceptions import DomainError
from spdelab.mesh import assemble, build_mesh, restriction_matrix
from spdelab.noise import (
    NoiseStream,
    aggregate_increment,
    fine_increment,
    fine_increments,
    restrict_increment,
)


@pytest.fixture(scope="module")
def ops_level2():
    return assemble(build_mesh(1, 2))


@pytest.mark.parametrize("steps", [0, -1])
def test_a_stream_needs_a_fine_step(steps):
    with pytest.raises(DomainError, match=f"fine_steps must be >= 1, got {steps}"):
        NoiseStream(seed=1, fine_level=2, fine_steps=steps)


class TestFineIncrement:
    def test_replay_bit_identical(self, ops_level2):
        stream = NoiseStream(seed=77, fine_level=2, fine_steps=8)
        a = fine_increment(stream, 3, ops_level2.mass_chol)
        b = fine_increment(stream, 3, ops_level2.mass_chol)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (ops_level2.n_dof,)

    def test_order_independent(self, ops_level2):
        stream = NoiseStream(seed=77, fine_level=2, fine_steps=8)
        forward = [fine_increment(stream, n, ops_level2.mass_chol) for n in range(8)]
        backward = [
            fine_increment(stream, n, ops_level2.mass_chol)
            for n in reversed(range(8))
        ]
        for f, b in zip(forward, reversed(backward)):
            np.testing.assert_array_equal(f, b)

    def test_steps_independent(self, ops_level2):
        stream = NoiseStream(seed=5, fine_level=2, fine_steps=4)
        a = fine_increment(stream, 0, ops_level2.mass_chol)
        b = fine_increment(stream, 1, ops_level2.mass_chol)
        assert not np.allclose(a, b)

    def test_diagonal_covariance(self, ops_level2):
        # Cov(L rho) = L L' = M, scaled by the step size
        stream = NoiseStream(seed=3, fine_level=2, fine_steps=4)
        draws = np.array(
            [
                NoiseStream(seed=s, fine_level=2, fine_steps=4)
                .normals(0, 1, ops_level2.n_dof)[0]
                for s in range(10_000)
            ]
        )
        values = (ops_level2.mass_chol @ draws.T).T * np.sqrt(stream.fine_dt)
        got = np.var(values, axis=0)
        want = stream.fine_dt * ops_level2.mass.diagonal()
        np.testing.assert_allclose(got, want, rtol=0.05)

    def test_mean_zero(self, ops_level2):
        values = np.array(
            [
                fine_increment(
                    NoiseStream(seed=s, fine_level=2, fine_steps=4),
                    0,
                    ops_level2.mass_chol,
                )
                for s in range(10_000)
            ]
        )
        std = np.sqrt(0.25 * ops_level2.mass.diagonal() / 10_000)
        assert np.all(np.abs(values.mean(axis=0)) <= 3.0 * std)

    def test_full_covariance_frobenius(self, ops_level2):
        stream_dt = 0.25
        draws = np.array(
            [
                NoiseStream(seed=s, fine_level=2, fine_steps=4)
                .normals(0, 1, ops_level2.n_dof)[0]
                for s in range(100_000)
            ]
        )
        values = (ops_level2.mass_chol @ draws.T).T * np.sqrt(stream_dt)
        emp = np.cov(values.T)
        want = stream_dt * ops_level2.mass.toarray()
        rel = np.linalg.norm(emp - want) / np.linalg.norm(want)
        assert rel <= 0.03

    def test_block_columns_are_fine_increments(self):
        # one multi-column product over the 2-d Cholesky fill-in gives each
        # column bit for bit; the block starts and ends off a multiple of 16
        ops = assemble(build_mesh(2, 3))
        stream = NoiseStream(seed=4, fine_level=3, fine_steps=40)
        block = fine_increments(stream, 3, 22, ops.mass_chol)
        assert block.shape == (ops.n_dof, 19)
        for i in range(19):
            np.testing.assert_array_equal(
                block[:, i], fine_increment(stream, 3 + i, ops.mass_chol)
            )

    def test_out_of_range_step(self, ops_level2):
        stream = NoiseStream(seed=1, fine_level=2, fine_steps=4)
        with pytest.raises(DomainError):
            fine_increment(stream, 4, ops_level2.mass_chol)


class TestAggregate:
    def test_ratio_one_is_fine(self, ops_level2):
        stream = NoiseStream(seed=9, fine_level=2, fine_steps=8)
        a = aggregate_increment(stream, 5, 1, ops_level2.mass_chol)
        b = fine_increment(stream, 5, ops_level2.mass_chol)
        np.testing.assert_array_equal(a, b)

    def test_ratio_two_exact_sum(self, ops_level2):
        stream = NoiseStream(seed=9, fine_level=2, fine_steps=8)
        for m in range(4):
            agg = aggregate_increment(stream, m, 2, ops_level2.mass_chol)
            np.testing.assert_array_equal(
                agg,
                fine_increment(stream, 2 * m, ops_level2.mass_chol)
                + fine_increment(stream, 2 * m + 1, ops_level2.mass_chol),
            )

    def test_variance_scales_with_ratio(self, ops_level2):
        # Var of summed independent increments is linear in the window length
        variances = {}
        for ratio in (1, 2, 4):
            first = np.array(
                [
                    aggregate_increment(
                        NoiseStream(seed=s, fine_level=2, fine_steps=8),
                        0,
                        ratio,
                        ops_level2.mass_chol,
                    )[0]
                    for s in range(20_000)
                ]
            )
            variances[ratio] = np.var(first)
        assert variances[2] / variances[1] == pytest.approx(2.0, rel=0.1)
        assert variances[4] / variances[1] == pytest.approx(4.0, rel=0.1)

    def test_rejects_bad_ratio(self, ops_level2):
        stream = NoiseStream(seed=1, fine_level=2, fine_steps=8)
        with pytest.raises(DomainError):
            aggregate_increment(stream, 0, 3, ops_level2.mass_chol)
        with pytest.raises(DomainError):
            aggregate_increment(stream, 4, 2, ops_level2.mass_chol)


class TestRestrict:
    def test_identity(self, ops_level2):
        stream = NoiseStream(seed=2, fine_level=2, fine_steps=4)
        g = fine_increment(stream, 0, ops_level2.mass_chol)
        eye = sp.identity(ops_level2.n_dof, format="csr")
        np.testing.assert_array_equal(restrict_increment(eye, g), g)

    def test_restriction_column(self):
        coarse, fine = build_mesh(1, 1), build_mesh(1, 2)
        a = restriction_matrix(coarse, fine)
        g = np.eye(fine.n_vertices)[1]
        np.testing.assert_allclose(restrict_increment(a, g), [0.5, 0.5, 0.0])

    def test_total_mass_preserved(self, ops_level2):
        # columns of A sum to 1, so the total load is unchanged
        coarse, fine = build_mesh(1, 1), build_mesh(1, 2)
        a = restriction_matrix(coarse, fine)
        stream = NoiseStream(seed=4, fine_level=2, fine_steps=4)
        g = fine_increment(stream, 2, ops_level2.mass_chol)
        assert np.sum(a @ g) == pytest.approx(np.sum(g), abs=1e-14)

    def test_dimension_mismatch(self, ops_level2):
        coarse = build_mesh(1, 1)
        a = restriction_matrix(coarse, build_mesh(1, 3))
        stream = NoiseStream(seed=4, fine_level=2, fine_steps=4)
        g = fine_increment(stream, 0, ops_level2.mass_chol)
        with pytest.raises(DomainError):
            restrict_increment(a, g)


class TestCoupling:
    def test_exact_coupling_identity(self):
        # coarse increment == A (sum of fine increments), exactly per path
        fine_ops = assemble(build_mesh(1, 3))
        a = restriction_matrix(build_mesh(1, 1), build_mesh(1, 3))
        stream = NoiseStream(seed=31, fine_level=3, fine_steps=16)
        ratio = 4
        for n in range(4):
            coarse = restrict_increment(
                a, aggregate_increment(stream, n, ratio, fine_ops.mass_chol)
            )
            manual = a @ sum(
                fine_increment(stream, m, fine_ops.mass_chol)
                for m in range(n * ratio, (n + 1) * ratio)
            )
            np.testing.assert_array_equal(coarse, manual)
