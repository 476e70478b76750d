"""Objective, gradients, eigensolver, optimum, and representability."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedq import sslcore as ssl
from fedq.errors import (
    DimensionMismatch,
    InvalidParams,
    NegativeEigenvalue,
    NonFiniteInput,
    NotSymmetric,
    ZeroMatrix,
)

from oracle import reconstruct, stochastic_grad


def random_psd(rng, d):
    a = rng.normal(size=(d, d))
    return a @ a.T / d


class TestLoss:
    def test_exact_factorization_is_zero(self):
        w = np.array([[2.0, 0.0], [0.0, 1.0]])
        assert ssl.loss(w, w.T @ w) == 0.0

    def test_zero_w_identity(self):
        assert ssl.loss(np.zeros((2, 4)), np.eye(4)) == pytest.approx(4.0)

    def test_rank_one_against_diag(self):
        w = np.array([[2.0, 0.0]])
        assert ssl.loss(w, np.diag([4.0, 1.0])) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ssl.loss(np.zeros((2, 3)), np.eye(4))


class TestGrad:
    def test_stationary_at_factorization(self):
        w = np.array([[1.5, 0.0], [0.0, 0.5]])
        np.testing.assert_array_equal(ssl.grad(w, w.T @ w), np.zeros((2, 2)))

    def test_zero_w(self):
        np.testing.assert_array_equal(ssl.grad(np.zeros((2, 3)), np.eye(3)), np.zeros((2, 3)))

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(2, 5))
        x = random_psd(rng, 5)
        g = ssl.grad(w, x)
        h = 1e-5
        for i in range(2):
            for j in range(5):
                e = np.zeros_like(w)
                e[i, j] = h
                fd = (ssl.loss(w + e, x) - ssl.loss(w - e, x)) / (2 * h)
                assert abs(fd - g[i, j]) <= 1e-5 * max(1.0, abs(g[i, j]))

    def test_directional_derivative_consistency(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(3, 6))
        x = random_psd(rng, 6)
        delta = rng.normal(size=(3, 6))
        h = 1e-6
        dd = (ssl.loss(w + h * delta, x) - ssl.loss(w - h * delta, x)) / (2 * h)
        inner = float(np.sum(ssl.grad(w, x) * delta))
        assert abs(dd - inner) <= 1e-5 * max(1.0, abs(inner))


class TestResidual:
    @pytest.fixture
    def wx(self):
        rng = np.random.default_rng(8)
        return rng.normal(size=(3, 7)), random_psd(rng, 7)

    def test_is_gram_minus_covariance(self, wx):
        w, x = wx
        np.testing.assert_array_equal(ssl.residual(w, x), w.T @ w - x)

    def test_passed_residual_is_bit_identical(self, wx):
        w, x = wx
        r = ssl.residual(w, x)
        assert ssl.grad(w, x, r).tobytes() == ssl.grad(w, x).tobytes()

    def test_loss_matches_first_form(self, wx):
        # x - w^T w is the exact negation of the residual: same squares.
        w, x = wx
        r = x - w.T @ w
        assert ssl.loss(w, x).hex() == float(np.sum(r * r)).hex()

    def test_residual_checks_dims(self):
        with pytest.raises(DimensionMismatch):
            ssl.residual(np.zeros((2, 3)), np.eye(4))
        with pytest.raises(DimensionMismatch):
            ssl.residual(np.zeros(3), np.eye(3))

    @pytest.mark.parametrize("fn", [ssl.grad])
    def test_wrong_shape_residual_rejected(self, wx, fn):
        w, x = wx
        with pytest.raises(DimensionMismatch, match="residual shape"):
            fn(w, x, np.zeros((6, 6)))


class TestStochasticGrad:
    def test_noiseless_full_batch_is_algebraic(self):
        rng = np.random.default_rng(5)
        batch = rng.normal(size=(40, 6))
        w = rng.normal(size=(2, 6))
        xb = batch.T @ batch / 40
        got = stochastic_grad(w, batch, 0.0, rng)
        np.testing.assert_allclose(got, 2.0 * w @ (w.T @ w - xb), rtol=1e-12)

    def test_noise_mean_matches_noiseless(self):
        rng = np.random.default_rng(6)
        batch = rng.normal(size=(16, 4))
        w = rng.normal(size=(2, 4))
        base = stochastic_grad(w, batch, 0.0, rng)
        sigma = 0.3
        n = 10_000
        acc = np.zeros_like(w)
        for _ in range(n):
            acc += stochastic_grad(w, batch, sigma, rng)
        acc /= n
        # per-entry noise std of the mean: sigma * ||x col|| / B scale
        se = 3 * sigma * np.sqrt(2.0 * (batch**2).mean() / (batch.shape[0] * n))
        np.testing.assert_allclose(acc, base, atol=5 * se)

    def test_zero_w_mean_zero(self):
        rng = np.random.default_rng(7)
        batch = rng.normal(size=(32, 3))
        w = np.zeros((2, 3))
        acc = np.zeros_like(w)
        for _ in range(4000):
            acc += stochastic_grad(w, batch, 0.5, rng)
        assert np.abs(acc / 4000).max() < 0.02


class TestSymEig:
    def test_diagonal(self):
        eig = ssl.sym_eig(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_array_equal(eig.eigenvalues, [3.0, 2.0, 1.0])
        np.testing.assert_allclose(np.abs(eig.eigenvectors), np.eye(3)[:, [0, 2, 1]])

    def test_rank_one(self):
        v = np.array([3.0, 4.0]) / 5.0
        eig = ssl.sym_eig(np.outer(v, v))
        np.testing.assert_allclose(eig.eigenvalues, [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(eig.eigenvectors[:, 0]), np.abs(v))

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(8)
        x = random_psd(rng, 8)
        eig = ssl.sym_eig(x)
        rel = np.linalg.norm(reconstruct(eig) - x) / np.linalg.norm(x)
        assert rel < 1e-7

    def test_orthonormality(self):
        rng = np.random.default_rng(9)
        eig = ssl.sym_eig(random_psd(rng, 10))
        v = eig.eigenvectors
        np.testing.assert_allclose(v.T @ v, np.eye(10), atol=1e-8)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(10)
        x = random_psd(rng, 6)
        a = ssl.sym_eig(x)
        b = ssl.sym_eig(x.copy())
        np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)
        lead = np.argmax(np.abs(a.eigenvectors), axis=0)
        assert np.all(a.eigenvectors[lead, np.arange(6)] > 0)

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            ssl.sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestClosedFormOptimum:
    def test_diag_rank_one(self):
        w = ssl.closed_form_optimum(np.diag([4.0, 1.0]), 1)
        np.testing.assert_allclose(np.abs(w), [[2.0, 0.0]], atol=1e-12)
        assert ssl.loss(w, np.diag([4.0, 1.0])) == pytest.approx(1.0)

    def test_full_rank_recovers(self):
        rng = np.random.default_rng(11)
        x = random_psd(rng, 5)
        w = ssl.closed_form_optimum(x, 5)
        assert ssl.loss(w, x) < 1e-16 * np.linalg.norm(x) ** 2 + 1e-20

    def test_eckart_young_value(self):
        rng = np.random.default_rng(12)
        x = random_psd(rng, 6)
        w = ssl.closed_form_optimum(x, 3)
        tail = ssl.sym_eig(x).eigenvalues[3:]
        np.testing.assert_allclose(ssl.loss(w, x), np.sum(tail**2), rtol=1e-8)

    def test_local_optimality_under_perturbation(self):
        rng = np.random.default_rng(13)
        x = random_psd(rng, 6)
        w = ssl.closed_form_optimum(x, 3)
        base = ssl.loss(w, x)
        for _ in range(1000):
            delta = rng.normal(size=w.shape)
            delta *= 0.1 / np.linalg.norm(delta)
            assert ssl.loss(w + delta, x) >= base - 1e-12

    def test_small_negative_eigenvalues_clamped(self):
        x = np.diag([1.0, -1e-12])
        w = ssl.closed_form_optimum(x, 2)
        assert np.all(np.isfinite(w))
        np.testing.assert_array_equal(w[1], 0.0)  # roundoff below EIG_CLAMP counts as an exact zero

    def test_negative_eigenvalue_beyond_clamp_raises(self):
        # -1e-6 is not roundoff of a PSD input: the covariance is wrong
        with pytest.raises(NegativeEigenvalue, match="below"):
            ssl.closed_form_optimum(np.diag([1.0, -1e-6]), 2)

    def test_rank_bounds(self):
        with pytest.raises(InvalidParams):
            ssl.closed_form_optimum(np.eye(3), 4)


class TestRepresentability:
    def test_single_basis_row(self):
        np.testing.assert_allclose(
            ssl.representability(np.array([[1.0, 0.0]])), [1.0, 0.0]
        )

    def test_full_span_all_ones(self):
        rng = np.random.default_rng(14)
        w = rng.normal(size=(4, 4))
        np.testing.assert_allclose(ssl.representability(w), np.ones(4), atol=1e-9)

    def test_diagonal_split(self):
        r = ssl.representability(np.array([[1.0, 1.0]]) / np.sqrt(2))
        np.testing.assert_allclose(r, [0.5, 0.5])

    def test_zero_matrix(self):
        with pytest.raises(ZeroMatrix):
            ssl.representability(np.zeros((2, 3)))

    def test_dependent_rows_dropped(self):
        w = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        r = ssl.representability(w)
        np.testing.assert_allclose(r, [1.0, 0.0, 0.0])
        assert ssl.orthonormal_row_basis(w).shape[0] == 1

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6))
    def test_bounds_and_rank_sum(self, seed, m):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(m, 6))
        r = ssl.representability(w)
        assert np.all(r >= 0.0)
        assert np.all(r <= 1.0 + 1e-10)
        rank = ssl.orthonormal_row_basis(w).shape[0]
        assert abs(r.sum() - rank) < 1e-8

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(-100.0, 100.0))
    def test_scale_invariance(self, seed, scale):
        if abs(scale) < 1e-6:
            scale = 1e-6
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(2, 5))
        np.testing.assert_allclose(
            ssl.representability(scale * w), ssl.representability(w), atol=1e-9
        )


def test_spectral_norm_matches_eigh():
    rng = np.random.default_rng(15)
    x = random_psd(rng, 12)
    assert ssl.spectral_norm(x) == pytest.approx(np.linalg.eigvalsh(x).max(), rel=1e-8)


@pytest.mark.parametrize("call, error, message", [
    (lambda: ssl.sym_eig(np.zeros((2, 3))), DimensionMismatch, "expected a square matrix"),
    (lambda: ssl.orthonormal_row_basis(np.ones(3)), DimensionMismatch, "feature matrix must be 2-D"),
    (lambda: ssl.orthonormal_row_basis(np.array([[np.inf, 0.0], [0.0, 1.0]])), NonFiniteInput,
     "feature matrix holds NaN or inf"),
    (lambda: ssl.orthonormal_row_basis(np.array([[np.nan, 1.0]])), NonFiniteInput,
     "feature matrix holds NaN or inf"),
    # A finite matrix keeps its longest row unless the norms overflow:
    # then every row fails an infinite tolerance.
    pytest.param(lambda: ssl.orthonormal_row_basis(np.array([[1e200, 0.0], [0.0, 1e200]])), ZeroMatrix,
                 "all rows numerically zero or dependent",
                 marks=pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")),
], ids=["eig-not-square", "basis-1d", "basis-inf", "basis-nan", "basis-overflow"])
def test_rejects_bad_input_with_its_reason(call, error, message):
    with pytest.raises(error, match=message):
        call()
