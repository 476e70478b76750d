"""Server round logic: exact de-quantization, weighted aggregation,
per-client re-quantization, and order independence."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedq import quantkit as qk
from fedq import server as sv
from fedq.errors import Diverged, EmptyInput, MissingClient, NonFiniteInput, ShapeMismatch


def quantized(w, bits, seed):
    rng = np.random.default_rng(seed)
    return qk.stochastic_quantize(w, qk.build_tanh_codebook(w, bits), rng)


class TestDequantize:
    def test_single_client_matches_quantkit(self):
        rng = np.random.default_rng(1)
        q = quantized(rng.normal(size=(2, 4)), 5, 2)
        out = sv.dequantize_client_models([[q]])
        np.testing.assert_array_equal(out[0][0], qk.dequantize(q))

    def test_mixed_bitwidths_use_own_codebooks(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(2, 4))
        q4, q8 = quantized(w, 4, 4), quantized(w, 8, 5)
        out = sv.dequantize_client_models([[q4], [q8]])
        np.testing.assert_array_equal(out[0][0], q4.codebook.centers[q4.indices].reshape(2, 4))
        np.testing.assert_array_equal(out[1][0], q8.codebook.centers[q8.indices].reshape(2, 4))

    def test_requantize_round_trip_on_centers(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=(3, 3))
        model, eps = sv.requantize_for_client([w], 6, rng)
        again, eps2 = sv.requantize_for_client(
            [qk.dequantize(model[0])], 6, np.random.default_rng(7)
        )
        assert eps2 == 0.0
        np.testing.assert_array_equal(qk.dequantize(again[0]), qk.dequantize(model[0]))

    def test_shape_mismatch(self):
        rng = np.random.default_rng(8)
        a = quantized(rng.normal(size=(2, 4)), 4, 1)
        b = quantized(rng.normal(size=(2, 5)), 4, 1)
        with pytest.raises(ShapeMismatch):
            sv.dequantize_client_models([[a], [b]])


class TestAggregate:
    def test_identical_models_fixed_point(self):
        w = np.array([[1.0, -2.0], [0.5, 3.0]])
        out = sv.aggregate([[w], [w], [w]], [10, 20, 30])
        np.testing.assert_allclose(out[0], w, atol=1e-12)

    def test_equal_scalars(self):
        out = sv.aggregate([[np.array([[0.0]])], [np.array([[2.0]])]], [5, 5])
        assert out[0][0, 0] == 1.0

    def test_three_one_weighting(self):
        out = sv.aggregate([[np.array([[0.0]])], [np.array([[4.0]])]], [3, 1])
        assert out[0][0, 0] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            sv.aggregate([], [])

    @settings(max_examples=300, deadline=None)
    @given(counts=st.lists(st.integers(1, 2**40), min_size=1, max_size=12))
    def test_weights_are_correctly_rounded_ratios(self, counts):
        # One-hot models: entry k of the aggregate is client k's weight alone.
        n = len(counts)
        models = [[np.eye(n)[k]] for k in range(n)]
        out = sv.aggregate(models, counts)[0]
        total = sum(counts)
        for k, c in enumerate(counts):
            assert out[k] == float(Fraction(c, total))


class TestRequantize:
    def test_error_zero_at_codebook_centers(self):
        rng = np.random.default_rng(9)
        w = rng.normal(size=(2, 6))
        model, _ = sv.requantize_for_client([w], 5, rng)
        again, eps = sv.requantize_for_client([qk.dequantize(model[0])], 5, rng)
        assert eps == 0.0

    def test_high_rate_relative_error(self):
        rng = np.random.default_rng(10)
        w = rng.normal(size=(4, 8))
        _, eps = sv.requantize_for_client([w], 16, rng)
        assert eps < 1e-4 * np.sum(w * w)

    def test_more_bits_less_error(self):
        rng = np.random.default_rng(11)
        w = rng.normal(size=(4, 8))
        e4 = np.mean([sv.requantize_for_client([w], 4, rng)[1] for _ in range(100)])
        e8 = np.mean([sv.requantize_for_client([w], 8, rng)[1] for _ in range(100)])
        assert e8 < e4

    def test_unbiased_over_draws(self):
        rng = np.random.default_rng(12)
        w = rng.normal(size=(2, 5))
        n = 10_000
        acc = np.zeros_like(w)
        for _ in range(n):
            model, _ = sv.requantize_for_client([w], 5, rng)
            acc += qk.dequantize(model[0])
        acc /= n
        cb = qk.build_tanh_codebook(w, 5)
        from fedq import _kernels as kernels
        var = kernels.expected_sq_error(w, cb.centers).reshape(w.shape)
        tol = 3.0 * np.sqrt(var / n) + 1e-12
        assert np.all(np.abs(acc - w) <= tol)


class TestRunRound:
    def make_server(self, bitwidths):
        return sv.ServerState(dict(enumerate(bitwidths, start=1)), seed=99)

    def test_single_client_reduces_to_requantize(self):
        rng = np.random.default_rng(13)
        q = quantized(rng.normal(size=(2, 4)), 6, 14)
        server = self.make_server([6])
        out = server.run_round({1: [q]}, {1: 50})
        np.testing.assert_array_equal(server.global_model[0], qk.dequantize(q))
        # dequantized output lives on a tanh codebook over the same range
        assert out[1][0].codebook.rate == 6
        assert server.round_counter == 1

    def test_missing_client(self):
        rng = np.random.default_rng(15)
        q = quantized(rng.normal(size=(2, 4)), 6, 16)
        server = self.make_server([6, 6])
        with pytest.raises(MissingClient):
            server.run_round({1: [q]}, {1: 50})

    def test_report_order_invariance(self):
        rng = np.random.default_rng(17)
        w = rng.normal(size=(3, 5))
        models = {
            1: [quantized(w + 0.1, 4, 18)],
            2: [quantized(w - 0.2, 6, 19)],
            3: [quantized(w, 5, 20)],
        }
        counts = {1: 10, 2: 30, 3: 60}

        s1 = sv.ServerState({1: 4, 2: 6, 3: 5}, seed=7)
        s1.run_round(dict(sorted(models.items())), counts)
        s2 = sv.ServerState({1: 4, 2: 6, 3: 5}, seed=7)
        s2.run_round(dict(sorted(models.items(), reverse=True)), counts)
        np.testing.assert_allclose(s1.global_model[0], s2.global_model[0], atol=1e-12)

    def test_identical_center_aligned_clients_pass_through(self):
        # both clients report the same model whose values sit at tanh
        # codebook centers; aggregation preserves them and requantization
        # rebuilds the identical codebook, so outputs equal inputs
        rng = np.random.default_rng(25)
        w = rng.normal(size=(2, 4))
        q = quantized(w, 5, 26)
        vals = qk.dequantize(q)
        server = sv.ServerState({1: 5, 2: 5}, seed=8)
        models = {
            1: [quantized(vals, 5, 27)],
            2: [quantized(vals, 5, 28)],
        }
        out = server.run_round(models, {1: 10, 2: 10})
        assert server.requant_error_log[-1] == {1: 0.0, 2: 0.0}
        for k in (1, 2):
            np.testing.assert_array_equal(qk.dequantize(out[k][0]), vals)

    def test_requant_error_logged_per_client(self):
        rng = np.random.default_rng(21)
        w = rng.normal(size=(2, 4))
        server = sv.ServerState({1: 4, 2: 8}, seed=3)
        server.run_round(
            {1: [quantized(w, 4, 22)], 2: [quantized(w, 8, 23)]}, {1: 5, 2: 5}
        )
        log = server.requant_error_log[-1]
        assert set(log) == {1, 2}
        assert log[1] >= 0.0 and log[2] >= 0.0

    def test_non_finite_aggregate_names_round_and_client(self):
        cb = qk.Codebook(1, np.array([0.0, np.inf]))
        q = qk.QuantizedTensor((2,), np.array([0, 1], dtype=np.uint8), cb)
        server = sv.ServerState({1: 4, 2: 4}, seed=3)
        with pytest.raises(Diverged, match="round 1, client 1") as info:
            server.run_round({1: [q], 2: [q]}, {1: 5, 2: 5})
        assert (info.value.round, info.value.client, info.value.phase) == (
            1, 1, "server requantize")
        assert isinstance(info.value.__cause__, NonFiniteInput)
