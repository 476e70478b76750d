"""Local training loop: forward/backward against analytic oracles,
update semantics, error-energy bookkeeping, determinism."""

import math

import numpy as np
import pytest

from fedq import client as cl
from fedq import datagen as dg
from fedq import quantkit as qk
from fedq import sslcore as ssl
from fedq.errors import InvalidParams, StateMismatch


def make_shard(n=1, d=8, count=200, seed=21, k=1):
    return dg.generate_shard(dg.DataGenParams(n=n, d=d, frequent_count=count, seed=seed), k)


def plain_config(**kw):
    defaults = dict(
        bitwidth=6,
        quantize_weights=False,
        quantize_gradients=False,
        quantize_activations=False,
        aug_sigma=0.0,
    )
    defaults.update(kw)
    return cl.ClientConfig(**defaults)


class TestForward:
    def test_identity_unquantized_is_matmul(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(2, 8))
        batch = rng.normal(size=(16, 8))
        fs = cl.quantized_forward([w], batch, plain_config(), rng)
        np.testing.assert_array_equal(fs.outputs, batch @ w.T)

    def test_identity_rows_reproduce_weight_rows(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(3, 4))
        cb = qk.build_tanh_codebook(w, 8)
        qw = qk.stochastic_quantize(w, cb, rng)
        fs = cl.quantized_forward([qk.dequantize(qw)], np.eye(4), plain_config(bitwidth=8), rng)
        np.testing.assert_allclose(fs.outputs.T, qk.dequantize(qw), atol=1e-12)

    def test_high_rate_shadows_unquantized(self):
        # tight codebooks: activations kept in the tanh compander's
        # well-resolved region (wide-tailed inputs starve the tails)
        rng = np.random.default_rng(3)
        w = 0.3 * rng.normal(size=(2, 8))
        batch = rng.normal(size=(64, 8))
        cfg = cl.ClientConfig(bitwidth=16, quantize_activations=True, aug_sigma=0.0)
        qw = qk.stochastic_quantize(w, qk.build_tanh_codebook(w, 16), rng)
        fs = cl.quantized_forward([qk.dequantize(qw)], batch, cfg, rng)
        ref = batch @ w.T
        rel = np.linalg.norm(fs.outputs - ref) / np.linalg.norm(ref)
        assert rel < 1e-2

    def test_relu_layers_chain(self):
        rng = np.random.default_rng(4)
        layers = cl.init_layers([6, 5, 3], rng, 0.3)
        batch = rng.normal(size=(10, 6))
        fs = cl.quantized_forward(layers, batch, plain_config(activation="relu"), rng)
        h1 = np.maximum(batch @ layers[0].T, 0.0)
        np.testing.assert_allclose(fs.outputs, np.maximum(h1 @ layers[1].T, 0.0))


class TestBackward:
    def test_matches_sslcore_oracle(self):
        rng_client = np.random.default_rng(42)
        rng_oracle = np.random.default_rng(42)
        shard = make_shard()
        w = np.random.default_rng(7).normal(size=(2, 8)) * 0.2
        cfg = plain_config(aug_sigma=0.1)
        fs = cl.quantized_forward([w], shard.samples, cfg, rng_client)
        upstream = cl.ssl_upstream(fs.outputs, cfg, rng_client)
        grads, eps_g, g_sq = cl.quantized_backward([w], fs, upstream, cfg, rng_client)
        oracle = ssl.stochastic_grad(w, shard.samples, 0.1, rng_oracle)
        np.testing.assert_allclose(grads[0], oracle, rtol=1e-10, atol=1e-12)
        assert eps_g == 0.0
        assert g_sq == pytest.approx(np.sum(oracle**2), rel=1e-10)

    def test_zero_upstream_quantile_collapse(self):
        rng = np.random.default_rng(8)
        w = np.zeros((2, 4))
        cfg = cl.ClientConfig(bitwidth=4, aug_sigma=0.0, quantize_gradients=True,
                              quantize_weights=False)
        batch = np.zeros((6, 4))
        fs = cl.quantized_forward([w], batch, cfg, rng)
        grads, eps_g, _ = cl.quantized_backward([w], fs, np.zeros((6, 2)), cfg, rng)
        np.testing.assert_array_equal(grads[0], np.zeros((2, 4)))
        assert eps_g == 0.0

    def test_quantized_gradient_unbiased_in_range(self):
        rng = np.random.default_rng(123)
        shard = make_shard(seed=5)
        w = np.random.default_rng(9).normal(size=(2, 8)) * 0.3
        cfg = cl.ClientConfig(bitwidth=4, grad_extra_bits=2, aug_sigma=0.0,
                              quantize_weights=False)
        fs = cl.quantized_forward([w], shard.samples, cfg, rng)
        raw_grads, _, _ = cl.quantized_backward(
            [w], fs, cl.ssl_upstream(fs.outputs, cfg, rng), plain_config(), rng
        )
        raw = raw_grads[0]
        n = 10_000
        acc = np.zeros_like(raw)
        cb = qk.build_quantile_codebook(raw, cfg.grad_bitwidth)
        for _ in range(n):
            acc += qk.dequantize(qk.stochastic_quantize(raw, cb, rng))
        acc /= n
        from fedq import _kernels as kernels
        var = kernels.expected_sq_error(raw, cb.centers).reshape(raw.shape)
        in_range = (raw >= cb.centers[0]) & (raw <= cb.centers[-1])
        tol = 3.0 * np.sqrt(var / n) + 1e-12
        assert np.all(np.abs(acc - raw)[in_range] <= tol[in_range])

    def test_two_layer_relu_matches_finite_differences(self):
        # composite objective: data term on the end-to-end features plus
        # the per-layer Gram regularizer, no noise, no quantization
        rng = np.random.default_rng(77)
        batch = rng.normal(size=(12, 5))
        layers = [0.4 * rng.normal(size=(4, 5)), 0.4 * rng.normal(size=(3, 4))]
        cfg = plain_config(activation="relu")

        def objective(ws):
            z = batch
            for w in ws:
                z = np.maximum(z @ w.T, 0.0)
            data = -np.sum(z * z) / batch.shape[0]
            reg = sum(0.5 * np.sum((w.T @ w) ** 2) for w in ws)
            return data + reg

        fs = cl.quantized_forward(layers, batch, cfg, rng)
        upstream = cl.ssl_upstream(fs.outputs, cfg, rng)
        grads, _, _ = cl.quantized_backward(layers, fs, upstream, cfg, rng)

        h = 1e-6
        for li, w in enumerate(layers):
            for idx in [(0, 0), (1, 2), (w.shape[0] - 1, w.shape[1] - 1)]:
                bump = [u.copy() for u in layers]
                bump[li][idx] += h
                up = objective(bump)
                bump[li][idx] -= 2 * h
                down = objective(bump)
                fd = (up - down) / (2 * h)
                got = grads[li][idx]
                assert abs(fd - got) <= 1e-5 * max(1.0, abs(fd)), (li, idx, fd, got)

    def test_state_mismatch(self):
        rng = np.random.default_rng(10)
        w = rng.normal(size=(2, 4))
        fs = cl.quantized_forward([w], rng.normal(size=(6, 4)), plain_config(), rng)
        with pytest.raises(StateMismatch):
            cl.quantized_backward([w], fs, np.zeros((5, 2)), plain_config(), rng)


class TestLocalUpdate:
    def test_zero_lr_at_centers_is_identity(self):
        rng = np.random.default_rng(11)
        w = rng.normal(size=(2, 6))
        cfg = cl.ClientConfig(bitwidth=6, aug_sigma=0.0)
        state = cl.start_client(cfg, [w], rng)
        qw = state.model[0]
        eps_w = cl.local_update(state, state.layer_values(), [np.zeros((2, 6))], 0.0)
        assert eps_w == 0.0
        np.testing.assert_array_equal(
            qk.dequantize(state.model[0]), qk.dequantize(qw)
        )

    def test_high_rate_error_is_tiny(self):
        rng = np.random.default_rng(12)
        w = rng.normal(size=(2, 8))
        g = rng.normal(size=(2, 8))
        cfg = cl.ClientConfig(bitwidth=16, aug_sigma=0.0)
        state = cl.start_client(cfg, [w], rng)
        qw = state.model[0]
        eps_w = cl.local_update(state, state.layer_values(), [g], 0.05)
        u = qk.dequantize(qw) - 0.05 * g
        assert eps_w < 1e-4 * np.sum(u * u)

    def test_weight_error_scales_with_alpha(self):
        # mean ||eps_w||^2 across many steps grows roughly linearly in
        # the step size
        shard = make_shard(count=400, seed=31)
        means = []
        alphas = [0.04, 0.02, 0.01]
        for a in alphas:
            rng = np.random.default_rng(55)
            layers = cl.init_layers([8, 2], np.random.default_rng(5), 0.1 / math.sqrt(8))
            cfg = cl.ClientConfig(bitwidth=5, grad_extra_bits=0, aug_sigma=0.1)
            state = cl.start_client(cfg, layers, rng)
            stats = cl.run_local_epochs(state, shard, 20, 64, a)
            means.append(stats.mean_weight_error())
        slope = np.polyfit(np.log(alphas), np.log(means), 1)[0]
        assert 0.5 <= slope <= 1.5, (alphas, means, slope)


class TestRunLocalEpochs:
    def test_single_plain_gradient_step(self):
        shard = make_shard(seed=17)
        w0 = np.random.default_rng(3).normal(size=(2, 8)) * 0.2
        cfg = plain_config(aug_sigma=0.0)
        state = cl.ClientState(cfg, [w0.copy()], np.random.default_rng(0))
        stats = cl.run_local_epochs(state, shard, 1, None, 0.03)
        oracle = ssl.stochastic_grad(w0, shard.samples, 0.0, np.random.default_rng(1))
        np.testing.assert_allclose(state.model[0], w0 - 0.03 * oracle, rtol=1e-12)
        assert len(stats) == 1

    @pytest.mark.parametrize("lr", [0.0, -0.01, math.nan])
    def test_step_size_must_be_positive(self, lr):
        state = cl.start_client(plain_config(), [np.zeros((2, 8))], np.random.default_rng(0))
        with pytest.raises(InvalidParams, match="step size"):
            cl.run_local_epochs(state, make_shard(), 1, None, lr)

    def test_loss_trend_downward(self):
        shard = make_shard(count=600, seed=23)
        rng = np.random.default_rng(29)
        layers = cl.init_layers([8, 2], rng, 0.1 / math.sqrt(8))
        cfg = cl.ClientConfig(bitwidth=8, aug_sigma=0.1)
        state = cl.start_client(cfg, layers, rng)
        losses = []
        for _ in range(20):
            cl.run_local_epochs(state, shard, 1, 64, 0.02)
            losses.append(ssl.loss(state.layer_values()[0], shard.covariance()))
        assert np.mean(losses[-10:]) < np.mean(losses[:10])

    def test_deterministic_under_reseed(self):
        shard = make_shard(seed=27)

        def run():
            rng = np.random.default_rng(77)
            layers = cl.init_layers([8, 2], np.random.default_rng(1), 0.05)
            cfg = cl.ClientConfig(bitwidth=5, aug_sigma=0.1)
            state = cl.start_client(cfg, layers, rng)
            cl.run_local_epochs(state, shard, 3, 32, 0.02)
            return state.model[0].indices.copy(), state.model[0].codebook.centers.copy()

        i1, c1 = run()
        i2, c2 = run()
        np.testing.assert_array_equal(i1, i2)
        np.testing.assert_array_equal(c1, c2)

    def test_bitwidth_confinement_at_rest(self):
        shard = make_shard(seed=33)
        rng = np.random.default_rng(41)
        layers = cl.init_layers([8, 2], rng, 0.05)
        cfg = cl.ClientConfig(bitwidth=4, aug_sigma=0.1)
        state = cl.start_client(cfg, layers, rng)
        cl.run_local_epochs(state, shard, 2, 64, 0.02)
        for layer in state.model:
            assert isinstance(layer, qk.QuantizedTensor)
            assert layer.codebook.rate == 4
            assert layer.indices.dtype == np.uint8
            assert layer.indices.max() < 16

    def test_shadow_convergence_high_rate(self):
        shard = make_shard(count=400, seed=37)

        def final_loss(quantized: bool):
            rng = np.random.default_rng(61)
            layers = cl.init_layers([8, 2], np.random.default_rng(2), 0.1 / math.sqrt(8))
            if quantized:
                state = cl.start_client(cl.ClientConfig(bitwidth=12, aug_sigma=0.1), layers, rng)
            else:
                state = cl.ClientState(plain_config(aug_sigma=0.1), layers, rng)
            for i in range(15):
                cl.run_local_epochs(state, shard, 2, 64, 0.03 / math.sqrt(i + 1))
            return ssl.loss(state.layer_values()[0], shard.covariance())

    # identical seeds and schedule; rng streams diverge once quantization
    # draws enter, so the comparison is loss-level
        lq = final_loss(True)
        lf = final_loss(False)
        assert abs(lq - lf) / lf < 0.05, (lq, lf)

    def test_gradient_error_rate_scaling(self):
        # normalized variance ratio mean(||eps_g||^2)/mean(||g||^2) falls by
        # a factor in [2.5, 6] per added gradient bit, >= 200 steps per rate
        shard = make_shard(count=400, seed=43)
        ratios = []
        rates = [3, 4, 5, 6, 7]
        for r in rates:
            rng = np.random.default_rng(83)
            layers = cl.init_layers([8, 2], np.random.default_rng(4), 0.1 / math.sqrt(8))
            cfg = cl.ClientConfig(bitwidth=r, grad_extra_bits=0, aug_sigma=0.1)
            state = cl.start_client(cfg, layers, rng)
            stats = cl.run_local_epochs(state, shard, 16, 64, 0.02)
            assert len(stats) >= 200
            ratios.append(stats.mean_grad_error() / np.mean(stats.grad_norm_sq))
        per_bit = 2.0 ** (-np.polyfit(rates, np.log2(ratios), 1)[0])
        assert 2.5 <= per_bit <= 6.0, (ratios, per_bit)
