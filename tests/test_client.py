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

from oracle import (
    expected_sq_error, fit_and_quantize_one, quantile_codebook, quantize_one, sgd, start_client, stochastic_grad,
    tanh_codebook,
)


def alone(cfg, rng, bits=6):
    """One client at ``bits`` as a lockstep cohort of one."""
    return cl.Cohort(cfg, (1,), (bits,), [rng], [], [])


def batched(layers):
    """A cohort of one's step weights: each layer gains a leading axis of 1."""
    return [w[None] for w in layers]


def values(cohort):
    """The layers of a cohort of one's stored model, decoded."""
    return [qk.dequantize(w) for w in cohort.models[0]]


def make_shard(n=1, d=8, count=200, seed=21, k=1):
    return dg.generate_shard(dg.DataGenParams(n=n, d=d, frequent_count=count, seed=seed), k)


def plain_config(**kw):
    defaults = dict(quantize_activations=False, aug_sigma=0.0)
    defaults.update(kw)
    return cl.ClientConfig(**defaults)


def pass_through(x, rates, compander, rngs):
    """``qk.fit_and_quantize`` without quantization: each tensor is its own
    values, with no quantized batch and no draws."""
    return None, x


@pytest.fixture
def unquantized(monkeypatch):
    """The client's arithmetic in full precision: every fit passes through."""
    monkeypatch.setattr(qk, "fit_and_quantize", pass_through)


class TestClientConfig:
    @pytest.mark.parametrize("over, message", [
        ({"local_epochs": 0}, "local_epochs must be an integer >= 1"),
        ({"batch_size": 0}, "batch_size must be None"),
        ({"grad_extra_bits": -1}, "grad_extra_bits must be an integer >= 0"),
        ({"activation": "tanh"}, "activation must be identity or relu"),
        # sigma > 0.0 is False for NaN and -1, so either would train with
        # no augmentation noise instead of failing.
        ({"aug_sigma": math.nan}, "aug_sigma must be a real number >= 0"),
        ({"aug_sigma": -1.0}, "aug_sigma must be a real number >= 0"),
        ({"local_epochs": 1.5}, "local_epochs must be an integer >= 1"),
        ({"batch_size": True}, "batch_size must be None"),
        ({"batch_size": 2.5}, "batch_size must be None"),
        ({"grad_extra_bits": True}, "grad_extra_bits must be an integer >= 0"),
        ({"quantize_activations": 1}, "quantize_activations must be boolean"),
    ], ids=["local_epochs", "batch_size", "grad_extra_bits", "activation", "sigma-nan", "sigma-negative",
            "epochs-real", "batch-bool", "batch-real", "extra-bits-bool", "qact-int"])
    def test_rejects_a_setting_no_client_can_train_with(self, over, message):
        # Checked once, here: a round never checks its cohort's recipe again.
        with pytest.raises(InvalidParams, match=message):
            cl.ClientConfig(**over)

    def test_stores_aug_sigma_as_a_float(self):
        sigma = cl.ClientConfig(aug_sigma=1).aug_sigma
        assert type(sigma) is float and sigma == 1.0


class TestForward:
    def test_identity_unquantized_is_matmul(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(2, 8))
        batch = rng.normal(size=(16, 8))
        fs = cl.quantized_forward(batch[None], batched([w]), alone(plain_config(), rng))
        np.testing.assert_array_equal(fs.outputs[0], batch @ w.T)

    def test_identity_rows_reproduce_weight_rows(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(3, 4))
        cb = tanh_codebook(w, 8)
        qw = quantize_one(w, cb, rng)
        fs = cl.quantized_forward(np.eye(4)[None], batched([qk.dequantize(qw)]), alone(plain_config(), rng, bits=8))
        np.testing.assert_allclose(fs.outputs[0].T, qk.dequantize(qw), atol=1e-12)

    def test_high_rate_shadows_unquantized(self):
        # tight codebooks: activations kept in the tanh compander's
        # well-resolved region (wide-tailed inputs starve the tails)
        rng = np.random.default_rng(3)
        w = 0.3 * rng.normal(size=(2, 8))
        batch = rng.normal(size=(64, 8))
        cfg = cl.ClientConfig(quantize_activations=True, aug_sigma=0.0)
        qw = quantize_one(w, tanh_codebook(w, 16), rng)
        fs = cl.quantized_forward(batch[None], batched([qk.dequantize(qw)]), alone(cfg, rng, bits=16))
        ref = batch @ w.T
        rel = np.linalg.norm(fs.outputs[0] - ref) / np.linalg.norm(ref)
        assert rel < 1e-2

    def test_relu_layers_chain(self):
        rng = np.random.default_rng(4)
        layers = cl.init_layers([6, 5, 3], rng, 0.3)
        batch = rng.normal(size=(10, 6))
        fs = cl.quantized_forward(batch[None], batched(layers), alone(plain_config(activation="relu"), rng))
        h1 = np.maximum(batch @ layers[0].T, 0.0)
        np.testing.assert_allclose(fs.outputs[0], np.maximum(h1 @ layers[1].T, 0.0))


class TestBackward:
    def test_matches_sslcore_oracle(self, unquantized):
        rng_client = np.random.default_rng(42)
        rng_oracle = np.random.default_rng(42)
        shard = make_shard()
        w = np.random.default_rng(7).normal(size=(2, 8)) * 0.2
        cfg = plain_config(aug_sigma=0.1)
        team, weights = alone(cfg, rng_client), batched([w])
        fs = cl.quantized_forward(shard.samples[None], weights, team)
        upstream = cl.ssl_upstream(fs.outputs, team)
        grads, eps_g, g_sq = cl.quantized_backward(fs, upstream, weights, team)
        oracle = stochastic_grad(w, shard.samples, 0.1, rng_oracle)
        np.testing.assert_allclose(grads[0][0], oracle, rtol=1e-10, atol=1e-12)
        assert eps_g == 0.0
        assert g_sq == pytest.approx(np.sum(oracle**2), rel=1e-10)

    def test_zero_upstream_quantile_collapse(self):
        rng = np.random.default_rng(8)
        w = np.zeros((2, 4))
        cfg = cl.ClientConfig(aug_sigma=0.0)
        batch = np.zeros((6, 4))
        team, weights = alone(cfg, rng, bits=4), batched([w])
        fs = cl.quantized_forward(batch[None], weights, team)
        grads, eps_g, _ = cl.quantized_backward(fs, np.zeros((1, 6, 2)), weights, team)
        np.testing.assert_array_equal(grads[0][0], np.zeros((2, 4)))
        assert eps_g == 0.0

    def test_quantized_gradient_unbiased_in_range(self):
        rng = np.random.default_rng(123)
        shard = make_shard(seed=5)
        w = np.random.default_rng(9).normal(size=(2, 8)) * 0.3
        team = alone(cl.ClientConfig(grad_extra_bits=2, aug_sigma=0.0), rng, bits=4)
        raw = stochastic_grad(w, shard.samples, 0.0, rng)  # sigma 0: draws nothing
        n = 10_000
        acc = np.zeros_like(raw)
        (grad_bits,) = team.grad_bits
        assert grad_bits == 6
        cb = quantile_codebook(raw, grad_bits)
        for _ in range(n):
            acc += qk.dequantize(quantize_one(raw, cb, rng))
        acc /= n
        var = expected_sq_error(raw, cb.centers).reshape(raw.shape)
        in_range = (raw >= cb.centers[0]) & (raw <= cb.centers[-1])
        tol = 3.0 * np.sqrt(var / n) + 1e-12
        assert np.all(np.abs(acc - raw)[in_range] <= tol[in_range])

    def test_two_layer_relu_matches_finite_differences(self, unquantized):
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

        team, weights = alone(cfg, rng), batched(layers)
        fs = cl.quantized_forward(batch[None], weights, team)
        upstream = cl.ssl_upstream(fs.outputs, team)
        grads, _, _ = cl.quantized_backward(fs, upstream, weights, team)
        grads = [g[0] for g in grads]

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
        fs = cl.quantized_forward(rng.normal(size=(1, 6, 4)), batched([w]), alone(plain_config(), rng))
        with pytest.raises(StateMismatch):
            cl.quantized_backward(fs, np.zeros((1, 5, 2)), batched([w]), alone(plain_config(), rng))


class TestLocalUpdate:
    def test_zero_lr_at_centers_is_identity(self):
        rng = np.random.default_rng(11)
        w = rng.normal(size=(2, 6))
        qw = fit_and_quantize_one(w, 6, "tanh", rng)[0]
        model, values, eps_w = cl.local_update(batched([qk.dequantize(qw)]), [np.zeros((1, 2, 6))], 0.0,
                                               alone(cl.ClientConfig(aug_sigma=0.0), rng))
        assert eps_w == 0.0
        np.testing.assert_array_equal(qk.dequantize(cl.split_model(model)[0][0]), qk.dequantize(qw))
        assert values[0].tobytes() == qk.dequantize(model[0]).tobytes()

    def test_high_rate_error_is_tiny(self):
        rng = np.random.default_rng(12)
        w = rng.normal(size=(2, 8))
        g = rng.normal(size=(2, 8))
        qw = fit_and_quantize_one(w, 16, "tanh", rng)[0]
        team = alone(cl.ClientConfig(aug_sigma=0.0), rng, bits=16)
        eps_w = cl.local_update(batched([qk.dequantize(qw)]), [g[None]], 0.05, team)[2][0]
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
            cfg = cl.ClientConfig(grad_extra_bits=0, aug_sigma=0.1, local_epochs=20)
            cohort = start_client(cfg, 5, layers, rng, shard)
            stats = cl.run_local_epochs(cohort, a)
            means.append(stats.mean_weight_error())
        slope = np.polyfit(np.log(alphas), np.log(means), 1)[0]
        assert 0.5 <= slope <= 1.5, (alphas, means, slope)


class TestRunLocalEpochs:
    def test_single_plain_gradient_step(self, monkeypatch):
        shard = make_shard(seed=17)
        w0 = np.random.default_rng(3).normal(size=(2, 8)) * 0.2
        cfg = plain_config(aug_sigma=0.0, batch_size=None)
        cohort = start_client(cfg, 6, [w0], np.random.default_rng(0), shard)
        assert len(cl.run_local_epochs(cohort, 0.03)) == 1
        # the same full-batch step of a cohort, every fit passing through
        monkeypatch.setattr(qk, "fit_and_quantize", pass_through)
        team, weights = alone(cfg, np.random.default_rng(0)), batched([w0])
        fs = cl.quantized_forward(shard.samples[None], weights, team)
        grads, _, _ = cl.quantized_backward(fs, cl.ssl_upstream(fs.outputs, team), weights, team)
        _, weights, _ = cl.local_update(weights, grads, 0.03, team)
        oracle = stochastic_grad(w0, shard.samples, 0.0, np.random.default_rng(1))
        np.testing.assert_allclose(weights[0][0], w0 - 0.03 * oracle, rtol=1e-12)

    @pytest.mark.parametrize("lr", [0.0, -0.01, math.nan])
    def test_step_size_must_be_positive(self, lr):
        cohort = start_client(plain_config(), 6, [np.zeros((2, 8))], np.random.default_rng(0), make_shard())
        with pytest.raises(InvalidParams, match="step size"):
            cl.run_local_epochs(cohort, lr)

    def test_loss_trend_downward(self):
        shard = make_shard(count=600, seed=23)
        rng = np.random.default_rng(29)
        layers = cl.init_layers([8, 2], rng, 0.1 / math.sqrt(8))
        cohort = start_client(cl.ClientConfig(aug_sigma=0.1), 8, layers, rng, shard)
        losses = []
        for _ in range(20):
            cl.run_local_epochs(cohort, 0.02)
            losses.append(ssl.loss(values(cohort)[0], shard.covariance()))
        assert np.mean(losses[-10:]) < np.mean(losses[:10])

    def test_deterministic_under_reseed(self):
        shard = make_shard(seed=27)

        def run():
            rng = np.random.default_rng(77)
            layers = cl.init_layers([8, 2], np.random.default_rng(1), 0.05)
            cohort = start_client(cl.ClientConfig(aug_sigma=0.1, local_epochs=3, batch_size=32), 5, layers, rng, shard)
            cl.run_local_epochs(cohort, 0.02)
            (layer,) = cohort.models[0]
            return layer.indices.copy(), layer.codebook.centers.copy()

        i1, c1 = run()
        i2, c2 = run()
        np.testing.assert_array_equal(i1, i2)
        np.testing.assert_array_equal(c1, c2)

    def test_bitwidth_confinement_at_rest(self):
        shard = make_shard(seed=33)
        rng = np.random.default_rng(41)
        layers = cl.init_layers([8, 2], rng, 0.05)
        cohort = start_client(cl.ClientConfig(aug_sigma=0.1, local_epochs=2), 4, layers, rng, shard)
        cl.run_local_epochs(cohort, 0.02)
        for layer in cohort.models[0]:
            assert isinstance(layer, qk.QuantizedTensor)
            assert layer.codebook.plan.rates == (4,)
            assert layer.indices.dtype == np.uint8
            assert layer.indices.max() < 16

    def test_shadow_convergence_high_rate(self):
        shard = make_shard(count=400, seed=37)

        def final_loss(quantized: bool):
            rng = np.random.default_rng(61)
            layers = cl.init_layers([8, 2], np.random.default_rng(2), 0.1 / math.sqrt(8))
            if not quantized:  # the same schedule and sampling in plain SGD
                w = layers[0]
                for i in range(15):
                    w = sgd(w, shard.samples, 2, 64, 0.03 / math.sqrt(i + 1), 0.1, rng)
                return ssl.loss(w, shard.covariance())
            cohort = start_client(cl.ClientConfig(aug_sigma=0.1, local_epochs=2), 12, layers, rng, shard)
            for i in range(15):
                cl.run_local_epochs(cohort, 0.03 / math.sqrt(i + 1))
            return ssl.loss(values(cohort)[0], shard.covariance())

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
            cfg = cl.ClientConfig(grad_extra_bits=0, aug_sigma=0.1, local_epochs=16)
            cohort = start_client(cfg, r, layers, rng, shard)
            stats = cl.run_local_epochs(cohort, 0.02)
            assert len(stats) >= 200
            ratios.append(stats.mean_grad_error() / np.mean(stats.grad_norm_sq))
        per_bit = 2.0 ** (-np.polyfit(rates, np.log2(ratios), 1)[0])
        assert 2.5 <= per_bit <= 6.0, (ratios, per_bit)


@pytest.mark.parametrize("dims", [[], [4]], ids=["none", "one"])
def test_init_layers_needs_an_input_and_an_output_width(dims):
    with pytest.raises(InvalidParams, match="need at least input and output widths"):
        cl.init_layers(dims, np.random.default_rng(0), 0.1)
