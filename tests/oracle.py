"""Reference formulas the tests check the quantizer, the client and the
eigensolver against, single-tensor shorthands for the batched APIs (a
fitted codebook comes from ``qk.fit_codebook``, frozen), and codebooks
fitted to nothing: uniform and degenerate ones, built by hand and so left
writable, quantized with brackets searched by ``reference_bracket``."""

import numpy as np

from fedq import client as cl
from fedq import quantkit as qk


def tanh_codebook(x, rate):
    """The tanh codebook that ``qk.fit_codebook`` fits to one tensor: a
    batch of one."""
    return qk.fit_codebook(np.reshape(x, (1, -1)), (rate,), "tanh")[0]


def quantile_codebook(x, rate):
    """The quantile codebook that ``qk.fit_codebook`` fits to one tensor:
    a batch of one."""
    return qk.fit_codebook(np.reshape(x, (1, -1)), (rate,), "quantile")[0]


def uniform_codebook(lo, hi, rate):
    """K = 2^rate equispaced centers over [lo, hi], ends included, as one
    row (``np.linspace``). Nothing checks the range: the caller makes
    it finite and wider than RANGE_EPS."""
    plan = qk.fit_plan(0, (rate,))
    return qk.Codebooks(plan, np.linspace(lo, hi, plan.offsets[-1]), np.array([False]))


def degenerate_codebook(value, rate):
    """K copies of one center in one row: what a fit to constant input
    holds. Strict increase is waived; quantization maps every element to
    index 0."""
    plan = qk.fit_plan(0, (rate,))
    return qk.Codebooks(plan, np.full(plan.offsets[-1], float(value)), np.array([True]))


def quantize_one(x, cb, rng):
    """``qk.stochastic_quantize`` of one tensor with a one-row codebook not
    fitted to it, its brackets searched by ``reference_bracket``: the
    tensor as a client stores it."""
    x = np.asarray(x, dtype=np.float64)[None]
    fit = (cb, reference_bracket(cb.centers, x.reshape(1, -1)))
    return qk.unstack(qk.stochastic_quantize(x, fit, [rng]))[0]


def fit_and_quantize_one(x, rate, compander, rng):
    """``qk.fit_and_quantize`` of one tensor, a batch of one: (quantized
    tensor, values, ||values - x||^2)."""
    x = np.asarray(x, dtype=np.float64)[None]
    q, values = qk.fit_and_quantize(x, (rate,), compander, [rng])
    return qk.unstack(q)[0], values[0], float(qk.error_energy(values, x)[0])


def start_client(config, bits, init, rng, shard):
    """``cl.start_clients`` of one client, id 1: its cohort of one."""
    (cohort,) = cl.start_clients(config, init, {1: bits}, {1: rng}, {1: shard})
    return cohort


def reference_bracket(centers, x):
    """The kernel's bracket of each element of ``x``: the number of
    centers <= it, kept in [1, K - 1]."""
    return np.clip(centers.searchsorted(x, side="right"), 1, centers.size - 1)


def expected_sq_error(values, centers):
    """Per-element variance of the stochastic rounding error.

    For x bracketed by (c_j, c_{j+1}) the rounding is a Bernoulli draw and
    the mean squared error is (x - c_j)(c_{j+1} - x); clamped values incur
    the deterministic squared distance to the end center.
    """
    values = np.ascontiguousarray(values, dtype=np.float64).ravel()
    k = centers.shape[0]
    if k == 1:
        return (values - centers[0]) ** 2
    j = np.searchsorted(centers, values, side="right") - 1
    jc = np.clip(j, 0, k - 2)
    lo = centers[jc]
    hi = centers[jc + 1]
    out = (values - lo) * (hi - values)
    below = j < 0
    above = j >= k - 1
    out[below] = (values[below] - centers[0]) ** 2
    out[above] = (values[above] - centers[k - 1]) ** 2
    return out


def stochastic_grad(w, batch, aug_sigma, rng):
    """Minibatch gradient of the sampled SSL objective.

    The objective is -(1/B) sum_i (w x_i + xi_i)^T (w x_i + xi'_i)
    + 0.5 ||w^T w||^2 with fresh N(0, aug_sigma^2 I_m) noise per sample.
    With aug_sigma = 0 and the full dataset as batch this equals
    2 w (w^T w - X_B), half of ``sslcore.grad`` at the batch covariance;
    the noise contributes zero-mean cross terms.
    """
    b = batch.shape[0]
    m = w.shape[0]
    xb = batch.T @ batch / b
    g = 2.0 * w @ (w.T @ w - xb)
    if aug_sigma > 0.0:
        xi = rng.normal(0.0, aug_sigma, size=(b, m))
        xi2 = rng.normal(0.0, aug_sigma, size=(b, m))
        g -= (xi + xi2).T @ batch / b
    return g


def sgd(w, samples, epochs, batch_size, lr, aug_sigma, rng):
    """Plain SGD on the sampled SSL objective of the linear model ``w``,
    sampled as a client samples: per epoch a permutation of the rows from
    ``rng`` (natural order when one batch holds them all), then each
    minibatch's noise from the same stream, in ``stochastic_grad``."""
    rows = samples.shape[0]
    size = rows if batch_size is None else min(batch_size, rows)
    for _ in range(epochs):
        order = np.arange(rows) if size == rows else rng.permutation(rows)
        for i in range(0, rows, size):
            w = w - lr * stochastic_grad(w, samples[order[i:i + size]], aug_sigma, rng)
    return w


def reconstruct(eig):
    """The matrix an EigenDecomposition came from: V diag(lambda) V^T."""
    v = eig.eigenvectors
    return (v * eig.eigenvalues) @ v.T
