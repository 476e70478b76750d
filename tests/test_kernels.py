"""The rounding kernel against a scalar oracle, since experiment
determinism is defined over kernel outputs."""

import numpy as np
import pytest

from fedq import _kernels as kernels


def _centers(k=16, lo=-2.0, hi=3.0):
    return np.linspace(lo, hi, k)


def _brute_force_round(values, centers, uniforms):
    """Scalar-at-a-time oracle for the rounding rule."""
    out = []
    k = len(centers)
    for x, u in zip(values, uniforms):
        if x <= centers[0]:
            out.append(0)
            continue
        if x >= centers[-1]:
            out.append(k - 1)
            continue
        j = 0
        while centers[j + 1] <= x:
            j += 1
        p = (x - centers[j]) / (centers[j + 1] - centers[j])
        out.append(j + 1 if u < p else j)
    return np.array(out, dtype=np.int64)


def _masked_clamp_round(values, centers, uniforms):
    """The rounding rule with both range clamps as explicit masks."""
    k = centers.shape[0]
    j = np.searchsorted(centers, values, side="right") - 1
    jc = np.clip(j, 0, k - 2)
    p = (values - centers[jc]) / (centers[jc + 1] - centers[jc])
    out = jc + (uniforms < p)
    out[j < 0] = 0
    out[j >= k - 1] = k - 1
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def test_reference_matches_brute_force(rng):
    centers = _centers()
    x = rng.uniform(-3.0, 4.0, size=2000)
    u = rng.random(2000)
    got = kernels.stochastic_round(x, centers, u)
    np.testing.assert_array_equal(got, _brute_force_round(x, centers, u))


def test_reference_handles_exact_centers(rng):
    centers = _centers()
    u = rng.random(centers.size)
    got = kernels.stochastic_round(centers, centers, u)
    np.testing.assert_array_equal(got, np.arange(centers.size))


def test_expected_sq_error_is_bernoulli_variance(rng):
    centers = _centers(8, 0.0, 1.0)
    x = rng.uniform(0.0, 1.0, size=50)
    expect = kernels.expected_sq_error(x, centers)
    # Monte-Carlo check of E[(x - Q(x))^2] per element.
    draws = 40000
    acc = np.zeros_like(x)
    for _ in range(draws):
        idx = kernels.stochastic_round(x, centers, rng.random(x.size))
        acc += (x - centers[idx]) ** 2
    acc /= draws
    np.testing.assert_allclose(acc, expect, atol=4e-4)


def test_out_of_range_clamps():
    centers = _centers(4, 0.0, 1.0)
    x = np.array([-5.0, 0.0, 1.0, 9.0])
    u = np.array([0.999, 0.999, 0.0, 0.0])
    got = kernels.stochastic_round(x, centers, u)
    np.testing.assert_array_equal(got, [0, 0, 3, 3])
    err = kernels.expected_sq_error(x, centers)
    np.testing.assert_allclose(err, [25.0, 0.0, 0.0, 64.0])



def test_infinities_clamp_to_end_indices():
    centers = _centers(8, -1.0, 1.0)
    x = np.array([-np.inf, np.inf, -np.inf, np.inf])
    u = np.array([0.0, 0.0, 0.999, 0.999])
    got = kernels.stochastic_round(x, centers, u)
    np.testing.assert_array_equal(got, [0, 7, 0, 7])
    assert got.dtype == np.int64


@pytest.mark.parametrize("k", [2, 3, 16])
def test_matches_masked_clamp_form(rng, k):
    centers = np.sort(rng.normal(size=k)) if k > 2 else np.array([-0.5, 0.25])
    x = np.concatenate([
        rng.normal(scale=2.0, size=500),
        centers,
        [-np.inf, np.inf, np.nan, np.nextafter(centers[0], -np.inf),
         np.nextafter(centers[-1], np.inf)],
    ])
    u = rng.random(x.size)
    got = kernels.stochastic_round(x, centers, u)
    np.testing.assert_array_equal(got, _masked_clamp_round(x, centers, u))
