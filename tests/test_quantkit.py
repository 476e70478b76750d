"""Codebook builders and stochastic quantization against hand oracles."""

import copy
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fedq import quantkit as qk
from fedq import _kernels as kernels
from fedq.errors import DegenerateRange, InvalidParams, NonFiniteInput


@pytest.fixture
def rng():
    return np.random.default_rng(99)


class TestUniformCodebook:
    def test_unit_range_rate2(self):
        cb = qk.build_uniform_codebook(0.0, 1.0, 2)
        np.testing.assert_allclose(cb.centers, [0.0, 1 / 3, 2 / 3, 1.0])

    def test_two_endpoints_rate1(self):
        cb = qk.build_uniform_codebook(-1.0, 1.0, 1)
        np.testing.assert_array_equal(cb.centers, [-1.0, 1.0])

    def test_rate3_step(self):
        cb = qk.build_uniform_codebook(0.0, 6.0, 3)
        assert cb.size == 8
        np.testing.assert_allclose(np.diff(cb.centers), 6.0 / 7.0)

    def test_degenerate_range_raises(self):
        with pytest.raises(DegenerateRange):
            qk.build_uniform_codebook(1.0, 1.0 + 1e-13, 4)

    def test_bad_rate(self):
        with pytest.raises(InvalidParams):
            qk.build_uniform_codebook(0.0, 1.0, 0)


@pytest.mark.parametrize(
    "build",
    [
        lambda rate: qk.build_uniform_codebook(0.0, 1.0, rate),
        lambda rate: qk.build_tanh_codebook(np.array([0.0, 1.0]), rate),
        lambda rate: qk.build_quantile_codebook(np.array([0.0, 1.0]), rate),
        lambda rate: qk.degenerate_codebook(0.5, rate),
    ],
    ids=["uniform", "tanh", "quantile", "degenerate"],
)
def test_builders_check_rate_cap_before_allocating(build):
    # 2^(MAX_RATE + 1) centers would be 256 MiB; the check must come first.
    with pytest.raises(InvalidParams, match="rate must be in"):
        build(qk.MAX_RATE + 1)


_FITTERS = {
    "tanh": lambda x: qk.build_tanh_codebook(x, 4),
    "quantile": lambda x: qk.build_quantile_codebook(x, 4),
    "fit-tanh": lambda x: qk.fit_and_quantize(x, 4, "tanh", np.random.default_rng(0)),
    "fit-quantile": lambda x: qk.fit_and_quantize(x, 4, "quantile", np.random.default_rng(0)),
}


class TestInputGuards:
    @pytest.mark.parametrize("fitter", list(_FITTERS))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, fitter, bad):
        x = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        x[1, 2] = bad
        with pytest.raises(InvalidParams, match="non-finite") as info:
            _FITTERS[fitter](x)
        assert isinstance(info.value, NonFiniteInput)

    @pytest.mark.parametrize("fitter", list(_FITTERS))
    def test_empty_input_rejected(self, fitter):
        with pytest.raises(InvalidParams, match="empty"):
            _FITTERS[fitter](np.zeros((0, 3)))


class TestTanhCodebook:
    def test_symmetric_pair_exact_endpoints(self):
        a = 0.7
        cb = qk.build_tanh_codebook(np.array([-a, a]), 1)
        np.testing.assert_array_equal(cb.centers, [-a, a])

    def test_constant_input_falls_back(self):
        cb = qk.build_tanh_codebook(np.zeros(5), 3)
        assert cb.is_degenerate
        np.testing.assert_array_equal(cb.centers, np.zeros(8))

    def test_transformed_domain_equispaced(self, rng):
        values = rng.normal(size=4096)
        cb = qk.build_tanh_codebook(values, 4)
        t = np.tanh(cb.centers)
        steps = np.diff(t)
        np.testing.assert_allclose(steps, steps[0], atol=1e-12)

    def test_spacing_widens_away_from_zero(self, rng):
        cb = qk.build_tanh_codebook(rng.normal(size=4096), 4)
        gaps = np.diff(cb.centers)
        mid = len(gaps) // 2
        assert gaps[0] > gaps[mid]
        assert gaps[-1] > gaps[mid]

    def test_centers_strictly_increasing_and_in_range(self, rng):
        values = rng.normal(size=1000) * 3.0
        cb = qk.build_tanh_codebook(values, 5)
        assert np.all(np.diff(cb.centers) > 0)
        assert cb.centers[0] >= values.min()
        assert cb.centers[-1] <= values.max()


def _linspace_tanh_centers(lo, hi, rate):
    """Tanh codebook centers built with np.linspace and np.clip, the
    form build_tanh_codebook spells out; kept as its reference."""
    t = np.linspace(np.tanh(lo), np.tanh(hi), 1 << rate)
    with np.errstate(divide="ignore", over="ignore"):
        centers = np.arctanh(t)
    centers[0] = lo
    centers[-1] = hi
    np.clip(centers, lo, hi, out=centers)
    if np.all(np.diff(centers) > 0.0):
        return centers
    scale = float(np.spacing(max(abs(centers[0]), abs(centers[-1]), 1.0)))
    ramp = scale * np.arange(centers.shape[0])
    return np.maximum.accumulate(centers - ramp) + ramp


_ENDPOINTS = st.one_of(
    st.floats(-3.0, 3.0),
    st.floats(-40.0, 40.0),
    st.floats(18.0, 40.0),  # tanh(x) == 1.0 beyond ~19.06
    st.floats(-40.0, -18.0),
    st.floats(-1e-6, 1e-6),
)


class TestTanhGridMatchesLinspace:
    @settings(max_examples=400, deadline=None)
    @given(a=_ENDPOINTS, b=_ENDPOINTS, rate=st.integers(1, 10))
    @example(a=20.0, b=25.0, rate=4)
    @example(a=-25.0, b=-19.5, rate=10)
    @example(a=-30.0, b=30.0, rate=10)
    @example(a=0.0, b=1e-9, rate=3)
    @example(a=-0.0, b=0.5, rate=2)
    def test_centers_bit_identical(self, a, b, rate):
        lo, hi = min(a, b), max(a, b)
        assume(hi - lo >= qk.RANGE_EPS)
        cb = qk.build_tanh_codebook(np.array([lo, 0.5 * (lo + hi), hi]), rate)
        ref = _linspace_tanh_centers(lo, hi, rate)
        np.testing.assert_array_equal(cb.centers.view(np.uint64), ref.view(np.uint64))


class TestQuantileCodebook:
    def test_interpolated_quantiles_1_to_8(self):
        cb = qk.build_quantile_codebook(np.arange(1.0, 9.0), 2)
        np.testing.assert_allclose(cb.centers, [1.875, 3.625, 5.375, 7.125])

    def test_matches_numpy_quantile(self, rng):
        values = rng.normal(size=501)
        cb = qk.build_quantile_codebook(values, 4)
        probs = (np.arange(16) + 0.5) / 16
        np.testing.assert_allclose(cb.centers, np.quantile(values, probs), rtol=1e-12)

    def test_uniform_large_sample(self, rng):
        values = rng.random(1_000_000)
        cb = qk.build_quantile_codebook(values, 3)
        expected = (2 * np.arange(8) + 1) / 16.0
        np.testing.assert_allclose(cb.centers, expected, atol=0.02)

    def test_constant_input_falls_back(self):
        cb = qk.build_quantile_codebook(np.full(10, 2.5), 2)
        assert cb.is_degenerate
        np.testing.assert_array_equal(cb.centers, np.full(4, 2.5))

    def test_heavy_ties_repaired(self):
        values = np.array([0.0] * 50 + [1.0])
        cb = qk.build_quantile_codebook(values, 4)
        assert np.all(np.diff(cb.centers) > 0)
        assert cb.centers[-1] <= values.max()


class TestStochasticQuantize:
    def test_probability_split(self, rng):
        cb = qk.build_uniform_codebook(0.0, 1.0, 1)
        n = 100_000
        q = qk.stochastic_quantize(np.full(n, 0.25), cb, rng)
        mean = qk.dequantize(q).mean()
        sigma = math.sqrt(0.25 * 0.75)  # Bernoulli std of the dequantized draw
        assert abs(mean - 0.25) < 3 * sigma / math.sqrt(n)

    def test_center_is_fixed_point(self, rng):
        cb = qk.build_uniform_codebook(0.0, 1.0, 2)
        q = qk.stochastic_quantize(np.full(1000, 1 / 3), cb, rng)
        assert np.all(q.indices == 1)

    def test_below_range_clamps(self, rng):
        cb = qk.build_uniform_codebook(0.0, 1.0, 2)
        q = qk.stochastic_quantize(np.full(100, -3.0), cb, rng)
        assert np.all(q.indices == 0)

    def test_shape_round_trip(self, rng):
        cb = qk.build_uniform_codebook(-1.0, 1.0, 3)
        x = rng.uniform(-1, 1, size=(4, 5))
        q = qk.stochastic_quantize(x, cb, rng)
        assert q.shape == (4, 5)
        assert qk.dequantize(q).shape == (4, 5)

    def test_dequantize_is_plain_lookup(self):
        cb = qk.build_uniform_codebook(0.0, 1.0, 2)
        q = qk.QuantizedTensor((2,), np.array([0, 3], dtype=np.uint8), cb)
        np.testing.assert_array_equal(qk.dequantize(q), [0.0, 1.0])

    def test_center_round_trip_exact(self, rng):
        cb = qk.build_tanh_codebook(rng.normal(size=100), 4)
        q = qk.stochastic_quantize(cb.centers.copy(), cb, rng)
        np.testing.assert_array_equal(qk.dequantize(q), cb.centers)

    def test_index_dtype_tracks_rate(self, rng):
        x = rng.uniform(-1, 1, size=64)
        for rate, dtype in [(4, np.uint8), (12, np.uint16), (17, np.uint32)]:
            cb = qk.build_uniform_codebook(-1.0, 1.0, rate)
            assert qk.stochastic_quantize(x, cb, rng).indices.dtype == dtype

    def test_degenerate_maps_to_index_zero(self, rng):
        cb = qk.degenerate_codebook(0.0, 4)
        q = qk.stochastic_quantize(np.array([-1.0, 0.0, 2.0]), cb, rng)
        assert np.all(q.indices == 0)
        np.testing.assert_array_equal(qk.dequantize(q), np.zeros(3))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rate=st.integers(1, 6))
    def test_requantize_is_idempotent(self, seed, rate):
        r = np.random.default_rng(seed)
        cb = qk.build_tanh_codebook(r.normal(size=64), rate)
        q1 = qk.stochastic_quantize(r.normal(size=64), cb, r)
        q2 = qk.stochastic_quantize(qk.dequantize(q1), cb, r)
        np.testing.assert_array_equal(q1.indices, q2.indices)


class TestFitAndQuantize:
    @pytest.mark.parametrize("compander", ["tanh", "quantile"])
    @pytest.mark.parametrize("kind", ["normal", "constant"])
    def test_matches_explicit_sequence(self, compander, kind):
        rng = np.random.default_rng(314)
        x = rng.normal(size=(6, 5)) if kind == "normal" else np.full((6, 5), 0.7)
        twin = copy.deepcopy(rng)
        q, values, err_sq = qk.fit_and_quantize(x, 4, compander, rng)

        build = qk.build_tanh_codebook if compander == "tanh" else qk.build_quantile_codebook
        cb = build(x, 4)
        q_ref = qk.stochastic_quantize(x, cb, twin)
        values_ref = qk.dequantize(q_ref)
        assert cb.is_degenerate == (kind == "constant")
        np.testing.assert_array_equal(q.codebook.centers, cb.centers)
        np.testing.assert_array_equal(q.indices, q_ref.indices)
        assert q.indices.dtype == q_ref.indices.dtype
        np.testing.assert_array_equal(values, values_ref)
        assert err_sq == float(np.sum((values_ref - x) ** 2))
        # Both streams consumed the same number of draws.
        assert rng.random() == twin.random()

    def test_rejects_fixed_range_compander(self, rng):
        with pytest.raises(InvalidParams, match="identity"):
            qk.fit_and_quantize(np.ones(3), 4, "identity", rng)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rate=st.integers(1, 10),
        compander=st.sampled_from(["tanh", "quantile"]),
        kind=st.sampled_from(["normal", "ties", "constant run", "constant"]),
        log_scale=st.floats(-3.0, 2.0),
        shape=st.sampled_from([(1,), (7,), (4, 32), (3, 5, 2), (128,)]),
    )
    def test_indices_fit_codebook_and_shape(self, seed, rate, compander, kind, log_scale, shape):
        # QuantizedTensor does not re-check what its one constructor
        # sets up; this pins those facts on every fitted path.
        r = np.random.default_rng(seed)
        x = r.normal(size=shape)
        if kind == "ties":
            x = np.round(x * 2.0) / 2.0
        elif kind == "constant run":
            flat = x.reshape(-1)
            flat[: max(1, flat.size // 2)] = flat[0]
        elif kind == "constant":
            x = np.full(shape, x.flat[0])
        x *= 10.0**log_scale
        q, values, _ = qk.fit_and_quantize(x, rate, compander, r)
        assert q.shape == x.shape
        assert values.shape == x.shape
        assert q.indices.ndim == 1 and q.indices.size == x.size
        assert q.indices.dtype == qk._index_dtype(2**rate)
        assert q.codebook.size == 2**rate
        assert int(q.indices.min()) >= 0 and int(q.indices.max()) < 2**rate


class TestUnbiasedness:
    @pytest.mark.parametrize("builder", ["uniform", "tanh", "quantile"])
    def test_in_range_mean_recovers_input(self, builder):
        rng = np.random.default_rng(901)
        data = rng.normal(size=5000)
        if builder == "uniform":
            cb = qk.build_uniform_codebook(-3.0, 3.0, 4)
        elif builder == "tanh":
            cb = qk.build_tanh_codebook(data, 4)
        else:
            cb = qk.build_quantile_codebook(data, 4)
        lo, hi = cb.centers[0], cb.centers[-1]
        xs = rng.uniform(lo, hi, size=20)
        n = 100_000
        for x in xs:
            var = float(kernels.expected_sq_error(np.array([x]), cb.centers)[0])
            q = qk.stochastic_quantize(np.full(n, x), cb, rng)
            mean = qk.dequantize(q).mean()
            tol = 3.0 * math.sqrt(var / n) + 1e-12
            assert abs(mean - x) < tol, f"{builder}: x={x} mean={mean} tol={tol}"


class TestEmpiricalMse:
    def test_samples_at_centers_give_zero(self, rng):
        cb = qk.build_uniform_codebook(0.0, 1.0, 3)
        assert qk.empirical_mse(cb, cb.centers.copy(), rng, draws=8) == 0.0

    def test_midpoint_quarter_gap_squared(self, rng):
        cb = qk.build_uniform_codebook(0.0, 1.0, 2)
        gap = 1.0 / 3.0
        mse = qk.empirical_mse(cb, np.array([0.5]), rng, draws=20_000)
        np.testing.assert_allclose(mse, gap**2 / 4.0, rtol=0.05)

    def test_matches_analytic_variance(self, rng):
        cb = qk.build_uniform_codebook(-2.0, 2.0, 4)
        x = rng.uniform(-2, 2, size=2000)
        analytic = kernels.expected_sq_error(x, cb.centers).mean()
        mse = qk.empirical_mse(cb, x, rng, draws=300)
        np.testing.assert_allclose(mse, analytic, rtol=0.02)

    def test_rate_ratio_r4_vs_r5(self, rng):
        data = np.clip(rng.standard_normal(1_000_000), -3, 3)
        m4 = qk.empirical_mse(qk.build_uniform_codebook(-3, 3, 4), data, rng, draws=2)
        m5 = qk.empirical_mse(qk.build_uniform_codebook(-3, 3, 5), data, rng, draws=2)
        assert 2.5 <= m4 / m5 <= 6.0

    def test_monotone_and_rate_scaling(self, rng):
        data = np.clip(rng.standard_normal(200_000), -3, 3)
        mses = [
            qk.empirical_mse(qk.build_uniform_codebook(-3, 3, r), data, rng, draws=2)
            for r in range(3, 9)
        ]
        assert all(a >= b for a, b in zip(mses, mses[1:]))
        drops = [math.log2(a) - math.log2(b) for a, b in zip(mses, mses[1:])]
        assert all(1.3 <= d <= 2.6 for d in drops), drops
