"""Codebook builders and stochastic quantization against hand oracles."""

import copy
import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fedq import quantkit as qk
from fedq.cli import clipped_gaussian_mse_sweep
from fedq.errors import InvalidParams, NonFiniteInput

from conftest import examples
from oracle import (degenerate_codebook, expected_sq_error, fit_and_quantize_one, quantile_codebook, quantize_one,
                    reference_bracket, tanh_codebook, uniform_codebook)


@pytest.fixture
def rng():
    return np.random.default_rng(99)


class TestUniformCodebook:
    def test_unit_range_rate2(self):
        cb = uniform_codebook(0.0, 1.0, 2)
        np.testing.assert_allclose(cb.centers, [0.0, 1 / 3, 2 / 3, 1.0])

    def test_two_endpoints_rate1(self):
        cb = uniform_codebook(-1.0, 1.0, 1)
        np.testing.assert_array_equal(cb.centers, [-1.0, 1.0])

    def test_rate3_step(self):
        cb = uniform_codebook(0.0, 6.0, 3)
        assert cb.centers.size == 8
        np.testing.assert_allclose(np.diff(cb.centers), 6.0 / 7.0)

    def test_bad_rate(self):
        with pytest.raises(InvalidParams):
            uniform_codebook(0.0, 1.0, 0)


@pytest.mark.parametrize(
    "build",
    [
        lambda rate: uniform_codebook(0.0, 1.0, rate),
        lambda rate: tanh_codebook(np.array([0.0, 1.0]), rate),
        lambda rate: quantile_codebook(np.array([0.0, 1.0]), rate),
        lambda rate: degenerate_codebook(0.5, rate),
    ],
    ids=["uniform", "tanh", "quantile", "degenerate"],
)
def test_builders_check_rate_cap_before_allocating(build):
    # 2^(MAX_RATE + 1) centers would be 256 MiB; the check must come first.
    with pytest.raises(InvalidParams, match="rate must be in"):
        build(qk.MAX_RATE + 1)


_FITTERS = {
    "tanh": lambda x: tanh_codebook(x, 4),
    "quantile": lambda x: quantile_codebook(x, 4),
    "fit-tanh": lambda x: fit_and_quantize_one(x, 4, "tanh", np.random.default_rng(0)),
    "fit-quantile": lambda x: fit_and_quantize_one(x, 4, "quantile", np.random.default_rng(0)),
    "batch-tanh": lambda x: qk.fit_codebook(x, (4,) * len(x), "tanh"),
    "batch-quantile": lambda x: qk.fit_codebook(x, (4,) * len(x), "quantile"),
}


class TestInputGuards:
    @pytest.mark.parametrize("fitter", list(_FITTERS))
    @pytest.mark.parametrize("bad", [pytest.param(math.nan, id="nan"), pytest.param(-math.nan, id="-nan"),
                                     pytest.param(math.inf, id="inf"), pytest.param(-math.inf, id="-inf")])
    def test_non_finite_input_rejected(self, fitter, bad):
        # A packed-key sort puts a negative NaN first, argsort puts it
        # last; either way it is an end of its row, and the error names it.
        for n in (4, 512):  # argsort and packed-key quantile rows
            x = np.linspace(-1.0, 1.0, 3 * n).reshape(3, n)
            x[1, 2] = bad
            x[2, 1] = bad
            with pytest.raises(InvalidParams, match="non-finite") as info:
                _FITTERS[fitter](x)
            assert isinstance(info.value, NonFiniteInput)
            assert info.value.row == (1 if fitter.startswith("batch") else 0)

    @pytest.mark.parametrize("fitter", list(_FITTERS))
    def test_empty_input_rejected(self, fitter):
        with pytest.raises(InvalidParams, match="empty"):
            _FITTERS[fitter](np.zeros((0, 3)))


class TestTanhCodebook:
    def test_symmetric_pair_exact_endpoints(self):
        a = 0.7
        cb = tanh_codebook(np.array([-a, a]), 1)
        np.testing.assert_array_equal(cb.centers, [-a, a])

    def test_constant_input_falls_back(self):
        cb = tanh_codebook(np.zeros(5), 3)
        assert cb.is_degenerate
        np.testing.assert_array_equal(cb.centers, np.zeros(8))

    def test_transformed_domain_equispaced(self, rng):
        values = rng.normal(size=4096)
        cb = tanh_codebook(values, 4)
        t = np.tanh(cb.centers)
        steps = np.diff(t)
        np.testing.assert_allclose(steps, steps[0], atol=1e-12)

    def test_spacing_widens_away_from_zero(self, rng):
        cb = tanh_codebook(rng.normal(size=4096), 4)
        gaps = np.diff(cb.centers)
        mid = len(gaps) // 2
        assert gaps[0] > gaps[mid]
        assert gaps[-1] > gaps[mid]

    def test_centers_strictly_increasing_and_in_range(self, rng):
        values = rng.normal(size=1000) * 3.0
        cb = tanh_codebook(values, 5)
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
    @settings(max_examples=examples(400), deadline=None)
    @given(a=_ENDPOINTS, b=_ENDPOINTS, rate=st.integers(1, 10))
    @example(a=20.0, b=25.0, rate=4)
    @example(a=-25.0, b=-19.5, rate=10)
    @example(a=-30.0, b=30.0, rate=10)
    @example(a=0.0, b=1e-9, rate=3)
    @example(a=-0.0, b=0.5, rate=2)
    def test_centers_bit_identical(self, a, b, rate):
        lo, hi = min(a, b), max(a, b)
        assume(hi - lo >= qk.RANGE_EPS)
        cb = tanh_codebook(np.array([lo, 0.5 * (lo + hi), hi]), rate)
        ref = _linspace_tanh_centers(lo, hi, rate)
        np.testing.assert_array_equal(cb.centers.view(np.uint64), ref.view(np.uint64))


class TestQuantileCodebook:
    def test_interpolated_quantiles_1_to_8(self):
        cb = quantile_codebook(np.arange(1.0, 9.0), 2)
        np.testing.assert_allclose(cb.centers, [1.875, 3.625, 5.375, 7.125])

    def test_matches_numpy_quantile(self, rng):
        values = rng.normal(size=501)
        cb = quantile_codebook(values, 4)
        probs = (np.arange(16) + 0.5) / 16
        np.testing.assert_allclose(cb.centers, np.quantile(values, probs), rtol=1e-12)

    def test_uniform_large_sample(self, rng):
        values = rng.random(1_000_000)
        cb = quantile_codebook(values, 3)
        expected = (2 * np.arange(8) + 1) / 16.0
        np.testing.assert_allclose(cb.centers, expected, atol=0.02)

    def test_constant_input_falls_back(self):
        cb = quantile_codebook(np.full(10, 2.5), 2)
        assert cb.is_degenerate
        np.testing.assert_array_equal(cb.centers, np.full(4, 2.5))

    def test_heavy_ties_repaired(self):
        values = np.array([0.0] * 50 + [1.0])
        cb = quantile_codebook(values, 4)
        assert np.all(np.diff(cb.centers) > 0)
        assert cb.centers[-1] <= values.max()

    @settings(max_examples=examples(100), deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rates=st.lists(st.integers(1, 8), min_size=1, max_size=3),
           n=st.integers(2, 48), log_scale=st.floats(-3.0, 3.0), s=st.sampled_from([2.0, 0.25, 8.0]))
    def test_power_of_two_scale_commutes_with_the_fit(self, seed, rates, n, log_scale, s):
        # Distinct integers times one scale: no row is degenerate and no
        # center needs repair, so every step of the fit and of the rounding
        # either scales by s exactly or compares two values that both did.
        r = np.random.default_rng(seed)
        x = np.stack([r.choice(2 * 10**6, n, replace=False) - 10**6 for _ in rates]) * 10.0**log_scale
        rates = tuple(rates)
        cb, n_le = qk.fit_codebook(x, rates, "quantile")
        cb_s, n_le_s = qk.fit_codebook(s * x, rates, "quantile")
        assert not cb.degenerate.any() and not cb_s.degenerate.any()
        np.testing.assert_array_equal(n_le_s, n_le)
        np.testing.assert_array_equal(cb_s.centers, s * cb.centers)
        rngs = [np.random.default_rng([seed, i]) for i in range(len(rates))]
        twins = copy.deepcopy(rngs)
        q = qk.stochastic_quantize(x, (cb, n_le), rngs)
        q_s = qk.stochastic_quantize(s * x, (cb_s, n_le_s), twins)
        np.testing.assert_array_equal(q_s.indices, q.indices)


def _sort_input(seed, kind, c, n):
    """(c, n) rows that are hard to sort by packed keys."""
    r = np.random.default_rng(seed)
    if kind == "ties":
        return np.round(r.normal(size=(c, n)) * 2.0) / 2.0
    if kind == "signed zeros":
        return r.choice([-0.0, 0.0, 0.0, -0.0, 1.0, -0.5], size=(c, n))
    if kind == "constant":
        return np.full((c, n), r.normal())
    if kind == "near-ties":  # a few values, each moved by 0-2 ulps up or down
        x = r.choice(r.normal(size=4) * 10.0 ** r.integers(-300, 300, size=4), size=(c, n))
        for _ in range(2):
            step = np.nextafter(x, r.choice([-np.inf, np.inf], size=(c, n)))
            x = np.where(r.random((c, n)) < 0.5, step, x)
        return x
    return r.normal(size=(c, n))


class TestSortRows:
    @settings(max_examples=examples(60), deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["normal", "ties", "signed zeros", "constant",
                                                                "near-ties"]),
           c=st.integers(1, 3), n=st.sampled_from([1, 511, 512, 1500, 4096, 65536, 65537]))
    @example(seed=0, kind="near-ties", c=3, n=512)  # packed keys misorder 1-ulp pairs: argsort re-sorts
    def test_sorted_and_its_argsort(self, seed, kind, c, n):
        rows = _sort_input(seed, kind, c, n)
        plan = qk.fit_plan(n, (4,) * c)
        out, order = qk.sort_rows(rows, plan)
        assert np.all(out[:, 1:] >= out[:, :-1])
        assert out.tobytes() == rows.take(order).tobytes()
        np.testing.assert_array_equal(np.sort(order - plan.row_base, axis=1), np.broadcast_to(np.arange(n), (c, n)))
        np.testing.assert_array_equal(out, np.sort(rows, axis=1))
        if 512 <= n <= 65536 and kind != "near-ties":  # packed keys: -0.0 first, then ties in column order
            np.testing.assert_array_equal(order - plan.row_base, np.lexsort((~np.signbit(rows), rows), axis=1))

    def test_near_ties_fall_back_to_argsort(self):
        # Keys share all but their low 9 bits: column order puts the larger first.
        rows = np.ones((2, 512))
        rows[1, 0] = np.nextafter(1.0, 2.0)
        plan = qk.fit_plan(512, (4, 4))
        out, order = qk.sort_rows(rows, plan)
        assert out[1, -1] == rows[1, 0] and out[1, 0] == 1.0
        np.testing.assert_array_equal(order[0], np.arange(512))


class TestStochasticQuantize:
    def test_probability_split(self, rng):
        cb = uniform_codebook(0.0, 1.0, 1)
        n = 100_000
        q = quantize_one(np.full(n, 0.25), cb, rng)
        mean = qk.dequantize(q).mean()
        sigma = math.sqrt(0.25 * 0.75)  # Bernoulli std of the dequantized draw
        assert abs(mean - 0.25) < 3 * sigma / math.sqrt(n)

    def test_center_is_fixed_point(self, rng):
        cb = uniform_codebook(0.0, 1.0, 2)
        q = quantize_one(np.full(1000, 1 / 3), cb, rng)
        assert np.all(q.indices == 1)

    def test_below_range_clamps(self, rng):
        cb = uniform_codebook(0.0, 1.0, 2)
        q = quantize_one(np.full(100, -3.0), cb, rng)
        assert np.all(q.indices == 0)

    def test_shape_round_trip(self, rng):
        cb = uniform_codebook(-1.0, 1.0, 3)
        x = rng.uniform(-1, 1, size=(4, 5))
        q = quantize_one(x, cb, rng)
        assert q.shape == (4, 5)
        assert qk.dequantize(q).shape == (4, 5)

    def test_dequantize_is_plain_lookup(self):
        cb = uniform_codebook(0.0, 1.0, 2)
        q = qk.QuantizedTensor((2,), np.array([0, 3], dtype=np.uint8), cb)
        np.testing.assert_array_equal(qk.dequantize(q), [0.0, 1.0])

    def test_center_round_trip_exact(self, rng):
        cb = tanh_codebook(rng.normal(size=100), 4)
        q = quantize_one(cb.centers.copy(), cb, rng)
        np.testing.assert_array_equal(qk.dequantize(q), cb.centers)

    def test_index_dtype_tracks_rate(self, rng):
        x = rng.uniform(-1, 1, size=64)
        for rate, dtype in [(4, np.uint8), (12, np.uint16), (17, np.uint32)]:
            cb = uniform_codebook(-1.0, 1.0, rate)
            assert quantize_one(x, cb, rng).indices.dtype == dtype

    def test_degenerate_maps_to_index_zero(self, rng):
        cb = degenerate_codebook(0.0, 4)
        q = quantize_one(np.array([-1.0, 0.0, 2.0]), cb, rng)
        assert np.all(q.indices == 0)
        np.testing.assert_array_equal(qk.dequantize(q), np.zeros(3))

    @settings(max_examples=examples(40), deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rate=st.integers(1, 6))
    def test_requantize_is_idempotent(self, seed, rate):
        r = np.random.default_rng(seed)
        cb = tanh_codebook(r.normal(size=64), rate)
        q1 = quantize_one(r.normal(size=64), cb, r)
        q2 = quantize_one(qk.dequantize(q1), cb, r)
        np.testing.assert_array_equal(q1.indices, q2.indices)


class TestFitAndQuantize:
    @pytest.mark.parametrize("compander", ["tanh", "quantile"])
    @pytest.mark.parametrize("kind", ["normal", "constant"])
    def test_matches_explicit_sequence(self, compander, kind):
        rng = np.random.default_rng(314)
        x = rng.normal(size=(6, 5)) if kind == "normal" else np.full((6, 5), 0.7)
        twin = copy.deepcopy(rng)
        q, values, err_sq = fit_and_quantize_one(x, 4, compander, rng)

        build = tanh_codebook if compander == "tanh" else quantile_codebook
        cb = build(x, 4)
        q_ref = quantize_one(x, cb, twin)
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
            fit_and_quantize_one(np.ones(3), 4, "identity", rng)

    @settings(max_examples=examples(200), deadline=None)
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
        q, values, _ = fit_and_quantize_one(x, rate, compander, r)
        assert q.shape == x.shape
        assert values.shape == x.shape
        assert q.indices.ndim == 1 and q.indices.size == x.size
        assert q.indices.dtype == qk._index_dtype(2**rate)
        assert q.codebook.centers.size == 2**rate
        assert int(q.indices.min()) >= 0 and int(q.indices.max()) < 2**rate


_BUILD = {"tanh": tanh_codebook, "quantile": quantile_codebook}


def _n_le(compander, x, centers):
    """The fit's kernel bracket of each element of ``x`` in ``centers``, as one row."""
    rows = np.reshape(x, (1, -1))
    plan = qk.fit_plan(rows.shape[1], (centers.size.bit_length() - 1,))
    cbs = qk.Codebooks(plan, centers, np.array([False]))
    if compander == "tanh":
        return qk.tanh_n_le(rows, cbs)[0]
    sorted_rows, order = qk.sort_rows(rows, plan)
    return qk.quantile_n_le(sorted_rows, cbs, order)[0]


def _bracket_input(seed, kind, n, log_scale):
    """n elements that are hard to bracket without a search."""
    r = np.random.default_rng(seed)
    scale = 10.0**log_scale
    if kind == "normal":
        x = r.normal(size=n) * scale
    elif kind == "cauchy":
        x = r.standard_cauchy(size=n) * scale
    elif kind == "ties":
        x = np.round(r.normal(size=n) * 2.0) / 2.0 * scale
    elif kind == "signed zeros":
        x = r.choice([-0.0, 0.0, 0.0, -0.0, 1.0, -0.5], size=n) * scale
    elif kind == "saturated":
        # tanh(x) rounds to +-1 beyond |x| ~ 19.06.
        x = r.uniform(-40.0, 40.0, size=n)
    elif kind == "saturated high":
        x = r.uniform(18.0, 40.0, size=n)
    elif kind == "constant run":
        x = r.normal(size=n) * scale
        x[: max(1, n // 2)] = x[0]
    else:  # "near-constant": collapsed centers that get repaired
        x = (5.0 + r.normal(size=n) * 1e-13) * scale
    return x.reshape(2, n // 2) if n % 2 == 0 else x


_BRACKET_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    rate=st.integers(1, 10),
    compander=st.sampled_from(["tanh", "quantile"]),
    kind=st.sampled_from(["normal", "cauchy", "ties", "signed zeros", "saturated",
                          "saturated high", "constant run", "near-constant"]),
    n=st.sampled_from([1, 7, 128, 511, 512, 1500, 2047, 2048]),
    log_scale=st.floats(-3.0, 2.0),
)


class TestFittedBrackets:
    """fit_and_quantize takes each element's bracket from the fit rather
    than a search; the two must agree exactly."""

    @settings(max_examples=examples(300), deadline=None)
    @given(**_BRACKET_CASES)
    @example(seed=0, rate=10, compander="tanh", kind="saturated high", n=2048, log_scale=0.0)
    @example(seed=1, rate=10, compander="tanh", kind="near-constant", n=2048, log_scale=2.0)
    @example(seed=2, rate=10, compander="quantile", kind="ties", n=2048, log_scale=0.0)
    def test_n_le_matches_search(self, seed, rate, compander, kind, n, log_scale):
        x = _bracket_input(seed, kind, n, log_scale)
        cb = _BUILD[compander](x, rate)
        assume(not cb.is_degenerate)
        flat = x.ravel()
        got = _n_le(compander, flat, cb.centers)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, reference_bracket(cb.centers, flat))

    @pytest.mark.parametrize("compander", ["tanh", "quantile"])
    def test_exact_for_a_codebook_fitted_elsewhere(self, compander):
        # Values far outside the codebook push the tanh guess out of [1, K - 1].
        cb = _BUILD[compander](np.linspace(-0.05, 0.05, 9), 3)
        x = np.linspace(-5.0, 5.0, 101)
        np.testing.assert_array_equal(_n_le(compander, x, cb.centers), reference_bracket(cb.centers, x))

    @settings(max_examples=examples(200), deadline=None)
    @given(**_BRACKET_CASES)
    def test_fit_matches_searched_sequence(self, seed, rate, compander, kind, n, log_scale):
        x = _bracket_input(seed, kind, n, log_scale)
        rng = np.random.default_rng(seed)
        twin = copy.deepcopy(rng)
        q, values, err_sq = fit_and_quantize_one(x, rate, compander, rng)
        cb = _BUILD[compander](x, rate)
        q_ref = quantize_one(x, cb, twin)
        values_ref = qk.dequantize(q_ref)
        np.testing.assert_array_equal(q.codebook.centers, cb.centers)
        np.testing.assert_array_equal(q.indices, q_ref.indices)
        assert q.indices.dtype == q_ref.indices.dtype
        np.testing.assert_array_equal(values, values_ref)
        assert err_sq == float(np.sum((values_ref - x) ** 2))
        assert rng.random() == twin.random()

    @pytest.mark.parametrize("compander", ["tanh", "quantile"])
    def test_every_kernel_call_receives_brackets(self, compander, monkeypatch):
        seen = []
        kernel = qk._kernels.stochastic_round

        def spy(values, centers, uniforms, n_le):
            seen.append((n_le.shape, n_le.dtype))
            return kernel(values, centers, uniforms, n_le)

        monkeypatch.setattr(qk._kernels, "stochastic_round", spy)
        rng = np.random.default_rng(5)
        for n in (511, 512):
            fit_and_quantize_one(rng.normal(size=n), 4, compander, rng)
        qk.fit_and_quantize(rng.normal(size=(3, 40)), (2, 4, 6), compander, [rng] * 3)
        quantize_one(rng.normal(size=512), uniform_codebook(-1.0, 1.0, 4), rng)
        assert seen == [((511,), np.intp), ((512,), np.intp), ((120,), np.intp), ((512,), np.intp)]


class TestUnbiasedness:
    @pytest.mark.parametrize("builder", ["uniform", "tanh", "quantile"])
    def test_in_range_mean_recovers_input(self, builder):
        rng = np.random.default_rng(901)
        data = rng.normal(size=5000)
        if builder == "uniform":
            cb = uniform_codebook(-3.0, 3.0, 4)
        elif builder == "tanh":
            cb = tanh_codebook(data, 4)
        else:
            cb = quantile_codebook(data, 4)
        lo, hi = cb.centers[0], cb.centers[-1]
        xs = rng.uniform(lo, hi, size=20)
        n = 100_000
        for x in xs:
            var = float(expected_sq_error(np.array([x]), cb.centers)[0])
            q = quantize_one(np.full(n, x), cb, rng)
            mean = qk.dequantize(q).mean()
            tol = 3.0 * math.sqrt(var / n) + 1e-12
            assert abs(mean - x) < tol, f"{builder}: x={x} mean={mean} tol={tol}"


def _searched_fit(x, cb):
    """A one-row codebook not fitted to ``x`` with ``x``'s brackets searched."""
    return cb, reference_bracket(cb.centers, np.reshape(x, (1, -1)))


def _batch_row(r, kind, n):
    x = r.normal(size=n)
    if kind == "ties":  # many elements on the quantile centers
        return np.round(x * 2.0) / 2.0
    if kind == "constant":
        return np.full(n, x[0])
    if kind == "one outlier":  # quantile centers all but collapse: degenerate, yet not constant
        return np.append(np.full(n - 1, x[0]), x[0] + 1.0)
    return x


class TestExpectedError:
    """expected_error is the exact mean of error_energy over the draws."""

    # Each row's sum and the oracle's add the same per-element terms, in
    # possibly another order.
    RTOL = 1e-12

    def test_samples_at_centers_give_zero(self):
        cb = uniform_codebook(0.0, 1.0, 3)
        assert qk.expected_error(cb.centers[None], _searched_fit(cb.centers, cb)).tolist() == [0.0]

    def test_midpoint_quarter_gap_squared(self):
        cb = uniform_codebook(0.0, 1.0, 2)
        gap = 1.0 / 3.0
        got = qk.expected_error(np.array([[0.5]]), _searched_fit([0.5], cb))
        assert got[0] == pytest.approx(gap**2 / 4.0, rel=self.RTOL)

    @settings(max_examples=examples(200), deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        compander=st.sampled_from(["tanh", "quantile"]),
        rates=st.lists(st.integers(1, 8), min_size=1, max_size=4),
        kinds=st.lists(st.sampled_from(["normal", "ties", "constant", "one outlier"]), min_size=4, max_size=4),
        n=st.sampled_from([1, 2, 7, 129, 600]),  # n - 1 = 128 puts quantile centers of rates <= 6 on samples
        log_scale=st.floats(-3.0, 2.0),
    )
    # A degenerate row whose centers are ulps apart, 3e-12 from its outlier:
    # reading its brackets instead of its first center is off by ~1e-3.
    @example(seed=0, compander="quantile", rates=[4], kinds=["one outlier"] * 4, n=51, log_scale=-11.5)
    def test_matches_oracle_on_each_row(self, seed, compander, rates, kinds, n, log_scale):
        # Tanh ends sit on each row's extremes, tied quantile centers on
        # samples; clamped tails and degenerate rows come from the fit.
        r = np.random.default_rng(seed)
        x = np.stack([_batch_row(r, kind, n) for kind in kinds[:len(rates)]]) * 10.0**log_scale
        cbs, n_le = qk.fit_codebook(x, tuple(rates), compander)
        got = qk.expected_error(x, (cbs, n_le))
        assert got.shape == (len(rates),)
        for row, (a, b), dead, value in zip(x, cbs.plan.first_last, cbs.degenerate, got):
            centers = cbs.centers[a:b + 1]
            want = np.sum((row - centers[0]) ** 2) if dead else np.sum(expected_sq_error(row, centers))
            np.testing.assert_allclose(value, want, rtol=self.RTOL, atol=0.0)

    def test_is_the_mean_of_the_realized_error(self):
        # Over D independent draws the mean realized error energy of a row
        # is within z * sd / sqrt(D) of its expectation; z is Sidak-corrected
        # over the rows so that the test false-alarms with probability 0.001
        # (sd from the draws; the central limit at D = 4000).
        r = np.random.default_rng(17)
        x = np.stack([_batch_row(r, kind, 256) for kind in ("normal", "ties", "normal", "one outlier")])
        rates, draws = (2, 4, 6, 3), 4000
        for compander in ("tanh", "quantile"):
            fit = qk.fit_codebook(x, rates, compander)
            expected = qk.expected_error(x, fit)
            rngs = [np.random.default_rng([17, i]) for i in range(len(rates))]
            realized = np.array([qk.error_energy(qk.dequantize(qk.stochastic_quantize(x, fit, rngs)), x)
                                 for _ in range(draws)])
            sd = realized.std(axis=0, ddof=1)
            cut = NormalDist().inv_cdf(1.0 - (1.0 - 0.999 ** (1.0 / 8)) / 2.0)  # 2 companders x 4 rows
            for row, (mean, s, want) in enumerate(zip(realized.mean(axis=0), sd, expected)):
                if s == 0.0:  # every element on a center, or a degenerate row: the same terms
                    assert realized[0, row] == want, (compander, row)
                else:
                    assert abs(mean - want) <= cut * s / math.sqrt(draws), (compander, row, mean, want)

    def test_monotone_and_rate_scaling(self):
        # Both companders' exact MSE falls by 1.3-2.6 bits per bit of rate
        # (2 in the high-rate limit) on 2e5 clipped N(0,1) samples.
        rows = clipped_gaussian_mse_sweep(list(range(3, 9)), 200_000, seed=99)
        for key in ("tanh_mse", "quantile_mse"):
            mses = [row[key] for row in rows]
            drops = [math.log2(a) - math.log2(b) for a, b in zip(mses, mses[1:])]
            assert all(1.3 <= d <= 2.6 for d in drops), (key, drops)
