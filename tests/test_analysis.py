"""Moreau surrogate, bound evaluation, variance probes, representability bounds."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedq import analysis as an
from fedq import client as cl
from fedq import datagen as dg
from fedq import sslcore as ssl
from fedq.errors import InvalidCoordinate, InvalidParams, NoConvergence


def random_psd(rng, d):
    a = rng.normal(size=(d, d))
    return a @ a.T / d


@pytest.fixture
def setup():
    rng = np.random.default_rng(50)
    x = random_psd(rng, 6)
    tp = an.TheoryParams.from_covariance(x)
    return rng, x, tp


class TestTheoryParams:
    def test_rho_dominates_spectral_norm(self, setup):
        _, x, tp = setup
        assert tp.rho >= 4.0 * ssl.spectral_norm(x)
        assert tp.rho_bar > tp.rho

    def test_invalid_ordering(self):
        with pytest.raises(InvalidParams):
            an.TheoryParams(rho=2.0, rho_bar=1.0)


class TestProxSurrogate:
    def test_near_zero_at_optimum(self, setup):
        _, x, tp = setup
        w = ssl.closed_form_optimum(x, 3)
        s = an.moreau_grad_surrogate(w, x, tp)
        assert s < 1e-4 * tp.rho_bar * np.linalg.norm(w)

    def test_zero_matrix_is_stationary(self, setup):
        _, x, tp = setup
        assert an.moreau_grad_surrogate(np.zeros((3, 6)), x, tp) == 0.0

    def test_near_beats_far(self, setup):
        rng, x, tp = setup
        w_opt = ssl.closed_form_optimum(x, 3)
        direction = rng.normal(size=w_opt.shape)
        direction /= np.linalg.norm(direction)
        near = an.moreau_grad_surrogate(w_opt + 0.05 * direction, x, tp)
        far = an.moreau_grad_surrogate(w_opt + 0.8 * direction, x, tp)
        assert near < far

    def test_envelope_below_loss(self, setup):
        rng, x, tp = setup
        w = rng.normal(size=(3, 6))
        res = an.prox_solve(w, x, tp)
        assert res.envelope <= ssl.loss(w, x) + 1e-12


def reference_prox_solve(w, xbar, tp, counts):
    """The prox loop as first written, forming y^T y twice per iterate.

    Kept as the bit-for-bit reference for ``prox_solve``, with the loss
    and gradient written out as they were then. It counts into
    ``counts`` how many steps it rejected (and halved) and at how many
    distinct iterates it evaluated the gradient, also when it raises: a
    rejected step keeps y, so the gradient after it is not a new one.
    """
    w = np.asarray(w, dtype=np.float64)
    lam1 = ssl.spectral_norm(xbar)
    step = 1.0 / (tp.rho_bar + 16.0 * max(lam1, 0.0))
    y = w.copy()
    counts.update(halvings=0, grad_evals=0)

    def inner(yv):
        r = xbar - yv.T @ yv
        diff = yv - w
        return float(np.sum(r * r)) + 0.5 * tp.rho_bar * float(np.sum(diff * diff))

    obj = inner(y)
    rejections = 0
    for _ in range(2000):
        g = 4.0 * y @ (y.T @ y - xbar) + tp.rho_bar * (y - w)
        counts["grad_evals"] += not rejections
        if step * float(np.linalg.norm(g)) < 1e-10:
            break
        y_new = y - step * g
        obj_new = inner(y_new)
        if obj_new > obj:
            rejections += 1
            if rejections >= 10:
                raise NoConvergence("prox objective increased for 10 consecutive steps")
            step *= 0.5
            counts["halvings"] += 1
            continue
        rejections = 0
        y = y_new
        obj = obj_new
    surrogate = tp.rho_bar * float(np.linalg.norm(w - y))
    return y, obj, surrogate


def assert_matches_reference(w, x, tp):
    """``prox_solve`` gives the reference's bits and calls ``sslcore.grad``
    once per iterate the reference evaluates a gradient at (the benchmark
    counts those calls). Returns the reference's halvings, or
    None when both raise."""
    counts = {}
    with mock.patch.object(ssl, "grad", wraps=ssl.grad) as grad:
        try:
            point, envelope, surrogate = reference_prox_solve(w, x, tp, counts)
        except NoConvergence:
            with pytest.raises(NoConvergence):
                an.prox_solve(w, x, tp)
            assert grad.call_count == counts["grad_evals"]
            return None
        res = an.prox_solve(w, x, tp)
    assert grad.call_count == counts["grad_evals"]
    assert res.point.tobytes() == point.tobytes()
    assert res.envelope.hex() == envelope.hex()
    assert res.surrogate.hex() == surrogate.hex()
    return counts["halvings"]


class TestProxSolveBitIdentical:
    @settings(max_examples=120, deadline=None)
    # The 16 x 64 aggregate of a full-batch run with 16 clients.
    @example(seed=7, d=64, m_frac=0.24, x_log10=0.0, w_log10=-2.0)
    # The 4 x 32 aggregate of a minibatch run with 4 clients.
    @example(seed=3, d=32, m_frac=0.1, x_log10=0.0, w_log10=-1.75)
    # A far start whose cubic term overshoots: the step is halved 16 times.
    @example(seed=55, d=12, m_frac=0.5, x_log10=0.0, w_log10=1.0)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 16),
        m_frac=st.floats(0.0, 1.0),
        x_log10=st.floats(-3.0, 1.0),
        w_log10=st.floats(-3.0, 1.0),
    )
    def test_random_psd(self, seed, d, m_frac, x_log10, w_log10):
        rng = np.random.default_rng(seed)
        m = 1 + min(d - 1, int(m_frac * d))
        x = 10.0**x_log10 * random_psd(rng, d)
        w = 10.0**w_log10 * rng.normal(size=(m, d))
        assert_matches_reference(w, x, an.TheoryParams.from_covariance(x))

    def test_step_halving_branch(self, setup):
        rng, x, tp = setup
        w = 2.0 * rng.normal(size=(3, 6))
        assert assert_matches_reference(w, x, tp) == 9

    # The cubic term of the gradient overshoots from far out: at scale 30
    # the longest run of rejected steps is 9, at scale 35 it is 10.
    def test_nine_consecutive_rejections_recover(self, setup):
        rng, x, tp = setup
        w = 30.0 * rng.normal(size=(3, 6))
        assert assert_matches_reference(w, x, tp) == 9

    def test_ten_consecutive_rejections_raise(self, setup):
        rng, x, tp = setup
        w = 35.0 * rng.normal(size=(3, 6))
        with pytest.raises(NoConvergence, match="10 consecutive"):
            an.prox_solve(w, x, tp)


class TestConvergenceBoundRhs:
    def test_vanishes_with_horizon(self):
        # with alpha_t ~ 1/sqrt(t) and G_q = 0 the bound decays ~ log T / sqrt(T)
        tp = an.TheoryParams(rho=4.0, rho_bar=8.0, G=3.0, G_q=0.0)
        short = an.convergence_bound_rhs(tp, [1 / math.sqrt(t + 1) for t in range(100)], 2, 5.0, 1.0)
        long = an.convergence_bound_rhs(tp, [1 / math.sqrt(t + 1) for t in range(100_000)], 2, 5.0, 1.0)
        assert long < 0.1 * short

    def test_linear_in_epochs(self):
        tp = an.TheoryParams(rho=4.0, rho_bar=8.0, G=3.0, G_q=0.5)
        sched = [0.1] * 20
        one = an.convergence_bound_rhs(tp, sched, 1, 5.0, 1.0)
        two = an.convergence_bound_rhs(tp, sched, 2, 5.0, 1.0)
        assert two == pytest.approx(2 * one)

    def test_preconditions(self):
        tp = an.TheoryParams(rho=4.0, rho_bar=8.0)
        with pytest.raises(InvalidParams):
            an.convergence_bound_rhs(tp, [], 1, 5.0, 1.0)
        with pytest.raises(InvalidParams):
            an.convergence_bound_rhs(tp, [0.1], 1, 0.5, 1.0)


class TestWeightedRunningAverage:
    def test_constant_weights_is_mean(self):
        vals = [4.0, 2.0, 0.0]
        got = an.weighted_running_average(vals, [1.0, 1.0, 1.0])
        np.testing.assert_allclose(got, [4.0, 3.0, 2.0])

    def test_weighting(self):
        got = an.weighted_running_average([1.0, 5.0], [3.0, 1.0])
        np.testing.assert_allclose(got, [1.0, 2.0])


class TestGqEstimate:
    def test_zero_errors_give_zero(self):
        assert an.gq_estimate([0.0] * 10, [0.1] * 10) == 0.0

    def test_positive_for_lossy(self):
        rng = np.random.default_rng(3)
        errs = rng.uniform(0.01, 0.02, size=100)
        gq = an.gq_estimate(errs, [0.1] * 100)
        assert gq > 0.0
        # the estimate must actually cover >= 99% of steps
        assert np.mean(errs <= 0.1 * gq**2) >= 0.99

    def test_covers_requant_family_too(self):
        gq = an.gq_estimate([0.01] * 50, [0.1] * 50, [0.09] * 50, [0.1] * 50)
        assert 0.1 * gq**2 >= 0.09

    def test_rate_monotonicity_on_probe(self):
        cfg = an.ProbeConfig(client=cl.ClientConfig(grad_extra_bits=0, local_epochs=4))
        g5 = an.probe_run(5, cfg)
        g6 = an.probe_run(6, cfg)
        n5, n6 = len(g5), len(g6)
        q5 = an.gq_estimate(g5.weight_error_sq, [cfg.lr] * n5)
        q6 = an.gq_estimate(g6.weight_error_sq, [cfg.lr] * n6)
        assert q6 <= q5


class TestProbes:
    def test_rate_sweep_window(self):
        rows = an.rate_sweep_probe([3, 4, 5, 6, 7])
        grad_slope = an.rate_slope(rows, "mean_grad_error_sq")
        assert -2.6 <= grad_slope <= -1.3, rows
        # weight re-quantization error also shrinks with rate
        weights = [r["mean_weight_error_sq"] for r in rows]
        assert weights[-1] < weights[0]

    def test_high_rate_limit(self):
        cfg = an.ProbeConfig(client=cl.ClientConfig(grad_extra_bits=0, local_epochs=4))
        stats = an.probe_run(16, cfg)
        g_scale = np.mean(stats.grad_norm_sq)
        assert np.mean(stats.grad_error_sq) < 1e-6 * g_scale
        assert np.mean(stats.weight_error_sq) < 1e-6 * g_scale

    def test_alpha_sweep_window(self):
        rows = an.alpha_sweep_probe([0.1, 0.05, 0.025, 0.0125], 5)
        slope = an.loglog_slope(
            [r["alpha"] for r in rows], [r["mean_weight_error_sq"] for r in rows]
        )
        assert 0.5 <= slope <= 1.5, rows

    def test_needs_three_rates(self):
        with pytest.raises(InvalidParams):
            an.rate_sweep_probe([3, 4])

    def test_probe_rows_emit_csv_and_text(self, tmp_path):
        rows = [
            {"rate": 3, "mean_grad_error_sq": 0.25},
            {"rate": 4, "mean_grad_error_sq": 0.0625},
        ]
        path = tmp_path / "probe.csv"
        an.write_probe_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "rate,mean_grad_error_sq"
        assert lines[1] == "3,0.25"


class TestRepresentabilityBound:
    def test_unperturbed_diagonal(self):
        x = np.diag([4.0, 2.0, 1.0])
        w = ssl.closed_form_optimum(x, 3)
        b = an.representability_lower_bound(x, w, np.zeros_like(w), 1)
        assert b == pytest.approx(2.0 / 4.0)
        assert b <= 1.0

    def test_bound_below_measured_full_span(self):
        rng = np.random.default_rng(60)
        x = random_psd(rng, 8)
        w = ssl.closed_form_optimum(x, 8)
        for _ in range(50):
            eps = rng.normal(size=w.shape)
            eps *= 0.02 * np.linalg.norm(w) / np.linalg.norm(eps)
            r = ssl.representability(w + eps)
            for j in range(3):
                b = an.representability_lower_bound(x, w, eps, j)
                assert b <= r[j] + 1e-9

    def test_vanishing_perturbation_limit(self):
        rng = np.random.default_rng(61)
        x = random_psd(rng, 5)
        w = ssl.closed_form_optimum(x, 5)
        lam1 = ssl.sym_eig(x).eigenvalues[0]
        target = x[2, 2] / lam1
        eps = rng.normal(size=w.shape)
        gaps = []
        for scale in (1e-1, 1e-3, 1e-6):
            e = eps * (scale / np.linalg.norm(eps))
            gaps.append(abs(an.representability_lower_bound(x, w, e, 2) - target))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-5

    def test_invalid_coordinate(self):
        x = np.eye(3)
        w = np.eye(3)
        with pytest.raises(InvalidCoordinate):
            an.representability_lower_bound(x, w, np.zeros((3, 3)), 3)


class TestReprReport:
    def test_single_client_local_equals_global(self):
        params = dg.DataGenParams(n=1, d=8, frequent_count=200, seed=70)
        shards = [dg.generate_shard(params, 1)]
        recs = an.local_vs_global_representability_report(shards, 1, 0.0)
        local = [r for r in recs if r.scope == "client 1"]
        glob = [r for r in recs if r.scope == "global"]
        assert local[0].measured == pytest.approx(glob[0].measured)
        assert local[0].bound == pytest.approx(glob[0].bound)

    def test_support_coords_well_represented(self):
        params = dg.DataGenParams(n=2, d=32, frequent_count=1000, seed=71)
        shards = dg.generate_all_shards(params)
        recs = an.local_vs_global_representability_report(shards, 2, 0.0)
        assert all(r.measured > 0.5 for r in recs)
        assert all(0.0 <= r.measured <= 1.0 + 1e-10 for r in recs)

    def test_report_formats(self):
        params = dg.DataGenParams(n=1, d=8, frequent_count=100, seed=72)
        recs = an.local_vs_global_representability_report(
            [dg.generate_shard(params, 1)], 1, 0.1
        )
        text = an.format_repr_report(recs)
        assert "measured" in text and "global" in text


TP = an.TheoryParams(rho=4.0, rho_bar=8.0)


@pytest.mark.parametrize("call, message", [
    (lambda _: an.TheoryParams.from_covariance(np.zeros((3, 3))), "covariance has zero spectral norm"),
    (lambda _: an.convergence_bound_rhs(TP, [0.1], 0, 5.0, 1.0), "epochs must be >= 1"),
    (lambda _: an.convergence_bound_rhs(TP, [0.1, 0.0], 1, 5.0, 1.0), "step sizes must be positive"),
    (lambda _: an.weighted_running_average([1.0, 2.0], [1.0]), "values and weights must be nonempty and aligned"),
    (lambda _: an.weighted_running_average([], []), "values and weights must be nonempty and aligned"),
    (lambda _: an.gq_estimate([0.1], [0.1, 0.1]), "error and alpha records must be nonempty and aligned"),
    (lambda _: an.gq_estimate([], []), "error and alpha records must be nonempty and aligned"),
    (lambda _: an.gq_estimate([0.1, 0.1], [0.1, -0.1]), "step sizes must be positive"),
    # Clamped, 0 would take the smallest ratio and 1.5 the largest.
    (lambda _: an.gq_estimate([0.1], [0.1], coverage=0.0), r"coverage must be in \(0, 1\], got 0.0"),
    (lambda _: an.gq_estimate([0.1], [0.1], coverage=1.5), r"coverage must be in \(0, 1\], got 1.5"),
    (lambda _: an.gq_estimate([0.1], [0.1], coverage=math.nan), r"coverage must be in \(0, 1\], got nan"),
    (lambda _: an.fit_slope([1.0], [2.0]), "need at least two points"),
    (lambda tmp_path: an.write_probe_csv([], tmp_path / "probe.csv"), "no probe rows"),
    (lambda _: an.representability_lower_bound(np.eye(3), np.ones((2, 3)), np.ones((2, 2)), 0),
     "w_opt and eps must be m x d with d matching X"),
    (lambda _: an.representability_lower_bound(np.eye(3), np.ones((2, 4)), np.ones((2, 4)), 0),
     "w_opt and eps must be m x d with d matching X"),
    (lambda _: an.local_vs_global_representability_report([], 2, 0.1), "no shards"),
], ids=["zero-covariance", "epochs-zero", "step-zero", "average-misaligned", "average-empty", "gq-misaligned",
        "gq-empty", "gq-step-negative", "gq-coverage-zero", "gq-coverage-past-one", "gq-coverage-nan", "slope-one-point", "probe-no-rows", "bound-eps-shape", "bound-d-mismatch",
        "report-no-shards"])
def test_rejects_bad_input_with_its_reason(call, message, tmp_path):
    with pytest.raises(InvalidParams, match=message):
        call(tmp_path)
