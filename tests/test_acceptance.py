"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a `[acceptance] criterion N: PASS/FAIL` line (visible
with `pytest -s` or on failure). All runs are seeded, so outcomes are
reproducible. Criterion 1's statistics each state the rate at which an
unbiased quantizer fails them, and criterion 5's bound also holds at 20
shifted seed sets; the other statistical tolerances hold for the frozen
seeds.
"""

import math
import time
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest

from fedq import analysis as an
from fedq import client as cl
from fedq import datagen as dg
from fedq import quantkit as qk
from fedq import sslcore as ssl
from fedq.cli import cli_dispatch, clipped_gaussian_mse_sweep
from fedq.config import config_from_dict
from fedq.experiment import run_experiment, step_round
from fedq.server import ServerState

from oracle import (expected_sq_error, quantile_codebook, quantize_one, sgd, start_client, tanh_codebook,
                    uniform_codebook)


def check(criterion: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion} ({label}): {status} {detail}")
    assert ok, f"criterion {criterion} ({label}): {detail}"


def reference_instance_dict(out_dir: str, **over):
    raw = {
        "n_clients": 2,
        "d": 8,
        "bitwidths": [6, 6],
        "rounds": 50,
        "local_epochs": 2,
        "batch_size": 64,
        "model": {"layers": [8, 2]},
        "seeds": {"data": 42, "training": 43},
        "output_dir": out_dir,
    }
    raw.update(over)
    return raw


# Criterion 1's false-alarm rate per statistic. For an unbiased quantizer each
# z of a 1e5-draw mean is N(0, 1) to within the central limit, and the z of
# different scalars are independent, so each statistic below has a known null
# distribution and a cutoff that it exceeds with this probability. The
# criterion, five statistics, false-alarms with probability at most 0.005.
UNBIASED_FALSE_ALARM = 0.001


def unbiasedness_cutoffs(k: int) -> tuple[float, float, float]:
    """Cutoffs, each exceeded with probability ``UNBIASED_FALSE_ALARM`` by
    unbiased draws: |sqrt(n) * mean z| of any one group of n z-tests (3.29);
    sum z^2 of all k, the upper quantile of chi^2_k by Wilson-Hilferty
    (381.46 at k = 300, against the exact 381.43); and the largest |z| of the
    k, Sidak-corrected for k tests (4.65 at k = 300)."""
    a, normal = UNBIASED_FALSE_ALARM, NormalDist()
    mean_cut = normal.inv_cdf(1.0 - a / 2.0)
    chi2_cut = k * (1.0 - 2.0 / (9 * k) + normal.inv_cdf(1.0 - a) * math.sqrt(2.0 / (9 * k))) ** 3
    max_cut = normal.inv_cdf(1.0 - (1.0 - (1.0 - a) ** (1.0 / k)) / 2.0)
    return mean_cut, chi2_cut, max_cut


def test_criterion_1_quantizer_unbiasedness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(999)
    data = rng.normal(size=20_000)
    books = {
        "uniform": uniform_codebook(-3.0, 3.0, 4),
        "tanh": tanh_codebook(data, 4),
        "quantile": quantile_codebook(data, 4),
    }
    draws = 100_000
    zs = {}
    for name, cb in books.items():
        lo, hi = cb.centers[0], cb.centers[-1]
        xs = rng.uniform(lo, hi, size=100)
        zs[name] = []
        for x in xs:
            var = float(expected_sq_error(np.array([x]), cb.centers)[0])
            q = quantize_one(np.full(draws, x), cb, rng)
            mean = qk.dequantize(q).mean()
            if var == 0.0:
                assert mean == x, f"{name}: draw at a center must be exact"
                continue
            zs[name].append((mean - x) / math.sqrt(var / draws))
    z = np.concatenate([np.asarray(v) for v in zs.values()])
    mean_cut, chi2_cut, max_cut = unbiasedness_cutoffs(z.size)
    # A bias shifts every z of its codebook type the same way: each type's
    # mean signed z, in standard errors, sees it before any one z does.
    type_means = {name: math.fsum(v) / math.sqrt(len(v)) for name, v in zs.items()}
    sum_sq = float(z @ z)
    worst = float(np.max(np.abs(z)))
    elapsed = time.perf_counter() - t0
    check(
        1,
        "quantizer unbiasedness",
        all(abs(t) <= mean_cut for t in type_means.values())
        and sum_sq <= chi2_cut and worst <= max_cut and elapsed < 10.0,
        "mean z in se: " + ", ".join(f"{name} {t:+.2f}" for name, t in type_means.items())
        + f" (|.|<={mean_cut:.2f}); sum z^2={sum_sq:.1f} (<={chi2_cut:.1f}); worst |z|={worst:.2f} "
        f"(<={max_cut:.2f}); {z.size} z-tests (3 codebook types x 100 scalars x 1e5 draws), "
        f"each statistic false-alarms at {UNBIASED_FALSE_ALARM}, {elapsed:.1f}s",
    )


def test_criterion_2_rate_distortion_scaling():
    t0 = time.perf_counter()
    rates = [3, 4, 5, 6, 7]
    # the same sweep `fedq quantprobe` runs: both companders training fits
    rows = clipped_gaussian_mse_sweep(rates, 1_000_000, seed=0)
    tanh_slope = an.rate_slope(rows, "tanh_mse")
    quantile_slope = an.rate_slope(rows, "quantile_mse")
    in_training = an.rate_sweep_probe(rates)
    training_slope = an.rate_slope(in_training, "mean_grad_error_sq")
    elapsed = time.perf_counter() - t0
    ok = all(-2.6 <= s <= -1.3 for s in (tanh_slope, quantile_slope, training_slope)) and elapsed < 120
    check(
        2,
        "rate-distortion scaling",
        ok,
        f"quantprobe slopes: tanh={tanh_slope:.2f}, quantile={quantile_slope:.2f}; "
        f"in-training eps_g slope={training_slope:.2f}, {elapsed:.1f}s",
    )


def test_criterion_3_alpha_scaling_of_weight_error():
    t0 = time.perf_counter()
    alphas = [0.1, 0.05, 0.025, 0.0125]
    rows = an.alpha_sweep_probe(alphas, 5)
    slope = an.loglog_slope(
        [r["alpha"] for r in rows], [r["mean_weight_error_sq"] for r in rows]
    )
    elapsed = time.perf_counter() - t0
    check(
        3,
        "alpha scaling of eps_w",
        0.5 <= slope <= 1.5 and elapsed < 120,
        f"log-log slope={slope:.2f} at R=5 over alpha={alphas}, {elapsed:.1f}s",
    )


def test_criterion_4_epoch_scaling_of_requant_error():
    t0 = time.perf_counter()
    params = dg.DataGenParams(n=2, d=8, frequent_count=128, seed=404)
    shards = {s.client_id: s for s in dg.generate_all_shards(params)}
    init = cl.init_layers([8, 2], np.random.default_rng(7), 0.1 / math.sqrt(8))

    def mean_eps_r(epochs: int) -> float:
        rngs = {k: np.random.default_rng(np.random.SeedSequence(entropy=505, spawn_key=(epochs, k))) for k in (1, 2)}
        cohorts = cl.start_clients(cl.ClientConfig(), init, {1: 5, 2: 5}, rngs, shards)
        server = ServerState({1: 5, 2: 5}, {k: s.size for k, s in shards.items()}, seed=606)
        # matched warm start: identical E=1 rounds reach steady state, then
        # the E under test controls the drift accumulated between aggregations
        for _ in range(20):
            step_round(cohorts, server, 0.02)
        for cohort in cohorts:
            cohort.config = replace(cohort.config, local_epochs=epochs)
        logs = []
        for _ in range(8):
            step_round(cohorts, server, 0.02)
            logs.append(server.requant_error)
        return float(np.mean([np.mean(list(l.values())) for l in logs]))

    sweep = [1, 2, 4, 8]
    vals = [mean_eps_r(e) for e in sweep]
    slope = an.loglog_slope(sweep, vals)
    elapsed = time.perf_counter() - t0
    check(
        4,
        "E scaling of eps_r",
        slope <= 1.5 and elapsed < 180,
        f"log-log slope={slope:.2f} over E={sweep}, {elapsed:.1f}s",
    )


def test_criterion_5_oracle_equivalence_high_rate():
    """The R=16 client against ``oracle.sgd`` from the client's own
    dequantized start model: full batch, no augmentation, the same lr
    and number of steps, so the gap in loss is the quantization's alone."""
    t0 = time.perf_counter()
    params = dg.DataGenParams(n=1, d=8, frequent_count=512, seed=515)
    shard = dg.generate_shard(params, 1)
    x = shard.covariance()
    lr = 0.05 / ssl.spectral_norm(x)
    layers = cl.init_layers([8, 2], np.random.default_rng(9), 0.1 / math.sqrt(8))
    cfg = cl.ClientConfig(grad_extra_bits=0, aug_sigma=0.0, batch_size=None)
    cohort = start_client(cfg, 16, layers, np.random.default_rng(616), shard)
    start = qk.dequantize(cohort.models[0][0])
    for _ in range(2000):
        cl.run_local_epochs(cohort, lr)
    oracle = sgd(start, shard.samples, 2000, None, lr, 0.0, None)
    gap = ssl.loss(qk.dequantize(cohort.models[0][0]), x) - ssl.loss(oracle, x)
    elapsed = time.perf_counter() - t0
    # At R=16 the gap reads 6.9e-9 here and at most 2.2e-5 over the 20 seed
    # sets shifted by 1000 s (s = 1..20); at R=8 it reads 1.25e-4 here.
    check(
        5,
        "oracle equivalence at R=16",
        abs(gap) <= 1e-4 and elapsed < 30,
        f"|L_q - L_oracle| = {abs(gap):.2e} after 2000 steps, {elapsed:.1f}s",
    )


def test_criterion_6_convergence_surrogate(tmp_path):
    t0 = time.perf_counter()
    cfg = config_from_dict(reference_instance_dict(str(tmp_path / "ref")))
    res = run_experiment(cfg)

    surrogates = np.array([r.moreau for r in res.records])  # rounds 0..T
    rounds = res.records[1:]
    alphas = np.array([rounds[0].alpha] + [r.alpha for r in rounds])  # round 0 weighs as round 1
    avg = an.weighted_running_average(surrogates**2, alphas)
    decreasing = bool(np.all(np.diff(avg) <= 1e-12))
    ratio = avg[-1] / avg[0]

    tp = an.TheoryParams.from_covariance(res.xbar)
    # each local step's ||eps_w||^2 and each re-quantization's ||eps_r||^2, with its round's alpha_t
    g_est = math.sqrt(max(st.grad_norm_sq.max() for r in rounds for st in r.stats.values()))
    w_errs = np.concatenate([st.weight_error_sq for r in rounds for st in r.stats.values()])
    w_alphas = [r.alpha for r in rounds for st in r.stats.values() for _ in range(len(st))]
    r_errs = [r.eps_r[k] for r in rounds for k in sorted(r.eps_r)]
    r_alphas = [r.alpha for r in rounds for _ in r.eps_r]
    gq = an.gq_estimate(w_errs, w_alphas, r_errs, r_alphas)

    phi0 = an.prox_solve(res.init_global[0], res.xbar, tp).envelope
    w_star = ssl.closed_form_optimum(ssl.sym_eig(res.xbar), cfg.model_layers[-1])
    phi_min = an.prox_solve(w_star, res.xbar, tp).envelope
    rhs = an.convergence_bound_rhs(tp, list(alphas), cfg.client.local_epochs, phi0, max(phi_min, 0.0),
                                   G=g_est, G_q=gq)

    # golden trend pinned alongside: the reference run's loss drops 4x
    loss_ratio = res.records[-1].global_loss / res.records[0].global_loss

    elapsed = time.perf_counter() - t0
    ok = (
        decreasing and ratio <= 0.1 and avg[-1] <= 3.0 * rhs
        and loss_ratio < 0.25 and elapsed < 120
    )
    check(
        6,
        "Moreau surrogate convergence",
        ok,
        f"running-average ratio={ratio:.3f} (<=0.1), decreasing={decreasing}, "
        f"avg={avg[-1]:.3f} vs 3x bound={3 * rhs:.3f} (G={g_est:.2f}, G_q={gq:.3f}), "
        f"loss ratio={loss_ratio:.3f} (<0.25), {elapsed:.1f}s",
    )


def test_criterion_7_representability_bound():
    t0 = time.perf_counter()
    params = dg.DataGenParams(n=2, d=32, frequent_count=2000, seed=717)
    shards = dg.generate_all_shards(params)
    rng = np.random.default_rng(718)
    scopes = [s.covariance() for s in shards] + [dg.global_covariance(shards)]
    worst_margin = math.inf
    trials = 0
    for x in scopes:
        eig = ssl.sym_eig(x)
        w_star = ssl.closed_form_optimum(eig, 32)
        scale_base = float(np.linalg.norm(w_star))
        for eps_scale in (0.001, 0.01, 0.1):
            for _ in range(100):
                eps = rng.standard_normal(w_star.shape)
                eps *= eps_scale * scale_base / float(np.linalg.norm(eps))
                r = ssl.representability(w_star + eps)
                bounds = an.representability_lower_bounds(x, eig, w_star, eps)
                worst_margin = min(worst_margin, float(np.min(r[: params.n] - bounds[: params.n])))
                trials += params.n
    elapsed = time.perf_counter() - t0
    check(
        7,
        "representability lower bound",
        worst_margin >= -1e-9 and elapsed < 60,
        f"min(measured - bound)={worst_margin:.2e} over {trials} checks, {elapsed:.1f}s",
    )


def test_criterion_8_heterogeneous_bitwidth_sanity():
    t0 = time.perf_counter()
    params = dg.DataGenParams(n=1, d=8, frequent_count=256, seed=808)
    shard = dg.generate_shard(params, 1)
    shards = {1: shard, 2: shard}  # identical data for both clients
    init = cl.init_layers([8, 2], np.random.default_rng(13), 0.1 / math.sqrt(8))
    means = {4: [], 8: []}
    for seed in range(5):
        rngs = {k: np.random.default_rng(np.random.SeedSequence(entropy=809 + seed, spawn_key=(k,))) for k in (1, 2)}
        cohorts = cl.start_clients(cl.ClientConfig(), init, {1: 4, 2: 8}, rngs, shards)
        server = ServerState({1: 4, 2: 8}, dict.fromkeys(shards, shard.size), seed=810 + seed)
        errs = {1: [], 2: []}
        for t in range(20):
            round_stats, _ = step_round(cohorts, server, 0.02 / math.sqrt(t + 1))
            for k in (1, 2):
                errs[k].append(round_stats[k].weight_error_sq)
        means[4].append(float(np.mean(np.concatenate(errs[1]))))
        means[8].append(float(np.mean(np.concatenate(errs[2]))))
    m4 = float(np.mean(means[4]))
    m8 = float(np.mean(means[8]))
    elapsed = time.perf_counter() - t0
    check(
        8,
        "heterogeneous bitwidth sanity",
        m8 < m4 and elapsed < 120,
        f"mean eps_w: 8-bit={m8:.2e} < 4-bit={m4:.2e} (20 rounds, 5 seeds), {elapsed:.1f}s",
    )


def test_criterion_9_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    import json

    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(
        json.dumps(reference_instance_dict(str(tmp_path / "d0"), rounds=3))
    )
    outs = []
    for name in ("r1", "r2", "r3"):
        code = cli_dispatch(["run", "--config", str(cfg_path), "--out", str(tmp_path / name)])
        assert code == 0
        outs.append((tmp_path / name / "metrics.csv").read_bytes())
    elapsed = time.perf_counter() - t0
    ok = outs[0] == outs[1] == outs[2] and elapsed < 60
    check(
        9,
        "run determinism",
        ok,
        f"metrics.csv byte-identical across three reruns, {elapsed:.1f}s",
    )


def test_criterion_10_aggregation_correctness():
    t0 = time.perf_counter()
    from fedq import server as sv

    rng = np.random.default_rng(1010)
    w = rng.normal(size=(3, 5))
    models = {
        1: [quantize_one(w + 0.1, tanh_codebook(w + 0.1, 4), rng)],
        2: [quantize_one(w - 0.2, tanh_codebook(w - 0.2, 6), rng)],
        3: [quantize_one(w, tanh_codebook(w, 5), rng)],
    }
    counts = {1: 10, 2: 30, 3: 60}
    s1 = ServerState({1: 4, 2: 6, 3: 5}, counts, seed=7)
    s1.run_round(dict(sorted(models.items())))
    s2 = ServerState({1: 4, 2: 6, 3: 5}, counts, seed=7)
    s2.run_round(dict(sorted(models.items(), reverse=True)))
    perm_gap = float(np.max(np.abs(s1.global_model[0] - s2.global_model[0])))

    fixed = sv.aggregate([[w], [w], [w]], ServerState({1: 4, 2: 6, 3: 5}, {1: 10, 2: 20, 3: 30}, seed=7).shares)
    fixed_gap = float(np.max(np.abs(fixed[0] - w)))
    three_one = ServerState({1: 4, 2: 6}, {1: 3, 2: 1}, seed=7).shares
    exact = sv.aggregate([[np.array([[0.0]])], [np.array([[4.0]])]], three_one)[0][0, 0]

    elapsed = time.perf_counter() - t0
    ok = perm_gap <= 1e-12 and fixed_gap <= 1e-12 and exact == 1.0 and elapsed < 5
    check(
        10,
        "aggregation correctness",
        ok,
        f"permutation gap={perm_gap:.1e}, fixed-point gap={fixed_gap:.1e}, "
        f"(3,1)-weighted mean of (0,4)={exact}, {elapsed:.1f}s",
    )
