"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a `[acceptance] criterion N: PASS/FAIL` line (visible
with `pytest -s` or on failure). All runs are seeded, so outcomes are
reproducible; statistical tolerances (3-sigma tests) hold for the
frozen seeds.
"""

import math
import time

import numpy as np
import pytest

from fedq import analysis as an
from fedq import client as cl
from fedq import datagen as dg
from fedq import quantkit as qk
from fedq import sslcore as ssl
from fedq import _kernels as kernels
from fedq.cli import cli_dispatch, clipped_gaussian_mse_sweep
from fedq.config import config_from_dict
from fedq.experiment import run_experiment, step_round
from fedq.server import ServerState


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
        "model": {"m": 2},
        "seeds": {"data": 42, "training": 43},
        "output_dir": out_dir,
    }
    raw.update(over)
    return raw


def test_criterion_1_quantizer_unbiasedness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(999)
    data = rng.normal(size=20_000)
    books = {
        "uniform": qk.build_uniform_codebook(-3.0, 3.0, 4),
        "tanh": qk.build_tanh_codebook(data, 4),
        "quantile": qk.build_quantile_codebook(data, 4),
    }
    draws = 100_000
    worst = 0.0
    for name, cb in books.items():
        lo, hi = cb.centers[0], cb.centers[-1]
        xs = rng.uniform(lo, hi, size=100)
        for x in xs:
            var = float(kernels.expected_sq_error(np.array([x]), cb.centers)[0])
            q = qk.stochastic_quantize(np.full(draws, x), cb, rng)
            mean = qk.dequantize(q).mean()
            if var == 0.0:
                assert mean == x, f"{name}: draw at a center must be exact"
                continue
            z = abs(mean - x) / math.sqrt(var / draws)
            worst = max(worst, z)
    elapsed = time.perf_counter() - t0
    check(
        1,
        "quantizer unbiasedness",
        worst <= 3.0 and elapsed < 10.0,
        f"worst z={worst:.2f} (3 codebook types x 100 scalars x 1e5 draws), {elapsed:.1f}s",
    )


def test_criterion_2_rate_distortion_scaling():
    t0 = time.perf_counter()
    rates = [3, 4, 5, 6, 7]
    # the same sweep `fedq quantprobe` runs
    rows = clipped_gaussian_mse_sweep(rates, 1_000_000, seed=0, draws=4)
    probe_slope = an.rate_slope(rows, "mse")
    in_training = an.rate_sweep_probe(rates)
    training_slope = an.rate_slope(in_training, "mean_grad_error_sq")
    elapsed = time.perf_counter() - t0
    ok = (-2.6 <= probe_slope <= -1.3) and (-2.6 <= training_slope <= -1.3) and elapsed < 120
    check(
        2,
        "rate-distortion scaling",
        ok,
        f"quantprobe slope={probe_slope:.2f}, in-training eps_g slope={training_slope:.2f}, {elapsed:.1f}s",
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
        states = {
            k: cl.start_client(
                cl.ClientConfig(bitwidth=5), init,
                np.random.default_rng(np.random.SeedSequence(entropy=505, spawn_key=(epochs, k))),
            )
            for k in (1, 2)
        }
        server = ServerState({1: 5, 2: 5}, seed=606)
        # matched warm start: identical E=1 rounds reach steady state, then
        # the E under test controls the drift accumulated between aggregations
        for _ in range(20):
            step_round(states, server, shards, 1, 64, 0.02)
        n0 = len(server.requant_error_log)
        for _ in range(8):
            step_round(states, server, shards, epochs, 64, 0.02)
        logs = server.requant_error_log[n0:]
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
    t0 = time.perf_counter()
    params = dg.DataGenParams(n=1, d=8, frequent_count=512, seed=515)
    shard = dg.generate_shard(params, 1)
    x = shard.covariance()
    floor = ssl.optimal_loss(x, 2)
    lr = 0.05 / ssl.spectral_norm(x)
    layers = cl.init_layers([8, 2], np.random.default_rng(9), 0.1 / math.sqrt(8))
    cfg = cl.ClientConfig(bitwidth=16, grad_extra_bits=0, aug_sigma=0.0)
    state = cl.start_client(cfg, layers, np.random.default_rng(616))
    for _ in range(2000):
        cl.run_local_epochs(state, shard, 1, None, lr)
    gap = ssl.loss(state.layer_values()[0], x) - floor
    elapsed = time.perf_counter() - t0
    check(
        5,
        "oracle equivalence at R=16",
        abs(gap) <= 1e-3 and elapsed < 30,
        f"|loss - EckartYoung| = {abs(gap):.2e} after 2000 steps, {elapsed:.1f}s",
    )


def test_criterion_6_convergence_surrogate(tmp_path):
    t0 = time.perf_counter()
    cfg = config_from_dict(reference_instance_dict(str(tmp_path / "ref")))
    res = run_experiment(cfg)

    surrogates = np.array([r.moreau for r in res.records])  # rounds 0..T
    alphas = np.array([res.round_alphas[0]] + res.round_alphas)
    avg = an.weighted_running_average(surrogates**2, alphas)
    decreasing = bool(np.all(np.diff(avg) <= 1e-12))
    ratio = avg[-1] / avg[0]

    tp = an.TheoryParams.from_covariance(res.xbar)
    g_est = max(res.client_stats[k].max_grad_norm() for k in res.client_stats)
    w_alphas, w_errs = [], []
    for k, stats in res.client_stats.items():
        steps = res.steps_per_round[k]
        for n_steps, a in zip(steps, res.round_alphas):
            w_alphas.extend([a] * n_steps)
        w_errs.extend(stats.weight_error_sq)
    r_errs = [r.eps_r[k] for r in res.records[1:] for k in sorted(r.eps_r)]
    r_alphas = [a for a in res.round_alphas for _ in range(cfg.n_clients)]
    gq = an.gq_estimate(w_errs, w_alphas, r_errs, r_alphas)
    tp.G = g_est
    tp.G_q = gq

    phi0 = an.prox_solve(res.init_global[0], res.xbar, tp).envelope
    w_star = ssl.closed_form_optimum(res.xbar, cfg.m)
    phi_min = an.prox_solve(w_star, res.xbar, tp).envelope
    rhs = an.convergence_bound_rhs(tp, list(alphas), cfg.local_epochs, phi0, max(phi_min, 0.0))

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
        w_star = ssl.closed_form_optimum(x, 32)
        scale_base = float(np.linalg.norm(w_star))
        for eps_scale in (0.001, 0.01, 0.1):
            for _ in range(100):
                eps = rng.standard_normal(w_star.shape)
                eps *= eps_scale * scale_base / float(np.linalg.norm(eps))
                r = ssl.representability(w_star + eps)
                for j in range(params.n):
                    bound = an.representability_lower_bound(x, w_star, eps, j)
                    worst_margin = min(worst_margin, r[j] - bound)
                    trials += 1
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
        states = {
            k: cl.start_client(
                cl.ClientConfig(bitwidth=bits), init,
                np.random.default_rng(np.random.SeedSequence(entropy=809 + seed, spawn_key=(k,))),
            )
            for k, bits in ((1, 4), (2, 8))
        }
        server = ServerState({1: 4, 2: 8}, seed=810 + seed)
        stats = {1: cl.QuantErrorStats(), 2: cl.QuantErrorStats()}
        for t in range(20):
            round_stats, _ = step_round(states, server, shards, 1, 64, 0.02 / math.sqrt(t + 1))
            for k in (1, 2):
                stats[k].extend(round_stats[k])
        means[4].append(stats[1].mean_weight_error())
        means[8].append(stats[2].mean_weight_error())
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
        1: [qk.stochastic_quantize(w + 0.1, qk.build_tanh_codebook(w + 0.1, 4), rng)],
        2: [qk.stochastic_quantize(w - 0.2, qk.build_tanh_codebook(w - 0.2, 6), rng)],
        3: [qk.stochastic_quantize(w, qk.build_tanh_codebook(w, 5), rng)],
    }
    counts = {1: 10, 2: 30, 3: 60}
    s1 = ServerState({1: 4, 2: 6, 3: 5}, seed=7)
    s1.run_round(dict(sorted(models.items())), counts)
    s2 = ServerState({1: 4, 2: 6, 3: 5}, seed=7)
    s2.run_round(dict(sorted(models.items(), reverse=True)), counts)
    perm_gap = float(np.max(np.abs(s1.global_model[0] - s2.global_model[0])))

    fixed = sv.aggregate([[w], [w], [w]], [10, 20, 30])
    fixed_gap = float(np.max(np.abs(fixed[0] - w)))
    exact = sv.aggregate([[np.array([[0.0]])], [np.array([[4.0]])]], [3, 1])[0][0, 0]

    elapsed = time.perf_counter() - t0
    ok = perm_gap <= 1e-12 and fixed_gap <= 1e-12 and exact == 1.0 and elapsed < 5
    check(
        10,
        "aggregation correctness",
        ok,
        f"permutation gap={perm_gap:.1e}, fixed-point gap={fixed_gap:.1e}, "
        f"(3,1)-weighted mean of (0,4)={exact}, {elapsed:.1f}s",
    )
