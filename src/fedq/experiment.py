"""Deterministic experiment execution and metrics persistence.

A run is bulk-synchronous: every round t (``step_round``), each client in
ascending id order trains E local epochs on its own RNG stream at the
round's one step size alpha_t (recorded in ``round_alphas``), the
server de-quantizes / aggregates / re-quantizes, and one metrics record
is computed on the full-precision aggregate. metrics.csv gains one row per
round and is flushed immediately, so an aborted run leaves all
completed rounds on disk. Row 0 snapshots the quantized
initialization before any training.

Timing is written to a separate timings.csv: metrics.csv must be
byte-identical across reruns, which wall-clock numbers would break.
"""

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import client as cl
from . import quantkit as qk
from . import sslcore
from .config import ExperimentConfig
from .datagen import DataShard, client_rng, generate_all_shards, global_covariance, read_dataset
from .analysis import TheoryParams, moreau_grad_surrogate
from .errors import Diverged, NonFiniteInput, ValidationError
from .server import ServerState, aggregate

AUTO_LR_COEFF = 0.05


@dataclass
class MetricsRecord:
    """One round's metrics; round 0 is the initialization snapshot."""

    round: int
    global_loss: float
    local_loss: dict[int, float]
    eps_g_mean: dict[int, float]
    eps_w_mean: dict[int, float]
    eps_r: dict[int, float]
    moreau: float
    representability: list[float]
    wall_ms: float


@dataclass
class ExperimentResult:
    """Everything a diagnostic needs after a run."""

    records: list[MetricsRecord]
    client_stats: dict[int, cl.QuantErrorStats]
    steps_per_round: dict[int, list[int]]
    round_alphas: list[float]
    xbar: np.ndarray
    init_global: list[np.ndarray]
    final_global: list[np.ndarray]
    output_dir: Path


def _csv_num(x: float) -> str:
    return f"{x:.17g}"


def _metrics_header(client_ids: list[int], repr_dims: int) -> str:
    cols = ["round", "global_loss", "moreau"]
    cols += [f"repr_{i + 1}" for i in range(repr_dims)]
    for k in client_ids:
        cols += [
            f"client{k}_loss",
            f"client{k}_eps_g",
            f"client{k}_eps_w",
            f"client{k}_eps_r",
        ]
    return ",".join(cols)


def _metrics_row(rec: MetricsRecord, client_ids: list[int]) -> str:
    vals = [str(rec.round), _csv_num(rec.global_loss), _csv_num(rec.moreau)]
    vals += [_csv_num(v) for v in rec.representability]
    for k in client_ids:
        vals += [
            _csv_num(rec.local_loss[k]),
            _csv_num(rec.eps_g_mean[k]),
            _csv_num(rec.eps_w_mean[k]),
            _csv_num(rec.eps_r[k]),
        ]
    return ",".join(vals)


def resolve_lr_base(cfg: ExperimentConfig, xbar: np.ndarray) -> float:
    """Configured base rate, or 0.05 / lambda_max(Xbar) when auto."""
    if cfg.lr_base is not None:
        return cfg.lr_base
    lam = sslcore.spectral_norm(xbar)
    if lam <= 0.0:
        raise ValidationError("cannot auto-scale lr: global covariance is zero")
    return AUTO_LR_COEFF / lam


def step_round(
    states: dict[int, cl.ClientState],
    server: ServerState,
    shards_by_id: dict[int, DataShard],
    epochs: int,
    batch_size: int | None,
    lr: float,
) -> tuple[dict[int, cl.QuantErrorStats], dict[int, list]]:
    """One communication round: the only definition of it.

    Each client trains ``epochs`` local epochs at the round's step size
    ``lr`` in ascending id order, then the server de-quantizes,
    aggregates by shard size and re-quantizes per client, and every
    client takes its new model.
    Returns each client's error stats for the round and the models the
    clients sent. Both phases name the server's next round in Diverged.
    """
    ids = sorted(states)
    stats = {}
    # Overflow on the way to divergence must not surface as a numpy
    # warning: the quantizer's finiteness check reports it as Diverged,
    # with its round, client and phase.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in ids:
            try:
                stats[k] = cl.run_local_epochs(states[k], shards_by_id[k], epochs, batch_size, lr)
            except NonFiniteInput as e:
                raise Diverged(server.round_counter + 1, k, "client update") from e
        sent = {k: states[k].model for k in ids}
        received = server.run_round(sent, {k: shards_by_id[k].size for k in ids})
    for k in ids:
        states[k].model = received[k]
    return stats, sent


def run_experiment(cfg: ExperimentConfig, data_dir: str | Path | None = None) -> ExperimentResult:
    """Execute a full run; returns records plus probe-grade raw stats.

    Shards are read from ``data_dir`` when given, otherwise generated
    from the config. Artifacts written to ``cfg.output_dir``:
    config_echo.json, metrics.csv and timings.csv (each one flushed row
    per round).
    """
    if data_dir is not None:
        params, shards = read_dataset(data_dir)
        if params.n != cfg.n_clients or params.d != cfg.data.d:
            raise ValidationError("dataset on disk does not match config (n_clients/d differ)")
    else:
        shards = generate_all_shards(cfg.data)
    client_ids = sorted(s.client_id for s in shards)
    if client_ids != list(range(1, cfg.n_clients + 1)):
        raise ValidationError("expected shards for clients 1..n")

    shard_by_id = {s.client_id: s for s in shards}
    xbar = global_covariance(shards)

    lr_base = resolve_lr_base(cfg, xbar)
    tp = TheoryParams.from_covariance(xbar) if cfg.metrics.moreau else None

    # Shared full-precision init, then per-client quantization at s_k.
    init_layers = cl.init_layers(
        list(cfg.model_layers), client_rng(cfg.training_seed, 0), 0.1 / math.sqrt(cfg.data.d)
    )
    states = {
        k: cl.start_client(
            cl.ClientConfig(bitwidth=bits, grad_extra_bits=cfg.grad_extra_bits, activation=cfg.activation,
                            aug_sigma=cfg.aug_sigma, quantize_activations=cfg.quantize_activations),
            init_layers,
            client_rng(cfg.training_seed, k),
        )
        for k, bits in zip(client_ids, cfg.bitwidths)
    }
    server = ServerState(dict(zip(client_ids, cfg.bitwidths)), seed=cfg.training_seed)
    init_global = aggregate([states[k].layer_values() for k in client_ids],
                            [shard_by_id[k].size for k in client_ids])
    repr_dims = cfg.n_clients if cfg.metrics.representability else 0

    def global_metrics(global_model: list[np.ndarray]) -> tuple[float, float, list[float]]:
        # Loss / surrogate / representability are defined for the linear
        # theory path; deep encoders get NaN placeholders in those columns.
        if len(global_model) != 1:
            return math.nan, math.nan, [math.nan] * repr_dims
        w = global_model[0]
        gl = sslcore.loss(w, xbar)
        mo = moreau_grad_surrogate(w, xbar, tp) if tp is not None else math.nan
        rep = (
            list(sslcore.representability(w)[: cfg.n_clients])
            if cfg.metrics.representability
            else []
        )
        return gl, mo, rep

    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    echo = cfg.to_json_dict()
    echo["lr"]["base"] = lr_base
    (out_dir / "config_echo.json").write_text(json.dumps(echo, indent=2) + "\n")

    records: list[MetricsRecord] = []
    client_stats = {k: cl.QuantErrorStats() for k in client_ids}
    steps_per_round = {k: [] for k in client_ids}
    round_alphas: list[float] = []

    with (
        open(out_dir / "metrics.csv", "w", newline="\n") as mfile,
        open(out_dir / "timings.csv", "w", newline="\n") as tfile,
    ):
        mfile.write(_metrics_header(client_ids, repr_dims) + "\n")
        mfile.flush()
        tfile.write("round,wall_ms\n")
        tfile.flush()

        def emit(t, global_model, models, stats, eps_r, t0=None):
            gl, mo, rep = global_metrics(global_model)
            rec = MetricsRecord(
                round=t,
                global_loss=gl,
                local_loss={
                    k: sslcore.loss(qk.dequantize(m[0]), shard_by_id[k].covariance())
                    if len(m) == 1 else math.nan
                    for k, m in models.items()
                },
                eps_g_mean={k: st.mean_grad_error() for k, st in stats.items()},
                eps_w_mean={k: st.mean_weight_error() for k, st in stats.items()},
                eps_r=eps_r,
                moreau=mo,
                representability=rep,
                wall_ms=0.0 if t0 is None else (time.perf_counter() - t0) * 1e3,
            )
            records.append(rec)
            mfile.write(_metrics_row(rec, client_ids) + "\n")
            mfile.flush()
            if t > 0:
                tfile.write(f"{t},{rec.wall_ms:.3f}\n")
                tfile.flush()

        # Row 0: the quantized init, before any training.
        emit(0, init_global, {k: states[k].model for k in client_ids},
             {k: cl.QuantErrorStats() for k in client_ids}, dict.fromkeys(client_ids, 0.0))
        for t in range(1, cfg.rounds + 1):
            t0 = time.perf_counter()
            alpha = lr_base if cfg.lr_kind == "constant" else lr_base / math.sqrt(t)
            round_alphas.append(alpha)
            round_stats, sent = step_round(
                states, server, shard_by_id, cfg.local_epochs, cfg.batch_size, alpha
            )
            for k in client_ids:
                client_stats[k].extend(round_stats[k])
                steps_per_round[k].append(len(round_stats[k]))
            emit(t, server.global_model, sent, round_stats, dict(server.requant_error_log[-1]), t0)

    return ExperimentResult(
        records=records,
        client_stats=client_stats,
        steps_per_round=steps_per_round,
        round_alphas=round_alphas,
        xbar=xbar,
        init_global=init_global,
        final_global=[layer.copy() for layer in server.global_model],
        output_dir=out_dir,
    )
