"""Deterministic experiment execution and metrics persistence.

A run is bulk-synchronous: every round, each client in ascending id
order trains E local epochs on its own RNG stream, the server
de-quantizes / aggregates / re-quantizes, and one metrics record is
computed on the full-precision aggregate. metrics.csv gains one row per
round and is flushed immediately, so an aborted run leaves all
completed rounds on disk. Row 0 snapshots the quantized
initialization before any training.

Timing is written to a separate timings.csv: metrics.csv must be
byte-identical across reruns, which wall-clock numbers would break.
"""

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import client as cl
from . import sslcore
from .config import ExperimentConfig
from .datagen import DataShard, generate_all_shards, global_covariance, read_dataset
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
    moreau: float = math.nan
    representability: list[float] = field(default_factory=list)
    wall_ms: float = 0.0


@dataclass
class ExperimentResult:
    """Everything a diagnostic needs after a run."""

    config: ExperimentConfig
    records: list[MetricsRecord]
    client_stats: dict[int, cl.QuantErrorStats]
    steps_per_round: dict[int, list[int]]
    round_alphas: list[float]
    lr_base: float
    xbar: np.ndarray
    client_covariances: dict[int, np.ndarray]
    init_global: list[np.ndarray]
    final_global: list[np.ndarray]
    output_dir: Path | None

    def global_weight_matrix(self, model: list[np.ndarray] | None = None) -> np.ndarray:
        """Single-layer view of a global model (the linear theory path)."""
        layers = self.final_global if model is None else model
        if len(layers) != 1:
            raise ValidationError("global weight matrix is defined for 1-layer models")
        return layers[0]


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


def _metrics_row(rec: MetricsRecord, client_ids: list[int], repr_dims: int) -> str:
    vals = [str(rec.round), _csv_num(rec.global_loss), _csv_num(rec.moreau)]
    reps = list(rec.representability) + [math.nan] * repr_dims
    vals += [_csv_num(v) for v in reps[:repr_dims]]
    for k in client_ids:
        vals += [
            _csv_num(rec.local_loss.get(k, math.nan)),
            _csv_num(rec.eps_g_mean.get(k, math.nan)),
            _csv_num(rec.eps_w_mean.get(k, math.nan)),
            _csv_num(rec.eps_r.get(k, math.nan)),
        ]
    return ",".join(vals)


def _client_stream(training_seed: int, client_id: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=training_seed, spawn_key=(client_id,))
    )


def resolve_lr_base(cfg: ExperimentConfig, xbar: np.ndarray) -> float:
    """Configured base rate, or 0.05 / lambda_max(Xbar) when auto."""
    if cfg.lr_base is not None:
        return cfg.lr_base
    lam = sslcore.spectral_norm(xbar)
    if lam <= 0.0:
        raise ValidationError("cannot auto-scale lr: global covariance is zero")
    return AUTO_LR_COEFF / lam


def run_experiment(
    cfg: ExperimentConfig,
    shards: list[DataShard] | None = None,
    data_dir: str | Path | None = None,
    write_artifacts: bool = True,
) -> ExperimentResult:
    """Execute a full run; returns records plus probe-grade raw stats.

    Shards come from ``shards``/``data_dir`` when given, otherwise they
    are generated from the config. Artifacts written to the output
    directory: config_echo.json, metrics.csv (one flushed row per
    round), timings.csv.
    """
    if shards is None:
        if data_dir is not None:
            params, shards = read_dataset(data_dir)
            if params.n != cfg.n_clients or params.d != cfg.data.d:
                raise ValidationError(
                    "dataset on disk does not match config (n_clients/d differ)"
                )
        else:
            shards = generate_all_shards(cfg.data)
    client_ids = sorted(s.client_id for s in shards)
    if client_ids != list(range(1, cfg.n_clients + 1)):
        raise ValidationError("expected shards for clients 1..n")

    covs = {s.client_id: s.covariance() for s in shards}
    xbar = global_covariance(shards)

    lr_base = resolve_lr_base(cfg, xbar)
    schedule = cfg.lr_schedule(lr_base)
    tp = TheoryParams.from_covariance(xbar) if cfg.metrics.moreau else None

    # Shared full-precision init, then per-client quantization at s_k.
    init_rng = np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.training_seed, spawn_key=(0,))
    )
    init_layers = cl.init_layers(list(cfg.model_layers), init_rng, 0.1 / math.sqrt(cfg.data.d))

    states: dict[int, cl.ClientState] = {}
    for k, bits in zip(client_ids, cfg.bitwidths):
        rng = _client_stream(cfg.training_seed, k)
        ccfg = cl.ClientConfig(
            bitwidth=bits,
            grad_extra_bits=cfg.grad_extra_bits,
            activation=cfg.activation,
            aug_sigma=cfg.aug_sigma,
            quantize_activations=cfg.quantize_activations,
        )
        states[k] = cl.ClientState(
            client_id=k,
            config=ccfg,
            model=cl.quantize_model(init_layers, bits, rng),
            lr_schedule=schedule,
            rng=rng,
        )

    server = ServerState(
        client_bitwidths=dict(zip(client_ids, cfg.bitwidths)),
        seed=cfg.training_seed,
    )
    shard_by_id = {s.client_id: s for s in shards}
    counts = {k: shard_by_id[k].size for k in client_ids}

    def model_values(k: int) -> list[np.ndarray]:
        return states[k].layer_values()

    def linear_loss(layers: list[np.ndarray], cov: np.ndarray) -> float:
        if len(layers) != 1:
            return math.nan
        return sslcore.loss(layers[0], cov)

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

    init_global = aggregate(
        [model_values(k) for k in client_ids], [counts[k] for k in client_ids]
    )

    out_dir = None
    metrics_path = None
    mfile = None
    timings: list[tuple[int, float]] = []
    repr_dims = cfg.n_clients if cfg.metrics.representability else 0
    if write_artifacts:
        out_dir = Path(cfg.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        echo = cfg.to_json_dict()
        echo["lr"]["base"] = lr_base
        (out_dir / "config_echo.json").write_text(json.dumps(echo, indent=2) + "\n")
        metrics_path = out_dir / "metrics.csv"
        mfile = open(metrics_path, "w", newline="\n")
        mfile.write(_metrics_header(client_ids, repr_dims) + "\n")
        mfile.flush()

    records: list[MetricsRecord] = []
    client_stats = {k: cl.QuantErrorStats() for k in client_ids}
    steps_per_round = {k: [] for k in client_ids}
    round_alphas: list[float] = []

    def emit(rec: MetricsRecord):
        records.append(rec)
        if mfile is not None:
            mfile.write(_metrics_row(rec, client_ids, repr_dims) + "\n")
            mfile.flush()

    try:
        gl, mo, rep = global_metrics(init_global)
        emit(
            MetricsRecord(
                round=0,
                global_loss=gl,
                local_loss={
                    k: linear_loss(model_values(k), covs[k]) for k in client_ids
                },
                eps_g_mean={k: 0.0 for k in client_ids},
                eps_w_mean={k: 0.0 for k in client_ids},
                eps_r={k: 0.0 for k in client_ids},
                moreau=mo,
                representability=rep,
            )
        )

        for t in range(1, cfg.rounds + 1):
            t0 = time.perf_counter()
            round_alphas.append(schedule.rate(t - 1))
            round_stats = {}
            for k in client_ids:
                try:
                    round_stats[k] = cl.run_local_epochs(
                        states[k], shard_by_id[k], cfg.local_epochs, cfg.batch_size
                    )
                except NonFiniteInput as e:
                    raise Diverged(t, k, "client update") from e

            local_loss = {
                k: linear_loss(model_values(k), covs[k]) for k in client_ids
            }
            new_models = server.run_round({k: states[k].model for k in client_ids}, counts)
            for k in client_ids:
                states[k].model = new_models[k]
                client_stats[k].extend(round_stats[k])
                steps_per_round[k].append(len(round_stats[k]))

            gl, mo, rep = global_metrics(server.global_model)
            rec = MetricsRecord(
                round=t,
                global_loss=gl,
                local_loss=local_loss,
                eps_g_mean={k: round_stats[k].mean_grad_error() for k in client_ids},
                eps_w_mean={k: round_stats[k].mean_weight_error() for k in client_ids},
                eps_r=dict(server.requant_error_log[-1]),
                moreau=mo,
                representability=rep,
                wall_ms=(time.perf_counter() - t0) * 1e3,
            )
            timings.append((t, rec.wall_ms))
            emit(rec)
    finally:
        if mfile is not None:
            mfile.close()

    if out_dir is not None:
        with open(out_dir / "timings.csv", "w", newline="\n") as f:
            f.write("round,wall_ms\n")
            for t, ms in timings:
                f.write(f"{t},{ms:.3f}\n")

    return ExperimentResult(
        config=cfg,
        records=records,
        client_stats=client_stats,
        steps_per_round=steps_per_round,
        round_alphas=round_alphas,
        lr_base=lr_base,
        xbar=xbar,
        client_covariances=covs,
        init_global=init_global,
        final_global=[layer.copy() for layer in server.global_model],
        output_dir=out_dir,
    )
