"""Deterministic experiment execution and metrics persistence.

A run is bulk-synchronous: every round t (``step_round``), every client
trains E local epochs on its own RNG stream at the round's one step
size alpha_t, clients with equal shard sizes in lockstep, the server
de-quantizes / aggregates / re-quantizes, and one ``MetricsRecord`` is
computed on the full-precision aggregate. The records are the run's
only per-round history: each holds its round's alpha_t and the
clients' per-step error energies next to the metrics. metrics.csv
gains one row per record and is flushed immediately, so an aborted run
leaves all completed rounds on disk. Row 0 snapshots the quantized
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

# A lockstep group's widest activation batch (clients x minibatch rows x
# widest layer) holds at most this many elements, or the group is one
# client. Every temporary of a step grows with the group, while the
# per-call overhead that batching saves shrinks as tensors grow. At seed 0
# (tools/step_memory.py, the most one call adds to traced memory) relu-actq
# in cohorts of 4 x 64 x 64 adds 671 KiB in quantized_forward and 1005 KiB
# in quantized_backward, against 349 and 586 KiB in cohorts of 2, and its
# peak RSS is 0.6-0.7 MiB higher. linear-fullbatch-16c in cohorts of
# 4 x 188 x 64 would add 689 against 251 KiB in quantized_backward and
# 0.9 MiB of peak RSS. Any cap in [16384, 24063] gives cohorts of 4 on
# relu-actq and linear-minibatch (4 x 64 x 32) and leaves 188 x 64 alone.
LOCKSTEP_ELEMENTS = 16384


@dataclass
class MetricsRecord:
    """One round: its step size, its clients' error energies and its metrics.

    ``alpha`` is the step size alpha_t that every local step of the
    round took. ``stats[k]`` holds client k's ||eps_g||^2, ||eps_w||^2
    and ||g||^2 of each of those steps, and ``eps_r[k]`` its ||eps_r||^2
    of the server's re-quantization. Round 0 is the initialization
    snapshot: no step, so ``alpha`` is NaN and every ``stats[k]`` empty.
    """

    round: int
    alpha: float
    global_loss: float
    local_loss: dict[int, float]
    stats: dict[int, cl.QuantErrorStats]
    eps_r: dict[int, float]
    moreau: float
    representability: list[float]
    wall_ms: float


@dataclass
class ExperimentResult:
    """Everything a diagnostic needs after a run."""

    records: list[MetricsRecord]
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
            _csv_num(rec.stats[k].mean_grad_error()),
            _csv_num(rec.stats[k].mean_weight_error()),
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

    Clients whose shards hold the same number of rows train in lockstep,
    in batches (``cl.run_local_epochs``) sized by LOCKSTEP_ELEMENTS:
    ``epochs`` local epochs at the round's step size ``lr``. Then the
    server de-quantizes, aggregates by shard size and re-quantizes per
    client, and every client takes its new model.
    Returns each client's error stats for the round and the models the
    clients sent. Both phases name the server's next round in Diverged;
    a client update names the lowest client id whose values were
    non-finite at the first quantization that failed.
    """
    ids = sorted(states)
    by_size: dict[int, list[int]] = {}
    for k in ids:
        by_size.setdefault(shards_by_id[k].size, []).append(k)
    groups = []
    for rows, same in by_size.items():
        widest = max(shards_by_id[same[0]].dim, *(w.shape[0] for w in states[same[0]].model))
        n = max(1, LOCKSTEP_ELEMENTS // (min(batch_size or rows, rows) * widest))
        groups += [same[i:i + n] for i in range(0, len(same), n)]
    stats = {}
    # Overflow on the way to divergence must not surface as a numpy
    # warning: the quantizer's finiteness check reports it as Diverged,
    # with its round, client and phase.
    with np.errstate(over="ignore", invalid="ignore"):
        for group in groups:
            try:
                batch = cl.run_local_epochs([states[k] for k in group], [shards_by_id[k] for k in group],
                                            epochs, batch_size, lr)
            except NonFiniteInput as e:
                raise Diverged(server.round_counter + 1, group[e.row], "client update") from e
            stats.update((k, batch[r]) for r, k in enumerate(group))
        sent = {k: states[k].model for k in ids}
        received = server.run_round(sent, {k: shards_by_id[k].size for k in ids})
    for k in ids:
        states[k].model = received[k]
    return stats, sent


def run_experiment(cfg: ExperimentConfig, data_dir: str | Path | None = None) -> ExperimentResult:
    """Execute a full run; returns its per-round records, raw stats included.

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
    configs = [cl.ClientConfig(bitwidth=bits, grad_extra_bits=cfg.grad_extra_bits, activation=cfg.activation,
                               aug_sigma=cfg.aug_sigma, quantize_activations=cfg.quantize_activations)
               for bits in cfg.bitwidths]
    rngs = [client_rng(cfg.training_seed, k) for k in client_ids]
    states = dict(zip(client_ids, cl.start_clients(configs, init_layers, rngs)))
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

    with (
        open(out_dir / "metrics.csv", "w", newline="\n") as mfile,
        open(out_dir / "timings.csv", "w", newline="\n") as tfile,
    ):
        mfile.write(_metrics_header(client_ids, repr_dims) + "\n")
        mfile.flush()
        tfile.write("round,wall_ms\n")
        tfile.flush()

        def emit(t, alpha, global_model, models, stats, eps_r, t0=None):
            gl, mo, rep = global_metrics(global_model)
            rec = MetricsRecord(
                round=t,
                alpha=alpha,
                global_loss=gl,
                local_loss={
                    k: sslcore.loss(qk.dequantize(m[0]), shard_by_id[k].covariance())
                    if len(m) == 1 else math.nan
                    for k, m in models.items()
                },
                stats=stats,
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
        emit(0, math.nan, init_global, {k: states[k].model for k in client_ids},
             dict.fromkeys(client_ids, cl.QuantErrorStats(*np.empty((3, 0)))), dict.fromkeys(client_ids, 0.0))
        for t in range(1, cfg.rounds + 1):
            t0 = time.perf_counter()
            alpha = lr_base if cfg.lr_kind == "constant" else lr_base / math.sqrt(t)
            stats, sent = step_round(states, server, shard_by_id, cfg.local_epochs, cfg.batch_size, alpha)
            emit(t, alpha, server.global_model, sent, stats, server.requant_error, t0)

    return ExperimentResult(
        records=records,
        xbar=xbar,
        init_global=init_global,
        final_global=[layer.copy() for layer in server.global_model],
        output_dir=out_dir,
    )
