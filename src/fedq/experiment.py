"""Deterministic experiment execution and metrics persistence.

A run is bulk-synchronous: every round t (``step_round``), every client
trains its config's E local epochs on its own RNG stream at the round's
one step size alpha_t, in the cohorts ``client.start_clients`` formed,
the server de-quantizes / aggregates by the FedAvg shares it fixed at
the start / re-quantizes, and one ``MetricsRecord`` is computed on the
full-precision aggregate. The records are the run's only per-round
history: each holds its round's alpha_t and the clients' per-step error
energies next to the metrics. metrics.csv gains one row per record and
is flushed immediately, so an aborted run leaves all completed rounds
on disk. Row 0 snapshots the quantized initialization before any
training, aggregated by the same shares. The linear-only metrics
(losses, surrogate, representability) are NaN for a deep encoder.

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
from .datagen import client_rng, generate_all_shards, global_covariance
from .analysis import TheoryParams, moreau_grad_surrogate
from .errors import Diverged, NoConvergence, NonFiniteInput
from .server import ServerState, aggregate

AUTO_LR_COEFF = 0.05


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
    cols += [f"client{k}_{c}" for k in client_ids for c in ("loss", "eps_g", "eps_w", "eps_r")]
    return ",".join(cols)


def _metrics_row(rec: MetricsRecord, client_ids: list[int]) -> str:
    vals = [str(rec.round), _csv_num(rec.global_loss), _csv_num(rec.moreau)]
    vals += [_csv_num(v) for v in rec.representability]
    for k in client_ids:
        s = rec.stats[k]
        vals += map(_csv_num, (rec.local_loss[k], s.mean_grad_error(), s.mean_weight_error(), rec.eps_r[k]))
    return ",".join(vals)


def stored_models(cohorts: list[cl.Cohort]) -> dict[int, list[qk.QuantizedTensor]]:
    """Each client's stored model, in ascending client id."""
    return dict(sorted((k, m) for c in cohorts for k, m in zip(c.ids, c.models)))


def step_round(cohorts: list[cl.Cohort], server: ServerState,
               lr: float) -> tuple[dict[int, cl.QuantErrorStats], dict[int, list]]:
    """One communication round: the only definition of it.

    Each cohort trains in lockstep (``cl.run_local_epochs``): its
    config's local epochs at the round's step size ``lr``. Then the
    server de-quantizes the sent models, aggregates them by the FedAvg
    shares it holds and re-quantizes per client, and every cohort takes
    its clients' new models.
    Returns each client's error stats for the round and the models the
    clients sent. Both phases name the server's next round in Diverged;
    a client update names the lowest client id whose values were
    non-finite at the first quantization that failed.
    """
    stats = {}
    # Overflow on the way to divergence must not surface as a numpy
    # warning: the quantizer's finiteness check reports it as Diverged,
    # with its round, client and phase.
    with np.errstate(over="ignore", invalid="ignore"):
        for cohort in cohorts:
            try:
                batch = cl.run_local_epochs(cohort, lr)
            except NonFiniteInput as e:
                raise Diverged(server.round_counter + 1, cohort.ids[e.row], "client update") from e
            stats.update((k, batch[r]) for r, k in enumerate(cohort.ids))
        sent = stored_models(cohorts)
        received = server.run_round(sent)
    for cohort in cohorts:
        cohort.models = [received[k] for k in cohort.ids]
    return stats, sent


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute a full run; returns its per-round records, raw stats included.

    The config alone defines the run: shards are always generated from
    its data parameters. Artifacts written to ``cfg.output_dir``:
    config_echo.json, metrics.csv and timings.csv (each one flushed row
    per round).
    """
    shards = generate_all_shards(cfg.data)
    client_ids = [s.client_id for s in shards]
    shard_by_id = dict(zip(client_ids, shards))
    xbar = global_covariance(shards)

    # The run's one power iteration: the auto step size and the Moreau surrogate read lambda_1(Xbar).
    tp = TheoryParams.from_covariance(xbar)
    lr_base = AUTO_LR_COEFF / tp.lam1 if cfg.lr_base is None else cfg.lr_base

    # Shared full-precision init, then per-client quantization at s_k.
    init_layers = cl.init_layers(
        list(cfg.model_layers), client_rng(cfg.training_seed, 0), 0.1 / math.sqrt(cfg.data.d)
    )
    bits = dict(zip(client_ids, cfg.bitwidths))
    cohorts = cl.start_clients(cfg.client, init_layers, bits,
                               {k: client_rng(cfg.training_seed, k) for k in client_ids}, shard_by_id)
    server = ServerState(bits, dict(zip(client_ids, [s.size for s in shards])), cfg.training_seed)
    init_models = stored_models(cohorts)
    init_global = aggregate([[qk.dequantize(w) for w in m] for m in init_models.values()], server.shares)
    repr_dims = cfg.data.n if cfg.metrics.representability else 0
    # Loss / surrogate / representability are defined for the linear
    # theory path; deep encoders get NaN placeholders in those columns.
    linear = len(cfg.model_layers) == 2

    def global_metrics(t: int, global_model: list[np.ndarray]) -> tuple[float, float, list[float]]:
        if not linear:
            return math.nan, math.nan, [math.nan] * repr_dims
        w = global_model[0]
        gl = sslcore.loss(w, xbar)
        try:
            mo = moreau_grad_surrogate(w, xbar, tp) if cfg.metrics.moreau else math.nan
        except NoConvergence as e:
            raise NoConvergence(f"round {t}, moreau metric: {e}") from e
        rep = list(sslcore.representability(w)[:repr_dims]) if repr_dims else []
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
            gl, mo, rep = global_metrics(t, global_model)
            rec = MetricsRecord(
                round=t,
                alpha=alpha,
                global_loss=gl,
                local_loss={k: sslcore.loss(qk.dequantize(m[0]), shard_by_id[k].covariance())
                            for k, m in models.items()} if linear else dict.fromkeys(models, math.nan),
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
        emit(0, math.nan, init_global, init_models,
             dict.fromkeys(client_ids, cl.QuantErrorStats(np.empty((3, 0)))), dict.fromkeys(client_ids, 0.0))
        for t in range(1, cfg.rounds + 1):
            t0 = time.perf_counter()
            alpha = lr_base if cfg.lr_kind == "constant" else lr_base / math.sqrt(t)
            stats, sent = step_round(cohorts, server, alpha)
            emit(t, alpha, server.global_model, sent, stats, server.requant_error, t0)

    return ExperimentResult(records=records, xbar=xbar, init_global=init_global,
                            final_global=[layer.copy() for layer in server.global_model], output_dir=out_dir)
