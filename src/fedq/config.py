"""Experiment configuration: JSON schema, defaults, validation.

The config file is flat JSON with a few nested sections; unknown keys
are rejected so typos fail loudly. FEDQ_SEED in the environment
overrides both seeds (smoke-test hook).
"""

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

from .client import ACTIVATIONS
from .datagen import DataGenParams
from .errors import InvalidParams, ParseError, ValidationError
from .quantkit import MAX_RATE

_TOP_KEYS = {
    "n_clients", "d", "bitwidths", "rounds", "grad_extra_bits", "local_epochs",
    "batch_size", "aug_sigma", "quantize_activations", "lr", "model", "data",
    "seeds", "metrics", "output_dir",
}
_LR_KEYS = {"kind", "base"}
_MODEL_KEYS = {"layers", "activation", "m"}
_DATA_KEYS = {"frequent_count", "infrequent_exponent"}
_SEED_KEYS = {"data", "training"}
_METRIC_KEYS = {"moreau", "representability"}


@dataclass(frozen=True)
class MetricFlags:
    moreau: bool
    representability: bool


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully-resolved run description, built only by ``config_from_dict``.

    ``lr_base`` None means auto: 0.05 / lambda_max of the global
    covariance estimate, resolved once the shards exist.
    """

    n_clients: int
    bitwidths: tuple[int, ...]
    rounds: int
    data: DataGenParams
    grad_extra_bits: int
    local_epochs: int
    batch_size: int | None
    aug_sigma: float
    quantize_activations: bool
    lr_kind: str
    lr_base: float | None
    model_layers: tuple[int, ...]
    activation: str
    m: int
    data_seed: int
    training_seed: int
    metrics: MetricFlags
    output_dir: str

    def to_json_dict(self) -> dict:
        return {
            "n_clients": self.n_clients,
            "d": self.data.d,
            "bitwidths": list(self.bitwidths),
            "rounds": self.rounds,
            "grad_extra_bits": self.grad_extra_bits,
            "local_epochs": self.local_epochs,
            "batch_size": self.batch_size,
            "aug_sigma": self.aug_sigma,
            "quantize_activations": self.quantize_activations,
            "lr": {"kind": self.lr_kind, "base": self.lr_base},
            "model": {
                "layers": list(self.model_layers),
                "activation": self.activation,
                "m": self.m,
            },
            "data": {
                "frequent_count": self.data.frequent_count,
                "infrequent_exponent": self.data.infrequent_exponent,
            },
            "seeds": {"data": self.data_seed, "training": self.training_seed},
            "metrics": {
                "moreau": self.metrics.moreau,
                "representability": self.metrics.representability,
            },
            "output_dir": self.output_dir,
        }


def _reject_unknown(section: dict, allowed: set, where: str):
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ValidationError(f"unknown key(s) {unknown} in {where}")


def _is_int(x) -> bool:
    # bool is an int subclass; JSON true/false must not pass integer checks
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    # JSON true/false and Infinity/NaN must not pass as numbers either
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _require(cond: bool, invariant: str):
    if not cond:
        raise ValidationError(invariant)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a parsed config dict and fill defaults."""
    if not isinstance(raw, dict):
        raise ValidationError("config root must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "config root")
    for key in ("n_clients", "d", "bitwidths", "rounds"):
        _require(key in raw, f"missing required key '{key}'")

    n = raw["n_clients"]
    d = raw["d"]
    bitwidths = raw["bitwidths"]
    rounds = raw["rounds"]
    _require(_is_int(n) and n >= 1, "n_clients must be an integer >= 1")
    _require(_is_int(d) and d >= 1, "d must be an integer >= 1")
    _require(n <= d, "n_clients must not exceed d")
    _require(_is_int(rounds) and rounds >= 1, "rounds (T) must be an integer >= 1")
    _require(isinstance(bitwidths, list) and len(bitwidths) == n,
             "bitwidths length must equal n_clients")
    _require(all(_is_int(b) and b >= 1 for b in bitwidths),
             "every bitwidth s_k must be an integer >= 1")

    grad_extra = raw.get("grad_extra_bits", 2)
    _require(_is_int(grad_extra) and grad_extra >= 0, "grad_extra_bits must be >= 0")
    # Gradients use rate s_k + grad_extra_bits; each rate r allocates 2^r centers.
    _require(max(bitwidths) + grad_extra <= MAX_RATE,
             f"max(bitwidths) + grad_extra_bits must be <= {MAX_RATE}, "
             f"got {max(bitwidths)} + {grad_extra}")
    epochs = raw.get("local_epochs", 1)
    _require(_is_int(epochs) and epochs >= 1, "local_epochs (E) must be an integer >= 1")
    batch = raw.get("batch_size", 64)
    _require(batch is None or (_is_int(batch) and batch >= 1),
             "batch_size must be null (full batch) or an integer >= 1")
    aug_sigma = raw.get("aug_sigma", 0.1)
    _require(_is_real(aug_sigma) and aug_sigma >= 0, "aug_sigma must be a real number >= 0")
    qact = raw.get("quantize_activations", False)
    _require(isinstance(qact, bool), "quantize_activations must be boolean")

    lr = dict(raw.get("lr", {}))
    _reject_unknown(lr, _LR_KEYS, "lr")
    lr_kind = lr.get("kind", "inverse_sqrt")
    _require(lr_kind in ("constant", "inverse_sqrt"), "lr.kind must be constant or inverse_sqrt")
    lr_base = lr.get("base")
    _require(lr_base is None or (_is_real(lr_base) and lr_base > 0),
             "lr.base must be a positive real number or null for auto")

    model = dict(raw.get("model", {}))
    _reject_unknown(model, _MODEL_KEYS, "model")
    m = model.get("m", n)
    _require(_is_int(m) and 1 <= m <= d, "model.m must be an integer in [1, d]")
    layers = model.get("layers")
    if layers is None:
        layers = [d, m]
    _require(isinstance(layers, list) and len(layers) >= 2, "model.layers must list >= 2 widths")
    _require(all(_is_int(x) and x >= 1 for x in layers), "model widths must be >= 1")
    _require(layers[0] == d, "model.layers must start at the data dimension d")
    _require(layers[-1] == m, "model.layers must end at the representation dim m")
    activation = model.get("activation", "identity")
    _require(activation in ACTIVATIONS, f"model.activation must be {' or '.join(ACTIVATIONS)}")

    data = dict(raw.get("data", {}))
    _reject_unknown(data, _DATA_KEYS, "data")
    frequent_count = data.get("frequent_count", 2000)
    _require(_is_int(frequent_count), "data.frequent_count must be an integer")
    infrequent_exponent = data.get("infrequent_exponent", 0.3)
    _require(_is_real(infrequent_exponent), "data.infrequent_exponent must be a real number")
    seeds = dict(raw.get("seeds", {}))
    _reject_unknown(seeds, _SEED_KEYS, "seeds")
    data_seed = seeds.get("data", 0)
    train_seed = seeds.get("training", 1)
    # np.random.SeedSequence takes only non-negative entropy.
    _require(_is_int(data_seed) and data_seed >= 0, "seeds.data must be an integer >= 0")
    _require(_is_int(train_seed) and train_seed >= 0, "seeds.training must be an integer >= 0")
    env_seed = os.environ.get("FEDQ_SEED")
    if env_seed is not None:
        bad_env = f"FEDQ_SEED must be an integer >= 0, got {env_seed!r}"
        try:
            data_seed = train_seed = int(env_seed)
        except ValueError as e:
            raise ValidationError(bad_env) from e
        _require(data_seed >= 0, bad_env)

    metrics = dict(raw.get("metrics", {}))
    _reject_unknown(metrics, _METRIC_KEYS, "metrics")
    moreau = metrics.get("moreau", True)
    _require(isinstance(moreau, bool), "metrics.moreau must be boolean")
    representability = metrics.get("representability", True)
    _require(isinstance(representability, bool), "metrics.representability must be boolean")
    flags = MetricFlags(moreau=moreau, representability=representability)

    try:
        gen = DataGenParams(
            n=n,
            d=d,
            frequent_count=frequent_count,
            infrequent_exponent=infrequent_exponent,
            seed=data_seed,
        )
    except InvalidParams as e:
        raise ValidationError(f"data section invalid: {e}") from e
    output_dir = raw.get("output_dir", "runs/out")
    _require(isinstance(output_dir, str), "output_dir must be a string")

    return ExperimentConfig(
        n_clients=n,
        bitwidths=tuple(bitwidths),
        rounds=rounds,
        data=gen,
        grad_extra_bits=grad_extra,
        local_epochs=epochs,
        batch_size=batch,
        aug_sigma=float(aug_sigma),
        quantize_activations=qact,
        lr_kind=lr_kind,
        lr_base=None if lr_base is None else float(lr_base),
        model_layers=tuple(layers),
        activation=activation,
        m=m,
        data_seed=data_seed,
        training_seed=train_seed,
        metrics=flags,
        output_dir=output_dir,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a JSON config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise ParseError(f"cannot read config {path}: {e}") from e
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    return config_from_dict(raw)
