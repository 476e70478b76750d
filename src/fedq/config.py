"""Experiment configuration: JSON schema, defaults, validation.

The config file is flat JSON with a few nested sections, each a JSON
object; unknown keys are rejected so typos fail loudly. Each setting is
checked once, by the type that holds it: ``DataGenParams`` and
``ClientConfig`` check their own fields, and their defaults fill the
keys a config leaves out; ``config_from_dict`` checks the JSON shape
and the settings no such type holds, and names the JSON key of any
value a type rejects.
"""

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .client import ClientConfig
from .datagen import DataGenParams
from .errors import InvalidParams, ParseError, ValidationError, _is_int, _is_real
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
    moreau: bool = True
    representability: bool = True


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully-resolved run description, built only by ``config_from_dict``.

    ``lr_base`` None means auto: 0.05 / lambda_max of the global
    covariance estimate, resolved once the shards exist. ``client``
    holds the training settings that every client shares, the local
    epochs and batch size included; clients differ only in
    ``bitwidths`` and their shards. Each fact has one field: the client
    count is ``data.n``, the representation width ``model_layers[-1]``
    and the data seed ``data.seed``.
    """

    bitwidths: tuple[int, ...]
    rounds: int
    data: DataGenParams
    client: ClientConfig
    lr_kind: str
    lr_base: float | None
    model_layers: tuple[int, ...]
    training_seed: int
    metrics: MetricFlags
    output_dir: str

    def to_json_dict(self) -> dict:
        return {
            "n_clients": self.data.n,
            "d": self.data.d,
            "bitwidths": list(self.bitwidths),
            "rounds": self.rounds,
            "grad_extra_bits": self.client.grad_extra_bits,
            "local_epochs": self.client.local_epochs,
            "batch_size": self.client.batch_size,
            "aug_sigma": self.client.aug_sigma,
            "quantize_activations": self.client.quantize_activations,
            "lr": {"kind": self.lr_kind, "base": self.lr_base},
            "model": {"layers": list(self.model_layers), "activation": self.client.activation,
                      "m": self.model_layers[-1]},
            "data": {
                "frequent_count": self.data.frequent_count,
                "infrequent_exponent": self.data.infrequent_exponent,
            },
            "seeds": {"data": self.data.seed, "training": self.training_seed},
            "metrics": asdict(self.metrics),
            "output_dir": self.output_dir,
        }


def _object(section, allowed: set, where: str) -> dict:
    """``section`` itself, once it is a JSON object with only ``allowed`` keys."""
    _require(isinstance(section, dict), f"{where} must be a JSON object")
    unknown = sorted(set(section) - allowed)
    _require(not unknown, f"unknown key(s) {unknown} in {where}")
    return section


def _require(cond: bool, invariant: str):
    if not cond:
        raise ValidationError(invariant)


def _built(cls, keys: dict, **values):
    """``cls(**values)``; a value the type rejects is re-raised as a
    ValidationError that names its JSON key, ``keys[field]`` or the field."""
    try:
        return cls(**values)
    except InvalidParams as e:
        field, _, rule = str(e).partition(" ")
        raise ValidationError(f"{keys.get(field, field)} {rule}") from e


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a parsed config dict and fill defaults."""
    _object(raw, _TOP_KEYS, "config root")
    for key in ("n_clients", "d", "bitwidths", "rounds"):
        _require(key in raw, f"missing required key '{key}'")
    lr = _object(raw.get("lr", {}), _LR_KEYS, "lr")
    model = _object(raw.get("model", {}), _MODEL_KEYS, "model")
    data = _object(raw.get("data", {}), _DATA_KEYS, "data")
    seeds = _object(raw.get("seeds", {}), _SEED_KEYS, "seeds")
    flags = MetricFlags(**_object(raw.get("metrics", {}), _METRIC_KEYS, "metrics"))

    gen = _built(DataGenParams, {"n": "n_clients", "seed": "seeds.data", "frequent_count": "data.frequent_count",
                                 "infrequent_exponent": "data.infrequent_exponent"},
                 n=raw["n_clients"], d=raw["d"], seed=seeds.get("data", DataGenParams.seed), **data)
    client = _built(ClientConfig, {"activation": "model.activation"},
                    activation=model.get("activation", ClientConfig.activation),
                    **{f.name: raw[f.name] for f in fields(ClientConfig) if f.name in raw})
    n, d = gen.n, gen.d

    bitwidths = raw["bitwidths"]
    rounds = raw["rounds"]
    _require(_is_int(rounds) and rounds >= 1, "rounds (T) must be an integer >= 1")
    _require(isinstance(bitwidths, list) and len(bitwidths) == n, "bitwidths length must equal n_clients")
    _require(all(_is_int(b) and b >= 1 for b in bitwidths), "every bitwidth s_k must be an integer >= 1")
    grad_extra = client.grad_extra_bits
    # Gradients use rate s_k + grad_extra_bits; each rate r allocates 2^r centers.
    _require(max(bitwidths) + grad_extra <= MAX_RATE,
             f"max(bitwidths) + grad_extra_bits must be <= {MAX_RATE}, "
             f"got {max(bitwidths)} + {grad_extra}")

    lr_kind = lr.get("kind", "inverse_sqrt")
    _require(lr_kind in ("constant", "inverse_sqrt"), "lr.kind must be constant or inverse_sqrt")
    lr_base = lr.get("base")
    _require(lr_base is None or (_is_real(lr_base) and lr_base > 0),
             "lr.base must be a positive real number or null for auto")

    layers = model.get("layers")
    if layers is None:
        layers = [d, model.get("m", n)]
    _require(isinstance(layers, list) and len(layers) >= 2, "model.layers must list >= 2 widths")
    _require(all(_is_int(x) and x >= 1 for x in layers), "model widths must be >= 1")
    _require(layers[0] == d, "model.layers must start at the data dimension d")
    m = model.get("m", layers[-1])  # without layers or m, the width is n_clients
    _require(_is_int(m) and 1 <= m <= d, "model.m must be an integer in [1, d]")
    _require(layers[-1] == m, "model.layers must end at the representation dim m")

    train_seed = seeds.get("training", 1)
    # np.random.SeedSequence takes only non-negative entropy.
    _require(_is_int(train_seed) and train_seed >= 0, "seeds.training must be an integer >= 0")
    for key, on in asdict(flags).items():
        _require(isinstance(on, bool), f"metrics.{key} must be boolean")
    output_dir = raw.get("output_dir", "runs/out")
    _require(isinstance(output_dir, str), "output_dir must be a string")

    return ExperimentConfig(
        bitwidths=tuple(bitwidths),
        rounds=rounds,
        data=gen,
        client=client,
        lr_kind=lr_kind,
        lr_base=None if lr_base is None else float(lr_base),
        model_layers=tuple(layers),
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
