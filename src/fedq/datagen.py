"""Synthetic heterogeneous client datasets and covariance statistics.

Each of n clients owns a shard skewed toward two dominant classes:
client k's frequent samples are built around +/- e_k with tau-scaled
random interference on the other support coordinates and isotropic
Gaussian noise, while a much smaller number of samples from the other
clients' odd classes leak in. The scales are tied to the ambient
dimension, tau = d^(1/5) and mu = d^(-1/5), so interference grows and
noise shrinks with d.

Shard generation is deterministic per (params, client, seed): each
client draws from its own RNG stream derived from the base seed, so
shards can be generated in parallel in any order. ``write_dataset``
exports them for outside tools; nothing in fedq reads them back.
"""

import json
import math
import struct
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, EmptyInput, InvalidParams, _is_int, _is_real, _must

_MAGIC = b"FQDS"
_VERSION = 1
_HEADER = struct.Struct("<4sIIQQ")


@dataclass(frozen=True)
class DataGenParams:
    """Knobs of the synthetic-data construction.

    ``infrequent_count``, ``tau`` and ``mu`` are derived from ``d`` and
    ``infrequent_exponent``; note tau * mu == 1 by construction. Each
    field's type and range are checked here, and only here: counts and
    the seed are ints and not bools, the exponent a finite real.
    """

    n: int = 4
    d: int = 32
    frequent_count: int = 2000
    infrequent_exponent: float = 0.3
    seed: int = 0

    def __post_init__(self):
        _must(_is_int(self.n) and self.n >= 1, "n", "an integer >= 1")
        _must(_is_int(self.d) and self.d >= 1, "d", "an integer >= 1")
        _must(self.n <= self.d, "n", f"at most d = {self.d}")
        _must(_is_int(self.frequent_count) and self.frequent_count >= 1, "frequent_count", "an integer >= 1")
        _must(_is_real(self.infrequent_exponent) and 0.0 < self.infrequent_exponent < 1.0,
              "infrequent_exponent", "in (0, 1)")
        # np.random.SeedSequence takes only non-negative entropy.
        _must(_is_int(self.seed) and self.seed >= 0, "seed", "an integer >= 0")
        _must(self.n * self.infrequent_count <= self.frequent_count, "frequent_count",
              f"at least the n * ceil(d^infrequent_exponent) = {self.n * self.infrequent_count} infrequent samples")

    @property
    def infrequent_count(self) -> int:
        return math.ceil(self.d**self.infrequent_exponent)

    @property
    def tau(self) -> float:
        return self.d ** (1.0 / 5.0)

    @property
    def mu(self) -> float:
        return self.d ** (-1.0 / 5.0)


@dataclass
class DataShard:
    """One client's sample matrix with class labels.

    Labels are class ids in [1, 2n]; SSL training ignores them but they
    support class-count audits and downstream tasks. The empirical
    covariance is cached on first use.
    """

    client_id: int
    samples: np.ndarray
    labels: np.ndarray
    covariance_cache: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.samples.ndim != 2:
            raise InvalidParams("samples must be a 2-D matrix")
        if self.samples.shape[0] != self.labels.shape[0]:
            raise InvalidParams("labels length must equal sample count")

    @property
    def size(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    def covariance(self) -> np.ndarray:
        if self.covariance_cache is None:
            self.covariance_cache = empirical_covariance(self)
        return self.covariance_cache


def client_rng(seed: int, client_id: int) -> np.random.Generator:
    """Per-client stream; independent of generation order across clients."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(client_id,)))


def generate_shard(params: DataGenParams, k: int, noise: bool = True) -> DataShard:
    """Build client k's dataset (k is 1-based).

    frequent_count samples each of classes 2k-1 and 2k, plus
    infrequent_count samples of class 2i-1 for every other client i
    (none of class 2i), drawn from ``client_rng(params.seed, k)`` class
    by class into one preallocated sample matrix. ``noise=False``
    disables the mu-scaled Gaussian term, exposing the bare class
    construction for tests.
    """
    if not 1 <= k <= params.n:
        raise InvalidParams(f"client index {k} outside [1, {params.n}]")
    rng = client_rng(params.seed, k)
    mu = params.mu if noise else 0.0
    classes = [2 * k - 1, 2 * k] + [2 * i - 1 for i in range(1, params.n + 1) if i != k]
    counts = [params.frequent_count] * 2 + [params.infrequent_count] * (params.n - 1)
    samples = np.zeros((sum(counts), params.d))
    for x, c in zip(np.split(samples, np.cumsum(counts)[:-1]), classes):
        i = (c + 1) // 2  # class 2i-1 sits at +e_i, class 2i at -e_i
        x[:, i - 1] = 1.0 if c % 2 else -1.0
        if i == k and params.n > 1:  # tau-scaled interference on the other support coordinates
            q = rng.integers(0, 2, size=(len(x), params.n)).astype(np.float64)
            q[:, k - 1] = 0.0
            q *= params.tau
            x[:, :params.n] -= q
        z = rng.standard_normal(x.shape)
        z *= mu  # the rounding of x += mu * z
        x += z
        del z  # before the next class draws its own
    return DataShard(k, samples, np.repeat(np.array(classes, dtype=np.uint32), counts))


def generate_all_shards(params: DataGenParams) -> list[DataShard]:
    return [generate_shard(params, k) for k in range(1, params.n + 1)]


def empirical_covariance(shard: DataShard) -> np.ndarray:
    """Second-moment matrix (1/|D_k|) * sum_i x_i x_i^T (uncentered)."""
    if shard.size == 0:
        raise EmptyInput("shard has no samples")
    x = shard.samples
    cov = x.T @ x / x.shape[0]
    return 0.5 * (cov + cov.T)


def global_covariance(shards: list[DataShard]) -> np.ndarray:
    """Sample-count-weighted mean of per-shard covariances.

    Equals the pooled covariance of the concatenated samples.
    """
    if not shards:
        raise EmptyInput("no shards")
    d = shards[0].dim
    total = sum(s.size for s in shards)
    out = np.zeros((d, d))
    for s in shards:
        if s.dim != d:
            raise DimensionMismatch(f"shard {s.client_id} has d={s.dim}, expected {d}")
        out += (s.size / total) * s.covariance()
    return out


def write_shard(path: Path | str, shard: DataShard) -> None:
    """Binary shard file: FQDS header, row-major float64 samples, u32 labels."""
    path = Path(path)
    with open(path, "wb") as f:
        rows, d = shard.samples.shape
        f.write(_HEADER.pack(_MAGIC, _VERSION, shard.client_id, rows, d))
        f.write(np.ascontiguousarray(shard.samples, dtype="<f8").tobytes())
        f.write(np.ascontiguousarray(shard.labels, dtype="<u4").tobytes())


def write_dataset(out_dir: Path | str, params: DataGenParams) -> list[Path]:
    """Write one file per client plus a params sidecar; returns the paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for shard in generate_all_shards(params):
        p = out_dir / f"client_{shard.client_id:03d}.fqds"
        write_shard(p, shard)
        paths.append(p)
    meta = asdict(params)
    meta["infrequent_count"] = params.infrequent_count
    meta["tau"] = params.tau
    meta["mu"] = params.mu
    (out_dir / "datagen.json").write_text(json.dumps(meta, indent=2) + "\n")
    return paths
