"""Fixed-rate codebooks and stochastic (de)quantization.

All quantizers in the simulator are scalar, fixed-rate companding
quantizers: a rate-R codebook holds K = 2^R real centers, values are
rounded stochastically to one of the two bracketing centers so the
quantization noise has zero mean inside the codebook range, and
dequantization is an exact table lookup.

Three builders cover the schemes used in training:

- uniform centers over an explicit range (identity compander),
- tanh-companded centers fitted to a tensor (used for weights and
  activations),
- empirical-quantile centers fitted to a tensor (used for gradients).

Codebooks are immutable and shareable; quantization is pure given the
caller's RNG stream, consuming one uniform per element in row-major
order.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DegenerateRange, InvalidParams, NonFiniteInput

# Ranges narrower than this collapse to a degenerate single-value codebook.
RANGE_EPS = 1e-12

# Largest codebook rate: 2^24 float64 centers (128 MiB), uint32 indices.
MAX_RATE = 24


@dataclass(frozen=True)
class Codebook:
    """Sorted quantization centers plus the compander that produced them.

    ``centers`` has length 2^rate and is strictly increasing, except for
    the degenerate fallback built from (near-)constant input where every
    center holds the same value and quantization maps everything to
    index 0. ``source_range`` records the span of the data the codebook
    was built from; centers always lie inside it. The builders below
    establish these facts, so construction only freezes ``centers``.
    """

    rate: int
    centers: np.ndarray
    compander: str
    source_range: tuple[float, float]

    def __post_init__(self):
        self.centers.setflags(write=False)

    @property
    def size(self) -> int:
        return self.centers.shape[0]

    @property
    def is_degenerate(self) -> bool:
        return bool(self.centers[-1] - self.centers[0] < RANGE_EPS)


@dataclass
class QuantizedTensor:
    """Low-bitwidth tensor: a flat index array plus its codebook.

    ``indices`` is row-major over ``shape`` and stored in the smallest
    unsigned dtype that fits the codebook, so a rate-R tensor really is
    an R-bit-per-entry representation (modulo byte alignment).
    ``stochastic_quantize`` builds it with in-range indices.
    """

    shape: tuple[int, ...]
    indices: np.ndarray
    codebook: Codebook


def _index_dtype(k: int):
    if k <= (1 << 8):
        return np.uint8
    if k <= (1 << 16):
        return np.uint16
    return np.uint32


def _codebook_size(rate: int) -> int:
    """K = 2^rate, after checking 1 <= rate <= MAX_RATE."""
    if not 1 <= rate <= MAX_RATE:
        raise InvalidParams(f"rate must be in [1, {MAX_RATE}], got {rate}")
    return 1 << int(rate)


def _value_range(values: np.ndarray) -> tuple[float, float]:
    """(min, max) of a nonempty tensor whose entries are all finite.

    min and max propagate NaN and +-inf, so finite extrema prove every
    entry finite without a separate isfinite pass.
    """
    if values.size == 0:
        raise InvalidParams("cannot build a codebook from an empty tensor")
    lo = float(values.min())
    hi = float(values.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NonFiniteInput("codebook input contains non-finite values")
    return lo, hi


def _repair_strictly_increasing(centers: np.ndarray) -> np.ndarray:
    """Nudge duplicate centers up by one ulp-scale per position in the run.

    Enforces out[i] = max(centers[i], out[i-1] + scale) via a cumulative
    maximum on the ramp-shifted sequence (the loop-free form of that
    recurrence).
    """
    if (centers[1:] > centers[:-1]).all():
        return centers
    scale = float(np.spacing(max(abs(centers[0]), abs(centers[-1]), 1.0)))
    ramp = scale * np.arange(centers.shape[0])
    return np.maximum.accumulate(centers - ramp) + ramp


def degenerate_codebook(value: float, rate: int, compander: str = "identity") -> Codebook:
    """Fallback codebook for constant input: K copies of one center.

    Strict-increase is waived; stochastic_quantize maps every element to
    index 0. Constant layers occur at initialization, so builders fitted
    to data fall back to this instead of failing.
    """
    centers = np.full(_codebook_size(rate), float(value))
    return Codebook(rate, centers, compander, (float(value), float(value)))


def build_uniform_codebook(lo: float, hi: float, rate: int) -> Codebook:
    """K = 2^rate equispaced centers over [lo, hi], endpoints included.

    Raises DegenerateRange when the requested range is narrower than
    RANGE_EPS; an explicit range that narrow is a caller error.
    """
    lo = float(lo)
    hi = float(hi)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise InvalidParams("range endpoints must be finite")
    if hi - lo < RANGE_EPS:
        raise DegenerateRange(f"range [{lo}, {hi}] narrower than {RANGE_EPS}")
    centers = np.linspace(lo, hi, _codebook_size(rate))
    return Codebook(int(rate), centers, "identity", (lo, hi))


def build_tanh_codebook(values: np.ndarray, rate: int) -> Codebook:
    """Companding codebook: uniform levels in tanh space, mapped back.

    The tensor is transformed by tanh, a uniform grid is laid over the
    transformed range, and the grid is pulled back through arctanh, so
    center spacing widens with |x|. The range endpoints are pinned to
    the exact extrema of ``values`` so the largest-magnitude entries stay
    exactly representable. Near-constant input falls back to the
    degenerate single-value codebook.
    """
    k = _codebook_size(rate)
    lo, hi = _value_range(np.asarray(values, dtype=np.float64))
    if hi - lo < RANGE_EPS:
        return degenerate_codebook(0.5 * (lo + hi), int(rate), "tanh")
    # np.linspace(t0, t1, k) spelled out: same operations, same bits.
    t0 = float(np.tanh(lo))
    t1 = float(np.tanh(hi))
    t = np.arange(k, dtype=np.float64)
    t *= (t1 - t0) / (k - 1)
    t += t0
    t[-1] = t1
    if -1.0 < t0 and t1 < 1.0:
        centers = np.arctanh(t)
    else:
        # tanh saturates to +-1 beyond |x| ~ 19; arctanh(+-1) = +-inf.
        with np.errstate(divide="ignore", over="ignore"):
            centers = np.arctanh(t)
    centers[0] = lo
    centers[-1] = hi
    # Scalar first: on a tie (+-0) the center is kept, as np.clip does.
    np.maximum(lo, centers, out=centers)
    np.minimum(hi, centers, out=centers)
    centers = _repair_strictly_increasing(centers)
    return Codebook(int(rate), centers, "tanh", (lo, hi))


def build_quantile_codebook(values: np.ndarray, rate: int) -> Codebook:
    """Centers at the empirical quantiles p_i = (i + 0.5)/K of ``values``.

    Quantiles use linear interpolation between order statistics. Heavy
    ties produce duplicate centers, repaired by ulp-scale nudges to
    restore strict increase; constant input falls back to the degenerate
    codebook (an all-zero gradient tensor is the common case).
    """
    k = _codebook_size(rate)
    values = np.asarray(values, dtype=np.float64)
    lo, hi = _value_range(values)
    if hi - lo < RANGE_EPS:
        return degenerate_codebook(0.5 * (lo + hi), int(rate), "quantile")
    order_stats = np.sort(values.ravel())
    n = order_stats.size
    pos = (np.arange(k, dtype=np.float64) + 0.5) / k * (n - 1)
    centers = np.interp(pos, np.arange(n, dtype=np.float64), order_stats)
    centers = _repair_strictly_increasing(centers)
    # The nudge can push the top center a few ulps past max(values).
    hi = max(hi, float(centers[-1]))
    return Codebook(int(rate), centers, "quantile", (lo, hi))


def _draw_indices(values: np.ndarray, cb: Codebook, rng: np.random.Generator) -> np.ndarray:
    flat = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if cb.is_degenerate:
        return np.zeros(flat.shape[0], dtype=np.int64)
    uniforms = rng.random(flat.shape[0])
    return _kernels.stochastic_round(flat, cb.centers, uniforms)


def stochastic_quantize(x: np.ndarray, cb: Codebook, rng: np.random.Generator) -> QuantizedTensor:
    """Quantize a tensor with randomized rounding to bracketing centers.

    Elements at or beyond the end centers clamp deterministically; for
    interior x with c_j <= x <= c_{j+1} the result is c_{j+1} with
    probability (x - c_j)/(c_{j+1} - c_j) and c_j otherwise, which makes
    the in-range quantization error zero-mean.
    """
    x = np.asarray(x, dtype=np.float64)
    idx = _draw_indices(x, cb, rng)
    return QuantizedTensor(x.shape, idx.astype(_index_dtype(cb.size)), cb)


def dequantize(q: QuantizedTensor) -> np.ndarray:
    """Exact codebook lookup; no noise is added."""
    return q.codebook.centers[q.indices].reshape(q.shape)


def fit_and_quantize(
    x: np.ndarray, rate: int, compander: str, rng: np.random.Generator
) -> tuple[QuantizedTensor, np.ndarray, float]:
    """Fit a tanh or quantile codebook to ``x`` and quantize ``x`` with it.

    Returns (quantized tensor, dequantized values, ||values - x||^2).
    Draws from ``rng`` exactly as the explicit sequence build codebook ->
    stochastic_quantize -> dequantize does.
    """
    if compander == "tanh":
        cb = build_tanh_codebook(x, rate)
    elif compander == "quantile":
        cb = build_quantile_codebook(x, rate)
    else:
        raise InvalidParams(f"cannot fit a {compander!r} codebook to data")
    q = stochastic_quantize(x, cb, rng)
    values = dequantize(q)
    err = values - x
    return q, values, float((err * err).sum())


def empirical_mse(
    cb: Codebook,
    samples: np.ndarray,
    rng: np.random.Generator,
    draws: int = 8,
) -> float:
    """Monte-Carlo estimate of the mean squared quantization error.

    Quantizes ``samples`` ``draws`` times with fresh randomness and
    averages the squared reconstruction error. Samples outside
    ``cb.source_range`` incur deterministic clamping bias on top of the
    rounding variance.
    """
    if draws < 1:
        raise InvalidParams("draws must be >= 1")
    flat = np.ascontiguousarray(samples, dtype=np.float64).ravel()
    if flat.size == 0:
        raise InvalidParams("samples must be nonempty")
    total = 0.0
    for _ in range(draws):
        idx = _draw_indices(flat, cb, rng)
        err = flat - cb.centers[idx]
        total += float(np.mean(err * err))
    return total / draws
