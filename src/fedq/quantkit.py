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

Rounding needs each element's bracket: ``n_le``, the number of centers
<= the value. ``stochastic_quantize`` with a foreign codebook leaves it
to the kernel's binary search. ``fit_and_quantize`` works it out from
the fit instead, for tensors of at least DIRECT_BRACKET_MIN elements:
from the uniform tanh-space grid for a tanh codebook, and from a sort
of the tensor for a quantile codebook. Either way ``n_le`` is exactly
what the search returns, so the indices are the same.
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

# fit_and_quantize brackets tensors of at least this many elements from
# the fit; smaller ones keep the kernel's binary search, which costs less
# there. On workload tensors cut to n elements, the fit's brackets break
# even near n = 512 for tanh and n = 256 for quantile codebooks, and take
# 18% off a 1024-element call (numpy 2.4, AVX-512 x86-64, one thread).
DIRECT_BRACKET_MIN = 512


@dataclass(frozen=True)
class Codebook:
    """Sorted quantization centers at a rate.

    ``centers`` has length 2^rate and is strictly increasing, except for
    the degenerate fallback built from (near-)constant input where every
    center holds the same value and quantization maps everything to
    index 0. The builders below establish these facts, so construction
    only freezes ``centers``.
    """

    rate: int
    centers: np.ndarray

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


def degenerate_codebook(value: float, rate: int) -> Codebook:
    """Fallback codebook for constant input: K copies of one center.

    Strict-increase is waived; stochastic_quantize maps every element to
    index 0. Constant layers occur at initialization, so builders fitted
    to data fall back to this instead of failing.
    """
    return Codebook(rate, np.full(_codebook_size(rate), float(value)))


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
    return Codebook(int(rate), centers)


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
        return degenerate_codebook(0.5 * (lo + hi), int(rate))
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
    return Codebook(int(rate), _repair_strictly_increasing(centers))


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
        return degenerate_codebook(0.5 * (lo + hi), int(rate))
    order_stats = np.sort(values.ravel())
    n = order_stats.size
    pos = (np.arange(k, dtype=np.float64) + 0.5) / k * (n - 1)
    centers = np.interp(pos, np.arange(n, dtype=np.float64), order_stats)
    return Codebook(int(rate), _repair_strictly_increasing(centers))


def _draw_indices(
    values: np.ndarray, cb: Codebook, rng: np.random.Generator, n_le: np.ndarray | None = None
) -> np.ndarray:
    flat = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if cb.is_degenerate:
        return np.zeros(flat.shape[0], dtype=np.int64)
    uniforms = rng.random(flat.shape[0])
    return _kernels.stochastic_round(flat, cb.centers, uniforms, n_le)


def stochastic_quantize(
    x: np.ndarray, cb: Codebook, rng: np.random.Generator, n_le: np.ndarray | None = None
) -> QuantizedTensor:
    """Quantize a tensor with randomized rounding to bracketing centers.

    Elements at or beyond the end centers clamp deterministically; for
    interior x with c_j <= x <= c_{j+1} the result is c_{j+1} with
    probability (x - c_j)/(c_{j+1} - c_j) and c_j otherwise, which makes
    the in-range quantization error zero-mean.

    ``n_le``, when given, is each element's count of centers <= it in
    row-major order, exactly ``cb.centers.searchsorted(x.ravel(),
    side="right")``; the kernel then skips its search.
    """
    x = np.asarray(x, dtype=np.float64)
    idx = _draw_indices(x, cb, rng, n_le)
    return QuantizedTensor(x.shape, idx.astype(_index_dtype(cb.size)), cb)


def dequantize(q: QuantizedTensor) -> np.ndarray:
    """Exact codebook lookup; no noise is added."""
    return q.codebook.centers[q.indices].reshape(q.shape)


def tanh_n_le(flat: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Count of centers <= x per element, for a tanh codebook fitted to ``flat``.

    The fitted grid is uniform in tanh space between tanh(c[0]) and
    tanh(c[-1]), so the guess is floor((tanh(x) - tanh(c[0])) / step) + 1,
    kept in [1, K]. Each guess is checked against the real centers, which
    makes the count exact for any non-decreasing codebook; the elements
    it misses (saturated tanh beyond |x| ~ 19, repaired duplicate
    centers, ulp boundaries) are searched.
    """
    k = centers.shape[0]
    t0 = np.tanh(centers[0])
    t1 = np.tanh(centers[-1])
    if not t1 > t0:
        return centers.searchsorted(flat, side="right")
    est = np.tanh(flat)
    est -= t0
    est *= (k - 1) / (t1 - t0)
    # Truncation is the floor for est >= 0; the clamps keep a guess that
    # rounding (or a value outside the codebook) pushed out of range a
    # valid index, for the check to correct.
    n_le = est.astype(np.int64)
    n_le += 1
    np.maximum(n_le, 1, out=n_le)
    np.minimum(n_le, k, out=n_le)
    # The guess is right when c[n_le - 1] <= x < c[n_le], taking c[K] = +inf;
    # the padded copy reads both ends with n_le itself as the index.
    ends = np.empty(k + 2)
    ends[0] = -np.inf
    ends[1:-1] = centers
    ends[-1] = np.inf
    miss = ends[:-1][n_le] > flat
    miss |= ends[1:][n_le] <= flat
    if miss.any():
        miss = np.flatnonzero(miss)
        n_le[miss] = centers.searchsorted(flat[miss], side="right")
    return n_le


def quantile_n_le(flat: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Count of centers <= x per element, from a sort of ``flat``.

    With s = sorted(flat) and q_m = #{s < c_m}, c_m <= s_i holds exactly
    when i >= q_m, so the count for s_i is #{m : q_m <= i}: a histogram
    of q, summed, then scattered back to the original order. This is
    exact for any codebook, with K searches on sorted keys in place of n.
    """
    n = flat.shape[0]
    order = np.argsort(flat)
    q = flat[order].searchsorted(centers, side="left")
    n_le = np.empty(n, dtype=np.int64)
    n_le[order] = np.bincount(q, minlength=n + 1)[:n].cumsum()
    return n_le


def fit_and_quantize(
    x: np.ndarray, rate: int, compander: str, rng: np.random.Generator
) -> tuple[QuantizedTensor, np.ndarray, float]:
    """Fit a tanh or quantile codebook to ``x`` and quantize ``x`` with it.

    Returns (quantized tensor, dequantized values, ||values - x||^2).
    Draws from ``rng`` and returns exactly what the explicit sequence
    build codebook -> stochastic_quantize -> dequantize does; for
    tensors of at least DIRECT_BRACKET_MIN elements the brackets come
    from the fit (tanh_n_le, quantile_n_le) rather than a search.
    """
    if compander == "tanh":
        cb = build_tanh_codebook(x, rate)
        bracket = tanh_n_le
    elif compander == "quantile":
        cb = build_quantile_codebook(x, rate)
        bracket = quantile_n_le
    else:
        raise InvalidParams(f"cannot fit a {compander!r} codebook to data")
    n_le = None
    if np.size(x) >= DIRECT_BRACKET_MIN and not cb.is_degenerate:
        n_le = bracket(np.ascontiguousarray(x, dtype=np.float64).ravel(), cb.centers)
    q = stochastic_quantize(x, cb, rng, n_le)
    values = dequantize(q)
    err = values - x
    return q, values, float((err * err).sum())


def empirical_mse(cb: Codebook, samples: np.ndarray, rng: np.random.Generator, draws: int) -> float:
    """Monte-Carlo estimate of the mean squared quantization error.

    Quantizes ``samples`` ``draws`` times with fresh randomness and
    averages the squared reconstruction error. Samples beyond the end
    centers incur deterministic clamping bias on top of the rounding
    variance.
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
