"""Fixed-rate codebooks and stochastic (de)quantization.

All quantizers in the simulator are scalar, fixed-rate companding
quantizers: a rate-R codebook holds K = 2^R real centers, values are
rounded stochastically to one of the two bracketing centers so the
quantization noise has zero mean inside the codebook range, and
dequantization is an exact table lookup.

Two builders cover the schemes used in training:

- tanh-companded centers fitted to a tensor (used for weights and
  activations),
- empirical-quantile centers fitted to a tensor (used for gradients).

Fitted codebooks are frozen and shareable; quantization is pure given
the caller's RNG stream, consuming one uniform per element of a live row
in row-major order, and none for a degenerate (constant) row.

``Codebooks`` is the one codebook type: ragged codebooks, one per row
of a batch's leading axis, concatenated at the offsets of a ``FitPlan``.
Clients training in lockstep each own a row at their own rate; each row
draws from its own Generator exactly what it would draw alone, and one
kernel call rounds every live row. A single tensor's codebook, stored
with a client's tensor, is a batch of one row.

Rounding needs each element's bracket ``n_le``: the number of centers
<= the value, kept in [1, K - 1]. ``stochastic_quantize`` takes a fit
``(Codebooks, n_le)``. ``fit_codebook`` guesses the brackets from the
fit, from the tanh-space grid (``tanh_n_le``) or the element's rank
(``quantile_n_le``), checks each guess against the centers with the
row's ends opened to -inf and +inf and searches the misses. So every
bracket lies in its row, the kernel rounds with it and never searches,
and the indices are those of a search. Rows of 512 to 65,536 elements
sort by packed keys (``sort_rows``): 0.98x argsort's time at n = 512,
0.66x at 4096, 2.01x at 128; longer rows hold too many near-ties.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import _kernels
from .errors import InvalidParams, NonFiniteInput

# Ranges narrower than this collapse to a degenerate single-value codebook.
RANGE_EPS = 1e-12

# Largest codebook rate: 2^24 float64 centers (128 MiB), uint32 indices.
MAX_RATE = 24


class FitPlan:
    """Layout of C ragged codebooks fitted to C rows of n elements.

    Row r's K_r centers are ``first[r]:last[r] + 1`` of the concatenated
    centers. It all depends on (n, rates) alone; building it checks the
    rates. Only a fit reads n.
    """

    def __init__(self, n: int, rates: tuple[int, ...]):
        c = len(rates)
        self.n, self.rates, self.ks = n, rates, np.array([_codebook_size(r) for r in rates])
        self.offsets = np.concatenate(([0], np.cumsum(self.ks)))
        self.first, self.last = self.offsets[:-1], self.offsets[1:] - 1
        self.first_last = list(zip(self.first.tolist(), self.last.tolist()))
        self.index_dtypes = [_index_dtype(k) for k in self.ks.tolist()]
        self.intervals = (self.ks - 1).astype(np.float64)
        self.row_start, self.row_last, self.top = self.first[:, None], self.last[:, None], (self.ks - 1)[:, None]
        self.lowest, self.row_base = self.row_start + 1, (np.arange(c) * n)[:, None]
        self.end_pairs = np.stack((self.row_start, self.row_last))
        self.end_slots, self.end_values = np.append(self.first, self.last) + 1, np.repeat([-np.inf, np.inf], c)

    # Fit-only layouts, built on first use: stored tensors' plans are never fitted with.
    @cached_property
    def row_of(self) -> np.ndarray:
        return np.repeat(np.arange(len(self.rates)), self.ks)

    @cached_property
    def tanh_grid(self) -> np.ndarray:  # 0..K-1 per row
        return np.concatenate([np.arange(k, dtype=np.float64) for k in self.ks])

    @cached_property
    def across(self) -> np.ndarray:  # pairs that straddle two rows
        return np.isin(np.arange(self.offsets[-1] - 1), self.last)

    @cached_property
    def sort_keys(self) -> tuple[int, np.ndarray]:  # sort_rows' column mask and columns (n <= 2^16)
        return (1 << (self.n - 1).bit_length()) - 1, np.arange(self.n, dtype=np.uint16)

    @cached_property
    def quantile(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Where each center sits in its row's order statistics.

        Center m of a rate-K row interpolates at p = (m + 0.5)/K * (n - 1)
        between s[j] and s[j + 1], j = floor(p) capped at n - 2. Returns
        the flat indices of s[j] and s[j + 1], frac = p - j, the centers
        whose p is a sample (np.interp returns s[j] itself there), and per
        rank i the kernel bracket of the count of positions <= i.
        """
        ps = [(np.arange(k, dtype=np.float64) + 0.5) / k * (self.n - 1) for k in self.ks]
        pos = np.concatenate(ps)
        j = np.minimum(pos.astype(np.intp), max(self.n - 2, 0))
        rank = np.arange(self.n, dtype=np.float64)
        guess = np.clip([p.searchsorted(rank, side="right") for p in ps], 1, self.top) + self.row_start
        guess.setflags(write=False)
        lower = j + self.row_of * self.n
        return lower, lower + 1, pos - j, np.flatnonzero(pos == j), guess


@lru_cache(maxsize=256)
def fit_plan(n: int, rates: tuple[int, ...]) -> FitPlan:
    return FitPlan(n, rates)


@dataclass(frozen=True)
class Codebooks:
    """Sorted quantization centers, one codebook per row of a batch,
    concatenated in ``centers`` at ``plan.offsets``.

    Row r holds 2^rates[r] strictly increasing centers, except where
    ``degenerate[r]`` marks a row whose centers span less than RANGE_EPS,
    the fallback built from (near-)constant input: it draws nothing and
    maps every element to its index 0. The builders establish these facts;
    ``_finish`` freezes the centers it fits, and ``unstack``'s rows are
    read-only views of them. Hand-built codebooks are the caller's.
    """

    plan: FitPlan
    centers: np.ndarray
    degenerate: np.ndarray

    @property
    def is_degenerate(self) -> bool:  # any row
        return np.count_nonzero(self.degenerate) > 0


@dataclass
class QuantizedTensor:
    """Low-bitwidth tensor: a flat index array plus its codebooks.

    ``indices`` is row-major over ``shape``. ``stochastic_quantize``
    gives intp indices into the concatenated centers; ``unstack`` splits
    a batch into one tensor per row, whose indices are stored in the
    smallest unsigned dtype that fits its codebook, so a rate-R tensor
    really is an R-bit-per-entry representation (modulo byte alignment).
    """

    shape: tuple[int, ...]
    indices: np.ndarray
    codebook: Codebooks


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


def _spans(lo: np.ndarray, hi: np.ndarray) -> list[float]:
    """Each row's max - min, after checking every entry is finite: a NaN
    or infinite entry is an extremum and makes their sum non-finite."""
    if not math.isfinite(sum(lo.tolist()) + sum(hi.tolist())):
        finite = np.isfinite(lo) & np.isfinite(hi)
        if np.count_nonzero(finite) < finite.size:
            raise NonFiniteInput("codebook input contains non-finite values", row=int(np.argmin(finite)))
    return (hi - lo).tolist()


def _repair_strictly_increasing(centers: np.ndarray) -> np.ndarray:
    """Nudge duplicate centers up by one ulp-scale per position in the run.

    Enforces out[i] = max(centers[i], out[i-1] + scale) via a cumulative
    maximum on the ramp-shifted sequence (the loop-free form of that
    recurrence). ``_finish`` calls it only on the centers of a
    non-constant row that hold a non-increasing adjacent pair.
    """
    scale = float(np.spacing(max(abs(centers[0]), abs(centers[-1]), 1.0)))
    ramp = scale * np.arange(centers.shape[0])
    return np.maximum.accumulate(centers - ramp) + ramp


def _finish(plan: FitPlan, rows: np.ndarray, centers: np.ndarray, spans: list[float]) -> Codebooks:
    """Collapse (near-)constant rows to their midpoint, repair rows with
    duplicate centers, flag degenerate rows and freeze the centers. A row
    is degenerate when its centers span less than RANGE_EPS: a constant
    row, or one whose quantiles collapsed (all but a few values equal)."""
    if min(spans) < RANGE_EPS:
        collapsed = (np.array(spans) < RANGE_EPS)[plan.row_of]
        centers[collapsed] = (0.5 * (rows.min(axis=1) + rows.max(axis=1)))[plan.row_of[collapsed]]
    increasing = centers[1:] > centers[:-1]
    increasing |= plan.across
    if np.count_nonzero(increasing) < increasing.size:
        for r in sorted(set(plan.row_of[np.flatnonzero(~increasing)].tolist())):
            if spans[r] >= RANGE_EPS:
                part = slice(plan.first[r], plan.last[r] + 1)
                centers[part] = _repair_strictly_increasing(centers[part])
    ends = centers.take(plan.end_pairs)
    centers.setflags(write=False)
    return Codebooks(plan, centers, (ends[1] - ends[0] < RANGE_EPS).ravel())


def build_tanh_codebook(rows: np.ndarray, plan: FitPlan) -> Codebooks:
    """Companding codebook: uniform levels in tanh space, mapped back.

    The tensor is transformed by tanh, a uniform grid is laid over the
    transformed range, and the grid is pulled back through arctanh, so
    center spacing widens with |x|. The range endpoints are pinned to
    the exact extrema of the row so the largest-magnitude entries stay
    exactly representable. Near-constant input falls back to the
    degenerate single-value codebook. Row r of the (C, n) float64
    ``rows`` is fitted at ``plan.rates[r]``.
    """
    lo = rows.min(axis=1)
    hi = rows.max(axis=1)
    spans = _spans(lo, hi)
    # np.linspace(t0, t1, k) spelled out per row: same operations, same bits.
    t0 = np.tanh(lo)
    t1 = np.tanh(hi)
    t = plan.tanh_grid * ((t1 - t0) / plan.intervals)[plan.row_of]
    t += t0[plan.row_of]
    t[plan.last] = t1
    if -1.0 < min(t0.tolist()) and max(t1.tolist()) < 1.0:
        centers = np.arctanh(t)
    else:
        # tanh saturates to +-1 beyond |x| ~ 19; arctanh(+-1) = +-inf.
        with np.errstate(divide="ignore", over="ignore"):
            centers = np.arctanh(t)
    centers[plan.first] = lo
    centers[plan.last] = hi
    # Bound first: on a tie (+-0) the center is kept, as np.clip does.
    np.maximum(lo[plan.row_of], centers, out=centers)
    np.minimum(hi[plan.row_of], centers, out=centers)
    return _finish(plan, rows, centers, spans)


def sort_rows(rows: np.ndarray, plan: FitPlan) -> tuple[np.ndarray, np.ndarray]:
    """The (C, n) ``rows`` sorted, and their argsort into the flat rows.
    For 512 <= n <= 65536, one sort of int64 keys: a float's order-preserving
    bits, the low ceil(log2 n) its column, so ties sort by column and -0.0
    before +0.0; argsort re-sorts a row whose 1-ulp near-ties came out of order."""
    if not 512 <= plan.n <= 65536:
        order = rows.argsort(axis=1)
        order += plan.row_base
        return rows.take(order), order
    mask, columns = plan.sort_keys
    bits = rows.view(np.int64)
    order = (bits >> 63) & 0x7FFF_FFFF_FFFF_FFFF
    order ^= bits
    order &= ~mask
    order |= columns
    order.sort()
    order &= mask
    order += plan.row_base
    out = rows.take(order)
    unsorted = out[:, 1:] < out[:, :-1]
    if np.logical_or.reduce(unsorted, axis=None):
        for r in np.logical_or.reduce(unsorted, axis=1).nonzero()[0].tolist():
            order[r] = rows[r].argsort() + plan.row_base[r]
            out[r] = rows.take(order[r])
    return out, order


def build_quantile_codebook(rows: np.ndarray, sorted_rows: np.ndarray, plan: FitPlan) -> Codebooks:
    """Centers at the empirical quantiles p_i = (i + 0.5)/K of each row.

    Quantiles use linear interpolation between order statistics. Heavy
    ties produce duplicate centers, repaired by ulp-scale nudges to
    restore strict increase; constant input falls back to the degenerate
    codebook (an all-zero gradient tensor is the common case). Row r of
    the (C, n) ``rows`` is fitted at ``plan.rates[r]``; ``sorted_rows``
    is ``sort_rows(rows, plan)[0]``.
    """
    spans = _spans(sorted_rows[:, 0], sorted_rows[:, -1])
    if plan.n == 1:  # constant, so degenerate
        centers = np.empty(plan.offsets[-1])
    else:
        # np.interp spelled out: (s[j+1] - s[j]) * frac + s[j], same bits.
        lower, upper, frac, at_sample, _ = plan.quantile
        below = sorted_rows.take(lower)
        centers = sorted_rows.take(upper)
        centers -= below
        centers *= frac
        centers += below
        if at_sample.size:
            centers[at_sample] = below[at_sample]
    return _finish(plan, rows, centers, spans)


def stochastic_quantize(x: np.ndarray, fit: tuple[Codebooks, np.ndarray], rngs: list) -> QuantizedTensor:
    """Quantize a batch with randomized rounding to bracketing centers.

    Elements at or beyond the end centers clamp deterministically; for
    interior x with c_j <= x <= c_{j+1} the result is c_{j+1} with
    probability (x - c_j)/(c_{j+1} - c_j) and c_j otherwise, which makes
    the in-range quantization error zero-mean.

    ``fit`` is ``(Codebooks, n_le)`` from ``fit_codebook``. Row r of the
    leading axis draws from ``rngs[r]``; a degenerate row draws nothing and
    maps to its index 0, so a batch of only such rows makes no kernel call.
    """
    cbs, n_le = fit
    x = np.asarray(x, dtype=np.float64)
    rows, indices = x.reshape(len(rngs), -1), None
    if np.count_nonzero(cbs.degenerate):
        live = np.flatnonzero(~cbs.degenerate)
        indices = np.repeat(cbs.plan.first, rows.shape[1])
        rows, n_le, rngs = rows[live], n_le[live], [rngs[r] for r in live]
    if rngs:
        uniforms = np.empty(rows.shape)
        for u, rng in zip(uniforms, rngs):
            rng.random(out=u)
        drawn = _kernels.stochastic_round(rows.ravel(), cbs.centers, uniforms.ravel(), n_le.ravel())
        if indices is None:
            indices = drawn
        else:
            indices.reshape(len(cbs.degenerate), -1)[live] = drawn.reshape(rows.shape)
    return QuantizedTensor(x.shape, indices, cbs)


def dequantize(q: QuantizedTensor) -> np.ndarray:
    """Exact codebook lookup; no noise is added."""
    return q.codebook.centers.take(q.indices).reshape(q.shape)


def unstack(q: QuantizedTensor) -> list[QuantizedTensor]:
    """A quantized batch as one tensor per row, in its compact dtype, with
    its row of the codebooks: a view of the batch's centers."""
    cbs, plan = q.codebook, q.codebook.plan
    local = q.indices.reshape(len(plan.rates), -1) - plan.row_start
    return [QuantizedTensor(q.shape[1:], local[r].astype(dtype), Codebooks(
                fit_plan(plan.n, (rate,)), cbs.centers[a:b + 1], cbs.degenerate[r:r + 1]))
            for r, (rate, dtype, (a, b)) in enumerate(zip(plan.rates, plan.index_dtypes, plan.first_last))]


def _verified(rows, n_le, cbs: Codebooks) -> np.ndarray:
    """Correct guessed kernel brackets of the (C, n) ``rows``, row by row.

    The concatenated centers one slot in, each row's ends opened to -inf
    and +inf, are ``bounds``: x's bracket is b exactly when bounds[b] <=
    x < bounds[b + 1]. Misses are searched; ``n_le`` is not modified.
    """
    plan = cbs.plan
    bounds = np.empty(plan.offsets[-1] + 1)
    bounds[1:] = cbs.centers
    bounds[plan.end_slots] = plan.end_values
    miss = bounds.take(n_le) > rows
    miss |= bounds[1:].take(n_le) <= rows
    if np.count_nonzero(miss):
        n_le = n_le.copy()
        for r in np.flatnonzero(miss.any(axis=1)):
            a, b = plan.first_last[r]
            m = np.flatnonzero(miss[r])
            # One plus the count of the row's interior centers <= x, plus its offset.
            n_le[r, m] = cbs.centers[a + 1:b].searchsorted(rows[r, m], side="right") + (a + 1)
    return n_le


def tanh_n_le(rows: np.ndarray, cbs: Codebooks) -> np.ndarray:
    """Kernel bracket of each element of the (C, n) ``rows``, for tanh
    codebooks fitted to them: the count of centers <= x kept in
    [1, K - 1], plus the row's offset.

    The fitted grid is uniform in tanh space between tanh(c[0]) and
    tanh(c[-1]), so the guess is floor((tanh(x) - tanh(c[0])) / step) + 1;
    a row whose tanh range collapsed (saturation) guesses 1. Checked and
    searched where missed, it is exact for any non-decreasing codebooks.
    """
    plan = cbs.plan
    t0, t1 = np.tanh(cbs.centers.take(plan.end_pairs))
    span = t1 - t0
    span[~(span > 0.0)] = np.inf
    est = np.tanh(rows)
    est -= t0
    est *= plan.top / span
    # Truncation is the floor for est >= 0; the clamps keep a guess that
    # rounding (or a value outside the codebook) pushed out of range a
    # valid bracket, for the check to correct.
    n_le = est.astype(np.intp)
    del est  # not held through the check
    n_le += plan.lowest
    np.maximum(n_le, plan.lowest, out=n_le)
    np.minimum(n_le, plan.row_last, out=n_le)
    return _verified(rows, n_le, cbs)


def quantile_n_le(sorted_rows: np.ndarray, cbs: Codebooks, order: np.ndarray) -> np.ndarray:
    """Kernel bracket of each element of the rows, as in ``tanh_n_le``,
    for quantile codebooks fitted to them; ``sorted_rows, order`` are
    ``sort_rows(rows, plan)``. The element of rank i lies just above the
    centers interpolated at positions <= i, so that count is its guess;
    checked, searched where missed (ties, repairs, a codebook fitted elsewhere)
    and scattered back, it is exact.
    """
    counts = _verified(sorted_rows, cbs.plan.quantile[4], cbs)
    n_le = np.empty(sorted_rows.shape, dtype=np.intp)
    n_le.reshape(-1)[order] = counts
    return n_le


def fit_codebook(x: np.ndarray, rates: tuple[int, ...], compander: str) -> tuple[Codebooks, np.ndarray]:
    """Fit a tanh or quantile codebook to each row of ``x`` and bracket its elements.

    Row r of the leading axis is fitted at ``rates[r]``. Returns the
    codebooks and each element's kernel bracket (the count of centers
    <= the element kept in [1, K - 1], plus the row's offset): guessed
    from the grid in tanh rows and from the ranks in quantile rows, then
    checked and searched where missed. A degenerate row's brackets lie in
    its row but are never read. Empty input is rejected.
    """
    rows = np.asarray(x, dtype=np.float64)
    if rows.size == 0:
        raise InvalidParams("cannot build a codebook from an empty tensor")
    rows = rows.reshape(len(rates), -1)
    plan = fit_plan(rows.shape[1], rates)
    if compander == "tanh":
        cbs = build_tanh_codebook(rows, plan)
        return cbs, tanh_n_le(rows, cbs)
    if compander == "quantile":
        sorted_rows, order = sort_rows(rows, plan)
        cbs = build_quantile_codebook(rows, sorted_rows, plan)
        return cbs, quantile_n_le(sorted_rows, cbs, order)
    raise InvalidParams(f"cannot fit a {compander!r} codebook to data")


def fit_and_quantize(x: np.ndarray, rates: tuple[int, ...], compander: str, rngs: list):
    """Fit a tanh or quantile codebook to each row of ``x`` and quantize
    the row with it, drawing from ``rngs[r]``.

    Returns (quantized batch, dequantized values). Each row gets exactly
    the indices, values and draws of the explicit sequence build
    codebook -> stochastic_quantize -> dequantize on that row alone.
    """
    q = stochastic_quantize(x, fit_codebook(x, rates, compander), rngs)
    return q, dequantize(q)


def error_energy(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """||values - x||^2 of each row of the leading axis."""
    err = values - x
    err *= err
    return err.reshape(len(err), -1).sum(axis=1)


def expected_error(x: np.ndarray, fit: tuple[Codebooks, np.ndarray]) -> np.ndarray:
    """Expected ||Q(x) - x||^2 of each row of the leading axis under
    ``stochastic_quantize`` with ``fit``: the mean of ``error_energy``.

    Inside its row's range an element bracketed by c_j <= x <= c_{j+1}
    contributes (x - c_j)(c_{j+1} - x); an element beyond an end center
    clamps to it and contributes the squared distance. A degenerate row
    maps every element to its first center: sum (x - c_first)^2.
    """
    cbs, n_le = fit
    rows = np.asarray(x, dtype=np.float64).reshape(len(cbs.plan.rates), -1)
    lo, hi = cbs.centers.take(n_le - 1), cbs.centers.take(n_le)
    ends = cbs.centers.take(cbs.plan.end_pairs)
    if cbs.is_degenerate:
        dead = cbs.degenerate
        lo[dead] = hi[dead] = ends[1][dead] = ends[0][dead]
    inside = np.clip(rows, ends[0], ends[1])
    err = rows - inside
    err *= err
    err += (inside - lo) * (hi - inside)
    return err.sum(axis=1)
