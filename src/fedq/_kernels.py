"""The stochastic-rounding hot kernel, in numpy.

Given identical inputs (including the pre-drawn uniforms) the index
arrays are bit-identical from run to run; experiment determinism and
the golden digests of tests/test_golden.py are defined over them.
"""

import numpy as np


def stochastic_round(values, centers, uniforms):
    """Map each value to a codebook index by randomized nearest-bracket rounding.

    ``values`` is a flat float64 array and ``centers`` a strictly
    increasing codebook of K >= 2 entries, as quantkit._draw_indices
    passes them (degenerate codebooks never reach here). For
    c_j <= x <= c_{j+1} the result is j+1 when the element's uniform
    draw falls below (x - c_j) / (c_{j+1} - c_j), else j; values outside
    the codebook range clamp to the end indices. One uniform is consumed
    per element, in order, so the output is reproducible regardless of
    schedule.
    """
    k = centers.shape[0]
    j = np.searchsorted(centers, values, side="right")
    j -= 1
    out = np.maximum(j, 0)
    np.minimum(out, k - 2, out=out)
    lo = centers[out]
    hi = centers[1:][out]
    p = values - lo
    hi -= lo
    p /= hi
    # Below c_0 the ratio is negative, so no draw moves the index off 0.
    # At or above c_{k-1}, and for NaN, j is k - 1 and the maximum lifts
    # the index there.
    out += uniforms < p
    np.maximum(out, j, out=out)
    return out


def expected_sq_error(values, centers):
    """Per-element variance of the stochastic rounding error.

    For x bracketed by (c_j, c_{j+1}) the rounding is a Bernoulli draw and
    the mean squared error is (x - c_j)(c_{j+1} - x); clamped values incur
    the deterministic squared distance to the end center.
    """
    values = np.ascontiguousarray(values, dtype=np.float64).ravel()
    k = centers.shape[0]
    if k == 1:
        return (values - centers[0]) ** 2
    j = np.searchsorted(centers, values, side="right") - 1
    jc = np.clip(j, 0, k - 2)
    lo = centers[jc]
    hi = centers[jc + 1]
    out = (values - lo) * (hi - values)
    below = j < 0
    above = j >= k - 1
    out[below] = (values[below] - centers[0]) ** 2
    out[above] = (values[above] - centers[k - 1]) ** 2
    return out
