"""The stochastic-rounding hot kernel, in numpy.

Given identical inputs (including the pre-drawn uniforms) the index
arrays are bit-identical from run to run; experiment determinism and
the golden digests of tests/test_golden.py are defined over them.
"""

import numpy as np


def stochastic_round(values, centers, uniforms, n_le=None):
    """Map each value to a codebook index by randomized nearest-bracket rounding.

    ``values`` is a flat float64 array and ``centers`` a strictly
    increasing codebook of K >= 2 entries (degenerate codebooks never
    reach here). For c_j <= x <= c_{j+1} the result is j+1 when the
    element's uniform draw falls below (x - c_j) / (c_{j+1} - c_j), else
    j; values outside the codebook range clamp to the end indices. One
    uniform is consumed per element, in order, so the output is
    reproducible regardless of schedule.

    ``n_le`` is each element's bracket: the count of centers <= x kept in
    [1, K - 1], as ``quantkit.fit_codebook`` works it out from the fit,
    for finite values. The kernel trusts it: no search, no clamp. At
    either end bracket the ratio is <= 0 below c_0 and >= 1 at or above
    c_{K-1}, so such values round to that end. ``centers`` may then
    concatenate several codebooks, one per row of a batch, with each
    element's bracket offset by its codebook's start; the result indexes
    the concatenation. Without ``n_le`` the kernel searches and clamps.
    """
    if n_le is None:
        j = np.searchsorted(centers, values, side="right")
        j -= 1
        out = np.maximum(j, 0)
        np.minimum(out, centers.shape[0] - 2, out=out)
    else:
        out = n_le - 1
    lo = centers.take(out)
    hi = centers[1:].take(out)
    p = values - lo
    hi -= lo
    p /= hi
    out += uniforms < p
    if n_le is None:
        # At or above c_{k-1}, and for NaN, j is k - 1: lift the index there.
        np.maximum(out, j, out=out)
    return out
