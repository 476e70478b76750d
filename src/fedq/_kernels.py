"""The stochastic-rounding hot kernel, in numpy.

Given identical inputs (including the pre-drawn uniforms) the index
arrays are bit-identical from run to run; experiment determinism and
the golden digests of tests/test_golden.py are defined over them.

Each element's bracket is ``n_le``, the number of centers <= the value.
Callers that already know it pass it in (``quantkit.fit_codebook``
works it out from the fit); otherwise the kernel finds it by binary
search. ``centers`` may also concatenate several codebooks, one per
row of a batch; then ``n_le`` is required and holds each element's
count within its own codebook, kept in [1, K - 1], plus that codebook's
offset, so every lookup stays inside the element's codebook, and the
result indexes the concatenation.
"""

import numpy as np


def stochastic_round(values, centers, uniforms, n_le=None):
    """Map each value to a codebook index by randomized nearest-bracket rounding.

    ``values`` is a flat float64 array and ``centers`` a strictly
    increasing codebook of K >= 2 entries, as quantkit._draw_indices
    passes them (degenerate codebooks never reach here). For
    c_j <= x <= c_{j+1} the result is j+1 when the element's uniform
    draw falls below (x - c_j) / (c_{j+1} - c_j), else j; values outside
    the codebook range clamp to the end indices. One uniform is consumed
    per element, in order, so the output is reproducible regardless of
    schedule.

    ``n_le``, when given, must equal
    ``centers.searchsorted(values, side="right")`` exactly, or that count
    kept in [1, K - 1], which rounds the same; the kernel then skips the
    search. It is read, not modified.
    """
    k = centers.shape[0]
    if n_le is None:
        j = np.searchsorted(centers, values, side="right")
        j -= 1
    else:
        j = n_le - 1
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
