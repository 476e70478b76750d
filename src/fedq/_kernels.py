"""The stochastic-rounding hot kernel, in numpy.

Given identical inputs (including the pre-drawn uniforms) the index
arrays are bit-identical from run to run; experiment determinism and
the golden digests of tests/test_golden.py are defined over them.
"""

import numpy as np


def stochastic_round(values, centers, uniforms, n_le):
    """Map each value to a codebook index by randomized nearest-bracket rounding.

    ``values`` is a flat float64 array and ``centers`` a strictly
    increasing codebook of K >= 2 entries (degenerate codebooks never
    reach here). For c_j <= x <= c_{j+1} the result is j+1 when the
    element's uniform draw falls below (x - c_j) / (c_{j+1} - c_j), else
    j; values outside the codebook range clamp to the end indices. One
    uniform is consumed per element, in order, so the output is
    reproducible regardless of schedule.

    ``n_le`` is each element's bracket: the count of centers <= x kept in
    [1, K - 1], as ``quantkit`` works it out. The kernel trusts it (no
    search, no clamp) and never writes to it: a fit ``(Codebooks, n_le)``
    is a value that ``stochastic_quantize`` may be handed again, and
    brackets used up in place would then round to wrong indices without
    any error. At either end bracket the ratio is <= 0 below c_0 and >= 1
    at or above c_{K-1} (+-inf included), so such values round to that
    end; NaN has no bracket and must not reach here.
    ``centers`` may concatenate several codebooks, one per row of a batch,
    with each element's bracket offset by its codebook's start; the result
    indexes the concatenation.

    At most two n-sized temporaries live at once: both bracket ends come
    from ``n_le`` itself and are freed before the indices are formed.
    """
    shifted = np.empty(centers.size + 1)  # slot 0 is never read: n_le >= 1
    shifted[1:] = centers
    lo = shifted.take(n_le)
    p = centers.take(n_le)
    p -= lo  # the bracket's width
    np.divide(np.subtract(values, lo, out=lo), p, out=p)  # x's chance of rounding up
    del lo
    up = uniforms < p
    del p
    out = n_le - 1
    out += up
    return out
