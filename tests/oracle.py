"""Reference formulas the tests check the quantizer against."""

import numpy as np


def reference_n_le(centers, x):
    """Number of centers <= each element of ``x``: the kernel's bracket."""
    return centers.searchsorted(x, side="right")


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
