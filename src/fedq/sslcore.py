"""The tractable SSL objective and its linear-algebra companions.

The objective for a feature matrix w (m x d, rows spanning the learned
subspace) against a covariance X is the squared Frobenius distance
||X - w^T w||^2. Its minimizer is the scaled top-m eigenspace of X
(Eckart-Young), which gives a closed-form optimum and the optimal loss
as the sum of squared trailing eigenvalues. Representability of a
subspace is the vector of squared projections of the standard basis
onto it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, InvalidParams, NegativeEigenvalue, NoConvergence, NonFiniteInput, NotSymmetric,
                     ZeroMatrix)

SYMMETRY_TOL = 1e-9
EIG_CLAMP = 1e-9
# Rows whose Gram-Schmidt residual falls below this fraction of ||w||
# lie in the span of earlier rows and are dropped.
RANK_TOL = 1e-10


def _check_dims(w: np.ndarray, x: np.ndarray):
    if w.ndim != 2:
        raise DimensionMismatch("feature matrix must be 2-D")
    if x.shape != (w.shape[1], w.shape[1]):
        raise DimensionMismatch(
            f"covariance shape {x.shape} incompatible with features {w.shape}"
        )


def residual(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gram residual w^T w - X, shared by ``loss`` and ``grad``."""
    _check_dims(w, x)
    return w.T @ w - x


def loss(w: np.ndarray, x: np.ndarray) -> float:
    """||X - w^T w||_F^2."""
    r = residual(w, x)
    return float((r * r).sum())


def grad(w: np.ndarray, x: np.ndarray, r: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """Gradient of ``loss`` in w, 4 w (w^T w - X), into ``out`` if given;
    ``r`` is ``residual(w, x)`` when already formed."""
    if r is None:
        r = residual(w, x)
    elif r.shape != x.shape:
        raise DimensionMismatch(f"residual shape {r.shape} does not match covariance {x.shape}")
    return np.matmul(4.0 * w, r, out=out)


@dataclass(frozen=True)
class EigenDecomposition:
    """Full spectral decomposition, eigenvalues descending, columns orthonormal."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eig(x: np.ndarray) -> EigenDecomposition:
    """Spectral decomposition of a symmetric matrix.

    Eigenvalues come out descending and each eigenvector's
    largest-magnitude component is made positive, so the output is
    reproducible across runs. Raises NotSymmetric when the input's
    asymmetry exceeds 1e-9 and NoConvergence if the underlying QR
    iteration fails.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise DimensionMismatch("expected a square matrix")
    if x.size and float(np.max(np.abs(x - x.T))) > SYMMETRY_TOL:
        raise NotSymmetric(f"asymmetry exceeds {SYMMETRY_TOL}")
    xs = 0.5 * (x + x.T)
    try:
        vals, vecs = np.linalg.eigh(xs)
    except np.linalg.LinAlgError as e:
        raise NoConvergence(str(e)) from e
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    lead = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[lead, np.arange(vecs.shape[1])])
    signs[signs == 0] = 1.0
    return EigenDecomposition(vals, vecs * signs)


def closed_form_optimum(x: np.ndarray, m: int) -> np.ndarray:
    """Eckart-Young minimizer of ``loss``: rows sqrt(lambda_i) v_i^T.

    ``m`` is the representation rank. Eigenvalues in [-EIG_CLAMP, 0) are
    treated as exact zeros (they arise from roundoff in PSD inputs);
    anything more negative raises NegativeEigenvalue.
    """
    eig = sym_eig(x)
    d = eig.eigenvalues.shape[0]
    if not 1 <= m <= d:
        raise InvalidParams(f"rank m={m} outside [1, {d}]")
    top = eig.eigenvalues[:m].copy()
    if np.any(top < -EIG_CLAMP):
        raise NegativeEigenvalue(f"eigenvalue {top.min():.3e} below -{EIG_CLAMP}")
    np.clip(top, 0.0, None, out=top)
    return np.sqrt(top)[:, None] * eig.eigenvectors[:, :m].T


def optimal_loss(x: np.ndarray, m: int) -> float:
    """Sum of squared trailing eigenvalues: the Eckart-Young loss floor."""
    eig = sym_eig(x)
    tail = eig.eigenvalues[m:]
    return float(np.sum(tail * tail))


def orthonormal_row_basis(w: np.ndarray) -> np.ndarray:
    """Rank-revealing Gram-Schmidt over rows, dropping dependent rows.

    Uses modified Gram-Schmidt with a second projection pass per row for
    numerical orthogonality; the drop tolerance is RANK_TOL * ||w||_F.
    """
    if w.ndim != 2:
        raise DimensionMismatch("feature matrix must be 2-D")
    scale = float(np.linalg.norm(w))
    # A NaN or inf entry makes the norm non-finite, so only then are the
    # entries read; finite rows whose norm overflows go on to ZeroMatrix.
    if not scale < np.inf and not np.isfinite(w).all():
        raise NonFiniteInput("feature matrix holds NaN or inf", row=int(np.argmin(np.isfinite(w).all(axis=1))))
    if scale == 0.0:
        raise ZeroMatrix("feature matrix has no nonzero rows")
    tol = RANK_TOL * scale
    basis: list[np.ndarray] = []
    for row in w:
        v = row.astype(np.float64, copy=True)
        for _ in range(2):
            for b in basis:
                v -= (b @ v) * b
        norm = float(np.linalg.norm(v))
        if norm > tol:
            basis.append(v / norm)
    if not basis:
        raise ZeroMatrix("all rows numerically zero or dependent")
    return np.vstack(basis)


def representability(w: np.ndarray) -> np.ndarray:
    """Squared projections of each standard basis vector onto span(rows of w).

    Entry i is ||P_S e_i||^2 for the subspace S spanned by the rows;
    every entry lies in [0, 1] and the entries sum to dim(S).
    """
    basis = orthonormal_row_basis(w)
    return np.sum(basis * basis, axis=0)


def spectral_norm(x: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a symmetric matrix by power iteration.

    At most 100 steps; stops once successive norms agree to 1e-10 relative.
    """
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[0]
    v = np.ones(d) / np.sqrt(d)
    last = 0.0
    for _ in range(100):
        v = x @ v
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            return 0.0
        v /= norm
        if abs(norm - last) <= 1e-10 * max(norm, 1.0):
            last = norm
            break
        last = norm
    return last
