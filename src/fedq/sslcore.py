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

from .errors import DimensionMismatch, InvalidParams, NoConvergence, NonFiniteInput

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
    reproducible across runs. Raises NonFiniteInput naming the first row
    that holds NaN or inf, InvalidParams when the input's asymmetry
    exceeds 1e-9 and NoConvergence if the underlying QR iteration fails.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise DimensionMismatch("expected a square matrix")
    with np.errstate(invalid="ignore", over="ignore"):
        asymmetry = float(np.max(np.abs(x - x.T), initial=0.0))
    # A NaN or inf entry makes the asymmetry non-finite, so only then are the entries read.
    if not asymmetry < np.inf and not np.isfinite(x).all():
        raise NonFiniteInput("matrix holds NaN or inf", row=int(np.argmin(np.isfinite(x).all(axis=1))))
    if asymmetry > SYMMETRY_TOL:
        raise InvalidParams(f"asymmetry exceeds {SYMMETRY_TOL}")
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


def closed_form_optimum(eig: EigenDecomposition, m: int) -> np.ndarray:
    """Eckart-Young minimizer of ``loss`` at X, ``eig = sym_eig(X)``: rows sqrt(lambda_i) v_i^T.

    ``m`` is the representation rank. Eigenvalues in [-EIG_CLAMP, 0) are
    treated as exact zeros (they arise from roundoff in PSD inputs);
    anything more negative raises InvalidParams.
    """
    d = eig.eigenvalues.shape[0]
    if not 1 <= m <= d:
        raise InvalidParams(f"rank m={m} outside [1, {d}]")
    top = eig.eigenvalues[:m].copy()
    if np.any(top < -EIG_CLAMP):
        raise InvalidParams(f"eigenvalue {top.min():.3e} below -{EIG_CLAMP}")
    np.clip(top, 0.0, None, out=top)
    return np.sqrt(top)[:, None] * eig.eigenvectors[:, :m].T


def optimal_loss(eig: EigenDecomposition, m: int) -> float:
    """Sum of squared trailing eigenvalues of ``eig``: the Eckart-Young loss floor."""
    tail = eig.eigenvalues[m:]
    return float(np.sum(tail * tail))


def orthonormal_row_basis(w: np.ndarray) -> np.ndarray:
    """Rank-revealing Gram-Schmidt over rows, dropping dependent rows.

    Uses modified Gram-Schmidt with a second projection pass per row for
    numerical orthogonality; the drop tolerance is RANK_TOL * ||w||_F.
    """
    if w.ndim != 2:
        raise DimensionMismatch("feature matrix must be 2-D")
    with np.errstate(over="ignore"):  # an overflowing norm is mended below
        scale = float(np.linalg.norm(w))
    # A NaN or inf entry makes the norm non-finite, so only then are the
    # entries read. A finite matrix whose norm overflows is scaled by its
    # largest entry: the same span, with a finite norm and row norms.
    if not scale < np.inf:
        if not np.isfinite(w).all():
            raise NonFiniteInput("feature matrix holds NaN or inf", row=int(np.argmin(np.isfinite(w).all(axis=1))))
        w = w / np.max(np.abs(w))
        scale = float(np.linalg.norm(w))
    if scale == 0.0:
        raise InvalidParams("feature matrix has no nonzero rows")
    tol = RANK_TOL * scale
    # Until a row joins the basis each row is its own residual, and the
    # longest has norm >= scale / sqrt(rows) > tol: the basis is never empty.
    basis: list[np.ndarray] = []
    for row in w:
        v = row.astype(np.float64, copy=True)
        for _ in range(2):
            for b in basis:
                v -= (b @ v) * b
        norm = float(np.linalg.norm(v))
        if norm > tol:
            basis.append(v / norm)
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

    Starts from ones / sqrt(d), or from x's largest column x e_j when x
    maps that to zero (x^2 e_j = 0 only if x e_j = 0, so only a zero
    matrix gives 0.0). At most 100 steps; stops once successive norms
    agree to 1e-10 relative, a test that a power-of-two scale of x
    leaves unchanged, so spectral_norm(s x) == s spectral_norm(x).
    """
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[0]
    v = np.ones(d) / np.sqrt(d)
    if not (x @ v).any():
        v = x[:, np.argmax(np.linalg.norm(x, axis=0))]
    last = 0.0
    for _ in range(100):
        v = x @ v
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            return 0.0
        v /= norm
        if abs(norm - last) <= 1e-10 * norm:
            last = norm
            break
        last = norm
    return last
