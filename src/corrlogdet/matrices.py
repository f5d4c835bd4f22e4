"""Sample covariance / correlation matrices and a Cholesky log-determinant.

The correlation matrix of a data matrix ``X`` is computed as ``Y @ Y.T``
where ``Y`` is ``X`` with every row divided by its Euclidean norm.  That
construction makes the row-scale invariance of correlation statistics a
matrix identity rather than a numerical accident.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import DegenerateInputError, NotPositiveDefiniteError, ParameterDomainError

# Rows squared at a time by the row norms: a p-by-n square of the whole
# matrix would be a second X-sized temporary.
_NORM_ROWS = 64


@dataclass(frozen=True)
class DataMatrix:
    """Dense p-by-n data matrix; rows are variables, columns observations.

    ``values`` is the caller's array itself whenever that is already a
    writeable C-ordered float array, and :func:`sample_correlation`
    normalizes it in place: pass a copy to keep the raw data.  Any other
    input (read-only, another dtype or layout) is copied first.
    """

    values: np.ndarray

    def __post_init__(self):
        # writeable too: sample_correlation normalizes values in place
        v = np.require(self.values, dtype=float, requirements=("C", "W"))
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ParameterDomainError("data matrix must be 2-D and nonempty")
        finite = np.isfinite(v)
        if not finite.all():
            i, j = np.unravel_index(np.argmin(finite), v.shape)
            raise ParameterDomainError(
                f"data matrix entries must be finite; row {i}, column {j} is {v[i, j]}"
            )
        object.__setattr__(self, "values", v)


def sample_covariance(x: DataMatrix) -> np.ndarray:
    """``X @ X.T / n``; numpy forms ``A @ A.T`` with ``syrk``, so it is
    exactly symmetric."""
    v = x.values
    g = v @ v.T
    g /= v.shape[1]
    return g


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of ``v`` after scaling each row in place
    by the power of two that brings its peak magnitude into [1/2, 1), so no
    square overflows or underflows to 0 (safe scaling: Blue, ACM TOMS 1978).
    Exact: ``v / norms`` then has the bits of the unscaled rows over their
    norms wherever those stay in range.  Squares ``_NORM_ROWS`` rows at a time."""
    peak = np.maximum(v.max(axis=1), -v.min(axis=1))
    zero = peak == 0.0
    if zero.any():
        raise DegenerateInputError(f"row {int(np.argmax(zero))} has zero norm")
    shift = -np.frexp(peak)[1]
    norms = np.empty(v.shape[0])
    for a in range(0, v.shape[0], _NORM_ROWS):
        b = v[a : a + _NORM_ROWS]
        np.ldexp(b, shift[a : a + _NORM_ROWS, None], out=b)
        np.sqrt(np.add.reduce(b * b, axis=1), out=norms[a : a + _NORM_ROWS])
    return norms


def sample_correlation(x: DataMatrix) -> np.ndarray:
    """Correlation matrix ``Y @ Y.T`` with the diagonal pinned to exactly 1.

    Consumes ``x``: each row of ``x.values`` is divided by its Euclidean
    norm in place, so ``x.values`` holds ``Y`` afterwards.  Rows are scaled
    by powers of two first (``_row_norms``), so ``R`` is the same at any row
    scale.  An all-zero row is an error naming the first such row and
    leaves ``x`` as it was.
    """
    y = x.values
    y /= _row_norms(y)[:, None]
    r = y @ y.T
    np.fill_diagonal(r, 1.0)
    return r


def log_det_spd(m: np.ndarray) -> float:
    """Log-determinant of a symmetric positive definite matrix via Cholesky.

    Reads the upper triangle of ``m`` only; numpy forms ``A @ A.T``
    exactly symmetric, so for the Gram matrices of this module both
    triangles hold the same entries.  A C-ordered float ``m`` is consumed:
    it is its own Fortran-ordered transpose, so ``dpotrf`` factors it in
    place with no copy.  Any other ``m``, or a read-only one, is copied
    first and left as it was.

    Raises :class:`NotPositiveDefiniteError` carrying the 1-based pivot
    index when a non-positive pivot is hit; callers decide policy (for a
    correlation matrix with p < n this signals a numerical breakdown).
    """
    # dpotrf overwrites its input even when numpy marks it read-only
    a = np.require(m, dtype=float, requirements="W")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParameterDomainError("log_det_spd needs a square matrix")
    c, info = lapack.dpotrf(a.T, lower=1, overwrite_a=1)
    if info > 0:
        raise NotPositiveDefiniteError(pivot=int(info))
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return float(2.0 * np.sum(np.log(np.diag(c))))
