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


@dataclass(frozen=True)
class DataMatrix:
    """Dense p-by-n data matrix; rows are variables, columns observations."""

    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ParameterDomainError("data matrix must be 2-D and nonempty")
        finite = np.isfinite(v)
        if not finite.all():
            i, j = np.unravel_index(np.argmin(finite), v.shape)
            raise ParameterDomainError(
                f"data matrix entries must be finite; row {i}, column {j} is {v[i, j]}"
            )
        object.__setattr__(self, "values", v)

    @property
    def p(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


def sample_covariance(x: DataMatrix) -> np.ndarray:
    """``X @ X.T / n``; numpy forms ``A @ A.T`` with ``syrk``, so it is
    exactly symmetric."""
    v = x.values
    return v @ v.T / x.n


def self_normalize(x: DataMatrix) -> np.ndarray:
    """Divide each row by its Euclidean norm; zero rows are an error."""
    v = x.values
    norms = np.linalg.norm(v, axis=1)
    if np.any(norms == 0.0):
        bad = int(np.argmin(norms))
        raise DegenerateInputError(f"row {bad} has zero norm")
    return v / norms[:, None]


def sample_correlation(x: DataMatrix) -> np.ndarray:
    """Correlation matrix ``Y @ Y.T`` with the diagonal pinned to exactly 1."""
    y = self_normalize(x)
    r = y @ y.T
    np.fill_diagonal(r, 1.0)
    return r


def log_det_spd(m: np.ndarray) -> float:
    """Log-determinant of a symmetric positive definite matrix via Cholesky.

    Raises :class:`NotPositiveDefiniteError` carrying the 1-based pivot
    index when a non-positive pivot is hit; callers decide policy (for a
    correlation matrix with p < n this signals a numerical breakdown).
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParameterDomainError("log_det_spd needs a square matrix")
    c, info = lapack.dpotrf(a, lower=1, overwrite_a=0)
    if info > 0:
        raise NotPositiveDefiniteError(pivot=int(info))
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return float(2.0 * np.sum(np.log(np.diag(c))))
