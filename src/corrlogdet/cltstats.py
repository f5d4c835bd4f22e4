"""Centering and scaling for the log-determinant limit laws, plus
normal goodness-of-fit utilities.

For the covariance matrix S = X X'/n of variance-one entries, with
beta = E X^4 - 3,

    (log det S - mu) / sigma,   mu = (p - n + 1/2) log(1 - p/n) - p - beta p / (2n),
                                sigma^2 = -2 log(1 - p/n) + beta p/n

(Bai & Silverstein, Ann. Probab. 32, 2004, for f = log, with the beta terms
of their book, 2nd ed., 2010, ch. 9; at p = 1, E log S = -(2 + beta)/(2n)
to leading order fixes the sign of the beta term).  The law of log det R,
for the correlation matrix, is this law at beta = -2 (E X^4 = 1) whatever
the entries' law: mu ends in + p/n, and sigma^2 = -2 log(1 - p/n) - 2 p/n.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np
from scipy import special

from .errors import ParameterDomainError


def _check_shape(p: int, n: int) -> None:
    if not 0 < p < n:
        raise ParameterDomainError(f"need 0 < p < n, got p={p}, n={n}")


def _c_n(p: int, n: int) -> float:
    """Combinatorial constant ``c_n = sum_{j<p} log(1 - j/n)`` of the
    sequential decomposition; defined for ``p <= n``."""
    return float(np.sum(np.log1p(-np.arange(p) / n)))


def standardize_corr(logdet_r: np.ndarray, p: int, n: int) -> np.ndarray:
    """Standardized correlation log-determinants (asymptotically N(0,1)): the
    covariance law at fourth moment 1, to the bit (0.5 * -2.0 is -1.0)."""
    return standardize_cov(logdet_r, p, n, 1.0)


def standardize_cov(logdet_s: np.ndarray, p: int, n: int, fourth_moment: float) -> np.ndarray:
    """Standardized covariance log-determinants for variance-one entries.

    ``fourth_moment`` is E[X^4] of the (variance-one) entry; the variance
    expression can turn non-positive for fourth moments below 3 at extreme
    aspect ratios, which is surfaced as a domain error rather than a NaN.
    """
    _check_shape(p, n)
    if not fourth_moment >= 1.0:
        raise ParameterDomainError("fourth moment must be >= 1 for unit-variance entries")
    ratio = p / n
    excess = fourth_moment - 3.0
    centering = (p - n + 0.5) * math.log1p(-ratio) - p - 0.5 * excess * ratio
    variance = -2.0 * math.log1p(-ratio) + excess * ratio
    if not variance > 0.0:
        raise ParameterDomainError(
            f"non-positive limit variance {variance:.3e} at p/n={ratio:.3f}"
        )
    return (logdet_s - centering) / math.sqrt(variance)


class KsResult(NamedTuple):
    statistic: float
    p_value: float


def ks_test(samples: Sequence[float]) -> KsResult:
    """Two-sided Kolmogorov-Smirnov test against the standard normal.

    Uses the asymptotic p-value (adequate at the replication counts this
    package runs); needs at least 8 samples.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    m = x.size
    if m < 8:
        raise ParameterDomainError("KS test needs at least 8 samples")
    cdf = special.ndtr(x)
    grid = np.arange(1, m + 1) / m
    d_plus = float(np.max(grid - cdf))
    d_minus = float(np.max(cdf - (grid - 1.0 / m)))
    stat = max(d_plus, d_minus)
    return KsResult(statistic=stat, p_value=float(special.kolmogorov(math.sqrt(m) * stat)))


class SummaryMoments(NamedTuple):
    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float
    se_mean: float
    se_variance: float
    se_skewness: float
    se_kurtosis: float


def _moments_of(x: np.ndarray) -> tuple[float, float, float, float]:
    m = x.size
    mean = float(np.mean(x))
    d = x - mean
    m2 = float(np.mean(d**2))
    m3 = float(np.mean(d**3))
    m4 = float(np.mean(d**4))
    variance = m2 * m / (m - 1)
    if m2 > 0:
        # summary_moments passes at least 4 values
        skew = math.sqrt(m * (m - 1)) / (m - 2) * (m3 / m2**1.5)
        kurt = (m - 1) / ((m - 2) * (m - 3)) * ((m + 1) * (m4 / m2**2 - 3.0) + 6.0)
    else:
        skew = 0.0
        kurt = 0.0
    return mean, variance, skew, kurt


def summary_moments(samples: Sequence[float]) -> SummaryMoments:
    """Unbiased-style mean/variance/skewness/excess-kurtosis estimates with
    standard errors from up to 16 batch means."""
    x = np.asarray(samples, dtype=float)
    if x.size < 8:
        raise ParameterDomainError("summary moments need at least 8 samples")
    mean, variance, skew, kurt = _moments_of(x)
    b = max(2, min(16, x.size // 4))
    splits = np.array_split(x, b)
    stats = np.array([_moments_of(chunk) for chunk in splits])
    se = np.std(stats, axis=0, ddof=1) / math.sqrt(b)
    return SummaryMoments(
        mean=mean,
        variance=variance,
        skewness=skew,
        excess_kurtosis=kurt,
        se_mean=float(se[0]),
        se_variance=float(se[1]),
        se_skewness=float(se[2]),
        se_kurtosis=float(se[3]),
    )
