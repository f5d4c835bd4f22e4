"""Reference forms for the tests, written from the paper's formulas and
plain numpy rather than from the library code they check."""

import math

import numpy as np


def unit_rows(x) -> np.ndarray:
    """Rows of the data matrix ``x`` divided by their Euclidean norms; ``x``
    is left as it was.  Bit for bit the rows that ``sample_correlation``
    leaves in its argument, as ``test_block_row_norms_match_linalg_norm``
    checks."""
    v = x.values
    return v / np.linalg.norm(v, axis=1)[:, None]


def corr_law(p: int, n: int) -> tuple[float, float]:
    """Centering ``(p - n + 1/2) log(1 - p/n) - p + p/n`` and variance
    ``-2 log(1 - p/n) - 2 p/n`` of the correlation log-determinant law."""
    ratio = p / n
    mu = (p - n + 0.5) * math.log1p(-ratio) - p + ratio
    return mu, -2.0 * math.log1p(-ratio) - 2.0 * ratio


def stirling_gap(p: int, n: int) -> float:
    """Finite-n defect ``(p-n-1/2) log(1-p/n) - p - sum_{i<p} log(1-i/n)``.

    Exactly the mismatch between the correlation-law centering, the
    combinatorial constant of the sequential decomposition, and the
    aggregated step variance; it is O(1/n) at a fixed aspect ratio.
    """
    return (p - n - 0.5) * math.log1p(-p / n) - p - float(np.sum(np.log1p(-np.arange(p) / n)))
