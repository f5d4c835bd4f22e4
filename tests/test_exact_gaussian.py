"""Exact finite-(p, n) gate on the simulated log-determinants.

For i.i.d. Gaussian entries the self-normalized rows are uniform on the
sphere, so the squared distance of row i to the span of rows 0..i-1 is
Beta((n-i)/2, i/2), independently over i, and

    log det R = sum_{i=1}^{p-1} log Beta((n-i)/2, i/2),

whose r-th cumulant is ``sum_i [psi^(r-1)((n-i)/2) - psi^(r-1)(n/2)]``.  For
the covariance statistic ``n^p det S = prod_{i<p} chi2_{n-i}`` (Bartlett
decomposition), and ``log chi2_k`` has cumulants ``psi(k/2) + log 2`` and
``psi^(r-1)(k/2)`` for r >= 2.  Neither law leans on asymptotics, so the
mean and variance of ``report.logdet_raw`` are gated against exact values,
with standard errors taken from the exact cumulants.
"""

import math

import numpy as np
import pytest
from scipy.special import digamma, polygamma

from corrlogdet import ExperimentConfig, TailLaw, run_simulation

# Fixed before the first run; a failure is a finding, not a seed to change.
P, N, REPS, SEED, K_SE = 100, 400, 2000, 0, 4.0


def _exact_cumulants(p: int, n: int, statistic: str) -> tuple[float, float, float]:
    """First, second and fourth cumulants of the Gaussian log-determinant."""
    if statistic == "corr_logdet":
        half = (n - np.arange(1, p)) / 2.0
        kappa = [
            float(np.sum(polygamma(r - 1, half) - polygamma(r - 1, n / 2.0)))
            for r in (1, 2, 4)
        ]
        return kappa[0], kappa[1], kappa[2]
    half = (n - np.arange(p)) / 2.0
    mean = float(np.sum(digamma(half))) + p * math.log(2.0) - p * math.log(n)
    return mean, float(np.sum(polygamma(1, half))), float(np.sum(polygamma(3, half)))


def _z_scores(values: np.ndarray, p: int, n: int, statistic: str) -> tuple[float, float]:
    """Mean and variance errors in units of their exact standard errors.

    The unbiased sample variance of m draws has variance
    ``kappa4 / m + 2 kappa2^2 / (m - 1)``.
    """
    k1, k2, k4 = _exact_cumulants(p, n, statistic)
    m = values.size
    se_mean = math.sqrt(k2 / m)
    se_var = math.sqrt(k4 / m + 2.0 * k2**2 / (m - 1))
    return (float(values.mean()) - k1) / se_mean, (float(values.var(ddof=1)) - k2) / se_var


@pytest.mark.parametrize("statistic", ["corr_logdet", "cov_logdet"])
def test_exact_oracle_matches_its_own_sampler(statistic):
    # the cumulant bookkeeping against direct Beta / chi-square draws
    p, n, m = 6, 15, 200_000
    rng = np.random.default_rng(1)
    if statistic == "corr_logdet":
        i = np.arange(1, p)
        draws = np.log(rng.beta((n - i) / 2.0, i / 2.0, size=(m, p - 1))).sum(axis=1)
    else:
        draws = np.log(rng.chisquare(n - np.arange(p), size=(m, p))).sum(axis=1) - p * math.log(n)
    z_mean, z_var = _z_scores(draws, p, n, statistic)
    assert abs(z_mean) <= K_SE and abs(z_var) <= K_SE


@pytest.mark.parametrize("statistic", ["corr_logdet", "cov_logdet"])
def test_gaussian_logdet_matches_exact_moments(statistic):
    cfg = ExperimentConfig(
        law=TailLaw.gaussian(), p=P, n=N, reps=REPS, seed=SEED, statistic=statistic
    )
    report = run_simulation(cfg)
    assert report.n_flagged == 0
    z_mean, z_var = _z_scores(report.logdet_raw, P, N, statistic)
    assert abs(z_mean) <= K_SE, z_mean
    assert abs(z_var) <= K_SE, z_var
