import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from corrlogdet import cltstats
from corrlogdet import (
    ParameterDomainError,
    ks_test,
    standardize_cov,
    summary_moments,
)
from reference import corr_law, stirling_gap


def test_constants_at_half_ratio():
    mu, sigma2 = corr_law(500, 1000)
    assert mu == pytest.approx(-499.5 * math.log(0.5) - 499.5, rel=1e-12)
    assert mu == pytest.approx(-153.273, abs=5e-4)
    assert sigma2 == pytest.approx(2.0 * math.log(2.0) - 1.0, rel=1e-12)
    assert cltstats._c_n(500, 1000) < 0.0


def test_standardize_cov_at_fourth_moment_one_is_the_correlation_law():
    # the correlation law is the covariance law at beta = -2
    mu, sigma2 = corr_law(200, 500)
    assert standardize_cov(mu, 200, 500, 1.0) == 0.0
    assert standardize_cov(mu + math.sqrt(sigma2), 200, 500, 1.0) == pytest.approx(1.0)


def test_standardize_cov_correlation_domain():
    with pytest.raises(ParameterDomainError):
        standardize_cov(0.0, 500, 500, 1.0)
    with pytest.raises(ParameterDomainError):
        standardize_cov(0.0, 0, 500, 1.0)


def test_standardize_cov_gaussian_reduction():
    # with fourth moment 3 the covariance constants differ from the
    # correlation ones only by the p/n centering shift and the 2p/n variance
    p, n = 100, 400
    mu, sigma2 = corr_law(p, n)
    ratio = p / n
    cov_center = mu - ratio  # (p-n+1/2)log(1-g) - p
    z = standardize_cov(cov_center, p, n, 3.0)
    assert z == pytest.approx(0.0, abs=1e-12)
    one_sigma = math.sqrt(-2.0 * math.log1p(-ratio))
    assert standardize_cov(cov_center + one_sigma, p, n, 3.0) == pytest.approx(1.0)
    assert -2.0 * math.log1p(-ratio) == pytest.approx(sigma2 + 2.0 * ratio)


def test_standardize_cov_fourth_moment_terms():
    # fourth moment 4 (beta = 1) at p = 100, n = 400, by hand:
    # mu = (p - n + 1/2) log(3/4) - p - beta p/(2n) = -299.5 log(3/4) - 100.125
    #    = -13.964219300691612,
    # sigma^2 = -2 log(3/4) + beta p/n = 0.8253641449035619
    p, n = 100, 400
    assert standardize_cov(-13.964219300691612, p, n, 4.0) == pytest.approx(0.0, abs=1e-12)
    # -mu / sigma
    assert standardize_cov(0.0, p, n, 4.0) == pytest.approx(15.370707611462597, rel=1e-12)


def test_standardize_cov_guards():
    with pytest.raises(ParameterDomainError):
        standardize_cov(0.0, 100, 400, 0.5)
    with pytest.raises(ParameterDomainError):
        standardize_cov(0.0, 400, 400, 3.0)


def test_stirling_gap_small_p():
    for n in range(2, 50):
        assert abs(stirling_gap(1, n)) < 0.51
    assert abs(stirling_gap(1, 10**6)) < 1e-5


def test_stirling_gap_half_ratio():
    assert abs(stirling_gap(500, 1000)) < 5e-3
    assert abs(stirling_gap(1000, 2000)) < abs(stirling_gap(500, 1000))


def test_stirling_gap_scaled_stays_bounded():
    values = [n * abs(stirling_gap(n // 2, n)) for n in (200, 400, 1000, 2000, 4000)]
    assert max(values) < 0.25


def test_ks_statistic_on_quantile_grid():
    m = 1000
    samples = special.ndtri((np.arange(1, m + 1) - 0.5) / m)
    result = ks_test(samples)
    assert result.statistic <= 1.0 / (2 * m) + 1e-6


def test_ks_matches_scipy():
    rng = np.random.default_rng(0)
    x = rng.normal(size=500)
    ours = ks_test(x)
    ref = stats.kstest(x, "norm", mode="asymp")
    assert ours.statistic == pytest.approx(ref.statistic, abs=1e-12)
    assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-8)


@pytest.mark.parametrize("shift", [-0.5, 0.5])
def test_ks_matches_scipy_on_either_side(shift):
    # a shift up puts the largest gap below the normal cdf (D-), a shift
    # down above it (D+)
    x = np.random.default_rng(3).normal(size=300) + shift
    ours = ks_test(x)
    ref = stats.kstest(x, "norm", mode="asymp")
    assert ref.statistic_sign == (-1 if shift > 0 else 1)
    assert ours.statistic == pytest.approx(ref.statistic, abs=1e-12)
    assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-8)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=8, max_value=400))
def test_ks_ignores_sample_order(seed, m):
    rng = np.random.default_rng(seed)
    x = rng.standard_t(df=3.5, size=m)
    assert ks_test(rng.permutation(x)) == ks_test(x)


def test_ks_calibration_under_null():
    rng = np.random.default_rng(1)
    rejected = 0
    seeds = 300
    for _ in range(seeds):
        x = rng.normal(size=2000)
        if ks_test(x).p_value <= 0.001:
            rejected += 1
    assert rejected <= 3


def test_ks_power_against_inflated_scale():
    rng = np.random.default_rng(2)
    x = 1.5 * rng.normal(size=2000)
    assert ks_test(x).p_value < 0.001


def test_ks_needs_samples():
    with pytest.raises(ParameterDomainError):
        ks_test([0.0] * 7)


def test_summary_moments_constant():
    s = summary_moments([2.5] * 64)
    assert s.variance == 0.0
    assert s.mean == 2.5


def test_summary_moments_gaussian_calibration():
    rng = np.random.default_rng(3)
    x = rng.normal(size=10**5)
    s = summary_moments(x)
    assert abs(s.variance - 1.0) <= 5.0 * s.se_variance
    assert abs(s.mean) <= 5.0 * s.se_mean
    assert abs(s.skewness) <= 5.0 * s.se_skewness
    assert abs(s.excess_kurtosis) <= 5.0 * s.se_kurtosis


def test_summary_moments_skewed_law():
    rng = np.random.default_rng(4)
    x = rng.exponential(size=10**5)
    s = summary_moments(x)
    assert s.skewness == pytest.approx(2.0, abs=0.15)
    assert s.excess_kurtosis == pytest.approx(6.0, abs=1.0)


def test_summary_moments_kurtosis_is_the_unbiased_estimator():
    x = np.array([0.3, -1.2, 2.5, 0.1, -0.4, 1.7, -2.2, 0.9, 3.1, -0.6])
    s = summary_moments(x)
    assert s.skewness == pytest.approx(stats.skew(x, bias=False), abs=1e-12)
    assert s.excess_kurtosis == pytest.approx(stats.kurtosis(x, bias=False), abs=1e-12)


@pytest.mark.parametrize("m", [64, 200])
def test_summary_moments_standard_errors_come_from_array_split_batches(m):
    x = np.random.default_rng(m).standard_t(5.0, size=m)
    batches = np.array_split(x, max(2, min(16, m // 4)))
    per_batch = np.array(
        [(b.mean(), b.var(ddof=1), stats.skew(b, bias=False), stats.kurtosis(b, bias=False)) for b in batches]
    )
    expected = np.std(per_batch, axis=0, ddof=1) / math.sqrt(len(batches))
    s = summary_moments(x)
    got = [s.se_mean, s.se_variance, s.se_skewness, s.se_kurtosis]
    np.testing.assert_allclose(got, expected, rtol=1e-10)


def test_summary_moments_needs_samples():
    with pytest.raises(ParameterDomainError):
        summary_moments([1.0, 2.0])
