import math

import pytest
from scipy import stats

from corrlogdet import (
    MomentLimitQuery,
    ParameterDomainError,
    RngStream,
    TailLaw,
    convergence_diagnostic,
    moment_limit,
    standardized_tail_constant,
)
from corrlogdet.tail_limits import diagnostic_csv
from mc_table import mc_moment_table


def moment_limit_single(alpha: float, k: int) -> float:
    """Single-exponent limit, written independently of the general formula:
    ``alpha * Gamma(alpha/2) * Gamma(k - alpha/2) / (2 * Gamma(k))`` for
    k >= 2.  For k = 1 the sphere constraint gives exactly 1."""
    if k == 1:
        return 1.0
    return alpha * math.gamma(alpha / 2.0) * math.gamma(k - alpha / 2.0) / (2.0 * math.gamma(k))


def test_known_value_alpha3_k2():
    assert moment_limit(MomentLimitQuery(3.0, (2,))) == pytest.approx(3.0 * math.pi / 4.0, rel=1e-12)


def test_single_exponent_specialization_agrees():
    for alpha in (2.2, 2.9, 3.5, 3.9):
        for k in (2, 3, 4):
            general = moment_limit(MomentLimitQuery(alpha, (k,)))
            direct = moment_limit_single(alpha, k)
            assert general == pytest.approx(direct, rel=1e-12)


def test_unit_exponents_have_unit_limit():
    for alpha in (2.5, 3.5):
        for r in (1, 2, 3, 4):
            q = MomentLimitQuery(alpha, (1,) * r)
            assert q.scaling_exponent == pytest.approx(r)
            assert moment_limit(q) == pytest.approx(1.0, rel=1e-12)
    assert moment_limit_single(3.1, 1) == 1.0


def test_scaling_exponent_counts_units():
    q = MomentLimitQuery(3.5, (2, 1))
    assert q.unit_count == 1
    assert q.r == 2
    assert q.scaling_exponent == pytest.approx(1 * (1 - 1.75) + 2 * 1.75)


def test_limits_positive_and_finite():
    for alpha in (2.1, 3.0, 3.9):
        for exps in ((2,), (3,), (4,), (2, 2), (2, 1), (2, 2, 1)):
            v = moment_limit(MomentLimitQuery(alpha, exps))
            assert math.isfinite(v) and v > 0


def test_domain_errors():
    with pytest.raises(ParameterDomainError):
        MomentLimitQuery(4.0, (2,))
    with pytest.raises(ParameterDomainError):
        MomentLimitQuery(2.0, (2,))
    with pytest.raises(ParameterDomainError):
        MomentLimitQuery(3.0, (0,))


def test_gaussian_law_rejected():
    with pytest.raises(ParameterDomainError):
        convergence_diagnostic(TailLaw.gaussian(), (2,), [100], reps=2000, rng=RngStream(0))


def test_tail_constant_pareto():
    law = TailLaw.symmetric_pareto(3.5)
    expected = (3.5 / 1.5) ** (-3.5 / 2.0)
    assert standardized_tail_constant(law) == pytest.approx(expected, rel=1e-12)


def test_tail_constant_student_t():
    df = 3.5
    law = TailLaw.student_t(df)
    # raw tail constant checked against the exact survival function far out
    x = 1e4
    raw = 2.0 * stats.t(df).sf(x) * x**df
    sigma2 = df / (df - 2.0)
    assert standardized_tail_constant(law) == pytest.approx(raw * sigma2 ** (-df / 2), rel=1e-5)


def test_unit_exponent_diagnostic_is_exact():
    for law in (TailLaw.symmetric_pareto(3.5), TailLaw.student_t(3.5)):
        rows = convergence_diagnostic(law, (1,), [50, 200], reps=2000, rng=RngStream(1))
        assert all(row.ratio == 1.0 for row in rows)
        assert all(row.estimate == 1.0 for row in rows)


def test_pair_bridge_identity_exact_in_estimator():
    # n * (1 - n(n-1) * b22_hat) equals n^2 * b4_hat by construction of the
    # row estimators, mirroring the sphere recursion
    n = 40
    tab, _ = mc_moment_table(TailLaw.symmetric_pareto(3.5), n=n, reps=20000, rng=RngStream(2))
    lhs = n * (1.0 - n * (n - 1) * tab.get(2, 2))
    rhs = n * n * tab.get(4)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_pareto_scaled_moment_approaches_limit():
    law = TailLaw.symmetric_pareto(3.5)
    rows = convergence_diagnostic(law, (2,), [200, 1600], reps=30000, rng=RngStream(3))
    assert all(0.6 < row.ratio < 1.05 for row in rows)
    assert abs(rows[1].ratio - 1.0) < abs(rows[0].ratio - 1.0)


def test_diagnostic_csv_format():
    law = TailLaw.symmetric_pareto(3.5)
    rows = convergence_diagnostic(law, (1,), [64], reps=2000, rng=RngStream(4))
    text = diagnostic_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "n,estimate,limit,ratio,mom_blocks"
    assert lines[1].startswith("64,1.0,")
