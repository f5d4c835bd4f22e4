"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Statistical criteria run at the stated sizes with the fixed neutral seed 0;
identity criteria run in exact rational arithmetic.  Criterion 9's window
clause is asserted exactly as stated and marked strict-xfail: the exact
pair-moment normalization pins n^2 * b22 = n/(n-1) * (1 - n*b4), which
is 0.833 for Gaussian entries at n=10 and ~0.74 for t(3.5), outside the
required (0.9, 1.1) for any entry law at that size.
"""

import functools
import math
import time

import pytest

import corrlogdet as cl
from corrlogdet.verify import (
    certify_enumeration_equivalence,
    certify_sphere_identities,
    certify_zero_sum,
    verify_girko,
)
from mc_table import mc_moment_table
from reference import stirling_gap

SEED = 0


def _line(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {criterion}: {detail}")


def _simulate(law, p, n, reps, statistic="corr_logdet", seed=SEED):
    cfg = cl.ExperimentConfig(law=law, p=p, n=n, reps=reps, seed=seed, statistic=statistic)
    return cl.run_simulation(cfg)


def test_criterion_01_exact_identity_suite():
    start = time.perf_counter()
    identities = certify_sphere_identities((3, 4, 5, 6), vectors=50, seed=101)
    zero_sum = certify_zero_sum(seed=102)
    elapsed = time.perf_counter() - start
    ok = identities.passed and zero_sum.passed and elapsed <= 120.0
    _line(
        "1 exact identities",
        ok,
        f"rational residuals all zero={identities.passed}, "
        f"float zero-sum max within 1e-10={zero_sum.passed}, runtime {elapsed:.1f}s",
    )
    assert identities.passed, "\n".join(identities.lines())
    assert zero_sum.passed, "\n".join(zero_sum.lines())
    assert elapsed <= 120.0


def test_criterion_02_oracle_equivalence():
    start = time.perf_counter()
    report = certify_enumeration_equivalence((3, 4, 5), trials=20, seed=103)
    elapsed = time.perf_counter() - start
    ok = report.passed and elapsed <= 300.0
    _line(
        "2 oracle equivalence",
        ok,
        f"all formulas equal brute-force enumeration exactly={report.passed}, "
        f"runtime {elapsed:.1f}s",
    )
    assert report.passed, "\n".join(report.lines())
    assert elapsed <= 300.0


def test_criterion_03_girko_cholesky_agreement():
    start = time.perf_counter()
    report = verify_girko(cases=200, seed=104)
    elapsed = time.perf_counter() - start
    ok = report.passed and elapsed <= 180.0
    _line("3 recursion vs Cholesky", ok, f"200 cases, runtime {elapsed:.1f}s")
    assert report.passed, "\n".join(report.lines())
    assert elapsed <= 180.0


@pytest.mark.parametrize("df", [3.5, 3.9])
def test_criterion_04_clt_reproduction(df):
    report = _simulate(cl.TailLaw.student_t(df), 250, 500, 2000)
    s = report.summary
    ok = (
        -0.1 < s.mean < 0.1
        and 0.85 < s.variance < 1.15
        and report.ks.p_value > 0.01
        and report.n_flagged == 0
    )
    _line(
        f"4 limit law t({df})",
        ok,
        f"mean={s.mean:+.4f} variance={s.variance:.4f} ks_p={report.ks.p_value:.4g}",
    )
    assert -0.1 < s.mean < 0.1
    assert 0.85 < s.variance < 1.15
    assert report.ks.p_value > 0.01
    assert report.n_flagged == 0


def test_criterion_05a_breakdown_infinite_third_moment():
    report = _simulate(cl.TailLaw.student_t(2.5), 250, 500, 2000)
    s = report.summary
    ok = s.variance > 1.3 and report.n_flagged == 0
    _line("5a t(2.5) inflated variance", ok, f"variance={s.variance:.4f} (> 1.3 required)")
    assert s.variance > 1.3
    assert report.n_flagged == 0


def test_criterion_05b_breakdown_asymmetry():
    report = _simulate(cl.TailLaw.inverse_gamma(3.5, 2.0, centered=True), 250, 500, 2000)
    ok = report.ks.p_value < 0.01
    _line(
        "5b asymmetric entries rejected",
        ok,
        f"ks_p={report.ks.p_value:.4g} (< 0.01 required), variance={report.summary.variance:.4f}",
    )
    assert report.ks.p_value < 0.01
    assert report.n_flagged == 0


def test_criterion_06_covariance_law():
    report = _simulate(cl.TailLaw.gaussian(), 100, 400, 2000, statistic="cov_logdet")
    ok = report.ks.p_value > 0.01
    _line(
        "6 covariance log-det law",
        ok,
        f"ks_p={report.ks.p_value:.4g} mean={report.summary.mean:+.4f} "
        f"variance={report.summary.variance:.4f}",
    )
    assert report.ks.p_value > 0.01
    assert report.n_flagged == 0
    assert sum(report.histogram["counts"]) == 2000 - report.n_flagged


def test_criterion_07_scaled_moment_asymptotics():
    law = cl.TailLaw.symmetric_pareto(3.5)
    rows = cl.convergence_diagnostic(law, (2,), [8000], reps=100000, rng=cl.RngStream(SEED))
    ratio = rows[0].ratio
    ok = 0.8 <= ratio <= 1.2
    _line(
        "7a scaled pair moment",
        ok,
        f"n=8000 ratio={ratio:.4f} estimate={rows[0].estimate:.4f} limit={rows[0].limit:.4f}",
    )
    assert 0.8 <= ratio <= 1.2

    exact = True
    for check_law in (law, cl.TailLaw.student_t(3.5), cl.TailLaw.inverse_gamma(3.5, 2.0)):
        unit = cl.convergence_diagnostic(check_law, (1,), [500], reps=2000, rng=cl.RngStream(SEED))
        exact = exact and unit[0].ratio == 1.0
    _line("7b unit-exponent moment exact", exact, "n * b2 = 1 exactly for every law")
    assert exact


def test_criterion_08_stirling_identity():
    gap_1000 = stirling_gap(500, 1000)
    gap_2000 = stirling_gap(1000, 2000)
    ok = abs(gap_1000) <= 5e-3 and abs(gap_2000) < abs(gap_1000)
    _line(
        "8 finite-size centering gap",
        ok,
        f"|gap(n=1000)|={abs(gap_1000):.2e} |gap(n=2000)|={abs(gap_2000):.2e}",
    )
    assert abs(gap_1000) <= 5e-3
    assert abs(gap_2000) < abs(gap_1000)


@functools.lru_cache(maxsize=1)
def _bridge_table():
    return mc_moment_table(cl.TailLaw.student_t(3.5), n=10, reps=10**6, rng=cl.RngStream(SEED))


def test_criterion_09_moment_bridge_identity():
    n = 10
    tab, tab_se = _bridge_table()
    residual = abs(float(n * tab.get(4) + n * (n - 1) * tab.get(2, 2) - 1.0))
    # the row estimators satisfy the normalization identically; the bound is
    # the floating-point floor, far below any Monte Carlo standard error
    se = math.hypot(n * tab_se[(4,)], n * (n - 1) * tab_se[(2, 2)])
    ok = residual <= max(5.0 * se, 1e-12)
    _line(
        "9a pair-moment normalization",
        ok,
        f"|1 - n*b4 - n(n-1)*b22| = {residual:.2e} (5 SE = {5 * se:.2e})",
    )
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="exact normalization forces n^2*b22 = n/(n-1)*(1-n*b4) which is "
    "0.833 for Gaussian and ~0.74 for t(3.5) at n=10; the (0.9, 1.1) window "
    "cannot hold at this size for any entry law",
)
def test_criterion_09_pair_moment_window():
    n = 10
    tab, tab_se = _bridge_table()
    value = n * n * tab.get(2, 2)
    ok = 0.9 < value < 1.1
    _line(
        "9b pair-moment window",
        ok,
        f"n^2*b22 = {value:.4f} (se {n * n * tab_se[(2, 2)]:.1e}), stated window (0.9, 1.1)",
    )
    assert 0.9 < value < 1.1


def test_criterion_10_thread_count_determinism(monkeypatch):
    cfg = cl.ExperimentConfig(
        law=cl.TailLaw.gaussian(), p=100, n=400, reps=2000, seed=SEED, statistic="cov_logdet"
    )
    monkeypatch.setenv("THREADS", "1")
    serial = cl.statistics_csv(cl.run_simulation(cfg))
    monkeypatch.setenv("THREADS", "8")
    threaded = cl.statistics_csv(cl.run_simulation(cfg))
    ok = serial == threaded
    _line("10 scheduler determinism", ok, "statistics CSV byte-identical on 1 and 8 threads")
    assert ok
