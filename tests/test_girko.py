import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrlogdet import cltstats, girko
from corrlogdet import (
    ParameterDomainError,
    RngStream,
    SingularStepError,
    TailLaw,
    fill_matrix,
    girko_log_det,
    log_det_spd,
    sample_correlation,
)
from corrlogdet.blas import single_blas_thread
from dense_projector import dense_audit, dense_projectors, dense_q
from mc_table import mc_moment_table
from reference import corr_law, unit_rows


def _random_rows(p, n, seed, law=None):
    law = law or TailLaw.gaussian()
    return unit_rows(fill_matrix(law, p + 1, n, RngStream(seed)))


def test_single_row_trace():
    y = unit_rows(fill_matrix(TailLaw.student_t(3.5), 1, 12, RngStream(0)))
    trace = girko_log_det(y)
    assert trace.c_n == 0.0
    assert abs(trace.z_tilde[0]) < 1e-12
    assert abs(trace.log_det) < 1e-12


def test_orthonormal_two_by_two():
    trace = girko_log_det(np.eye(2))
    assert trace.c_n == pytest.approx(-math.log(2.0))
    assert trace.z_tilde[0] == pytest.approx(0.0, abs=1e-15)
    assert trace.z_tilde[1] == pytest.approx(1.0)
    assert trace.log_det == pytest.approx(0.0, abs=1e-14)


def test_matches_cholesky_gaussian():
    x = fill_matrix(TailLaw.gaussian(), 5, 20, RngStream(1))
    trace = girko_log_det(unit_rows(x))
    chol = log_det_spd(sample_correlation(x))
    assert abs(trace.log_det - chol) <= 1e-9 * abs(chol)


@pytest.mark.parametrize("law", [TailLaw.gaussian(), TailLaw.student_t(3.5), TailLaw.symmetric_pareto(3.5)])
def test_matches_cholesky_random_cases(law):
    rng = np.random.default_rng(hash(law.family) % 2**32)
    for case in range(8):
        p = int(rng.integers(5, 60))
        n = int(round(p / rng.uniform(0.1, 0.9)))
        n = max(n, p + 1)
        x = fill_matrix(law, p, n, RngStream(2, case))
        trace = girko_log_det(unit_rows(x))
        chol = log_det_spd(sample_correlation(x))
        assert abs(trace.log_det - chol) <= 1e-8 * max(abs(chol), 1e-6)


@pytest.mark.parametrize(
    "law",
    [TailLaw.gaussian(), TailLaw.student_t(3.5), TailLaw.symmetric_pareto(3.5)],
    ids=lambda law: law.family,
)
def test_step_statistics_match_least_squares_oracle(law):
    # the residual of the least-squares fit of row i on rows 0..i-1 is its
    # distance to their span, so a defect in the recursion shows at its step
    p, n = 60, 120
    y = unit_rows(fill_matrix(law, p, n, RngStream(16)))
    rsq = np.empty(p)
    rsq[0] = y[0] @ y[0]
    for i in range(1, p):
        coef = np.linalg.lstsq(y[:i].T, y[i], rcond=None)[0]
        resid = y[i] - y[:i].T @ coef
        rsq[i] = resid @ resid
    m = n - np.arange(p)
    expected = (n * rsq - m) / m
    assert np.max(np.abs(girko_log_det(y).z_tilde - expected)) < 1e-12


def test_c_n_value():
    trace = girko_log_det(unit_rows(fill_matrix(TailLaw.gaussian(), 3, 9, RngStream(3))))
    expected = math.log(9 * 8 * 7) - 3 * math.log(9)
    assert trace.c_n == pytest.approx(expected, rel=1e-14)
    assert trace.c_n == pytest.approx(cltstats._c_n(3, 9), rel=1e-14)
    assert cltstats._c_n(3, 9) <= 0.0


def test_split_uv_step_zero():
    trace = girko_log_det(_random_rows(0, 25, 4))
    u, v = trace.u_part[0], trace.v_part[0]
    assert abs(u) < 1e-12
    assert abs(v) < 1e-12


def test_split_uv_basis_vector_row():
    n = 30
    rows = _random_rows(6, n, 5)[:6]
    e1 = np.zeros(n)
    e1[0] = 1.0
    trace = girko_log_det(np.vstack([rows, e1]))
    u, v = trace.u_part[6], trace.v_part[6]
    q11 = dense_q(rows, n)[0, 0]
    assert u == pytest.approx(q11 * (n - 1) - (1.0 - q11), abs=1e-12)
    assert v == pytest.approx(0.0, abs=1e-12)


def test_split_uv_against_dense_oracle():
    rows = _random_rows(12, 40, 6, TailLaw.student_t(3.5))
    y = rows[12]
    n = 40
    q = dense_q(rows[:12], n)
    u_direct = float(np.sum(np.diag(q) * (n * y * y - 1.0)))
    off = q - np.diag(np.diag(q))
    v_direct = float(n * y @ off @ y)
    trace = girko_log_det(rows)
    u, v = trace.u_part[12], trace.v_part[12]
    assert u == pytest.approx(u_direct, abs=1e-12)
    assert v == pytest.approx(v_direct, abs=1e-12)
    z_direct = float(n * y @ q @ y - 1.0)
    assert u + v == pytest.approx(z_direct, abs=1e-12)


def test_diag_power_sums_initial_state():
    n = 17
    sums = girko_log_det(_random_rows(3, n, 14)).power_sums[0]
    assert tuple(sums) == pytest.approx(tuple(n ** (1 - j) for j in range(1, 5)), rel=1e-14)


def test_diag_power_sums_against_dense_oracle():
    rows = _random_rows(10, 50, 7)
    q = dense_q(rows[:10], 50)
    dense_sums = tuple(float(np.sum(np.diag(q) ** j)) for j in range(1, 5))
    sums = tuple(girko_log_det(rows).power_sums[10])
    assert sums == pytest.approx(dense_sums, abs=1e-12)
    assert sums[0] == pytest.approx(1.0, abs=1e-12)
    # Jensen lower bound and max-entry upper bound on the second power sum
    n, i = 50, 10
    assert 1.0 - 1e-12 <= n * sums[1] <= n / (n - i) + 1e-12


def test_dense_q_matches_tracked_diagonal():
    # a basis-vector row e_k at step i reads out u = n q_kk - 1, so probing
    # every k recovers the whole diagonal the recursion tracks
    n = 30
    rows = _random_rows(9, n, 9)[:9]
    tracked = np.empty(n)
    for k, e_k in enumerate(np.eye(n)):
        tracked[k] = (girko_log_det(np.vstack([rows, e_k])).u_part[9] + 1.0) / n
    assert np.max(np.abs(np.diag(dense_q(rows, n)) - tracked)) < 1e-12


def test_duplicate_row_is_singular():
    row = np.zeros(10)
    row[:2] = [0.6, 0.8]
    with pytest.raises(SingularStepError) as err:
        girko_log_det(np.vstack([row, row]))
    assert err.value.step == 1


def test_rejects_more_rows_than_columns():
    with pytest.raises(ParameterDomainError):
        girko_log_det(np.vstack([np.eye(3), np.eye(3)]))


@pytest.mark.parametrize(
    "edits, step",
    [
        ([(2, 2, np.nan)], 2),
        ([(3, 0, np.inf)], 3),
        ([(1, slice(None), 0.0)], 1),
        ([(1, slice(None), 0.0), (3, 0, np.nan)], 1),
    ],
    ids=["nan", "inf", "zero_row", "zero_row_before_nan"],
)
def test_singular_step_reports_first_failing_row(edits, step):
    y = np.eye(6)[:4]
    for row, col, value in edits:
        y[row, col] = value
    with pytest.raises(SingularStepError) as err:
        girko_log_det(y)
    assert err.value.step == step


def test_trace_invariants():
    x = fill_matrix(TailLaw.student_t(3.5), 20, 60, RngStream(10))
    trace = girko_log_det(unit_rows(x))
    diag_min, diag_max, offdiag_max, trace_error = girko.audit_bounds(trace)
    assert np.max(np.abs(trace.u_part + trace.v_part - trace.z_tilde)) < 1e-10
    assert np.max(np.abs(trace.power_sums[:, 0] - 1.0)) < 1e-10
    assert np.max(trace_error) < 1e-10
    scale = 60 - np.arange(20)
    assert np.all(diag_min >= -1e-12)
    assert np.all(diag_max <= 1.0 / scale + 1e-12)
    assert np.all(offdiag_max <= 0.5 / scale + 1e-12)


@pytest.mark.parametrize(
    "p, n, blocks, law",
    [
        (40, 100, 1, TailLaw.gaussian()),  # n below one block's row count
        (60, 983, 15, TailLaw.student_t(3.5)),  # 14 blocks of 66 rows and one of 59
        (300, 300, 2, TailLaw.symmetric_pareto(3.5)),  # p == n
        (1, 50, 1, TailLaw.student_t(3.5)),  # p == 1
        (40, 571, 6, TailLaw.gaussian()),  # 5 blocks of 114 rows, then one 1x1 row
        (30, 2000, 63, TailLaw.student_t(3.5)),  # 62 blocks of 32 rows and one of 16
    ],
    ids=[
        "one_block",
        "partial_last_block",
        "p_equals_n",
        "single_row",
        "one_by_one_block",
        "verify_sized",
    ],
)
def test_blocked_audit_is_bit_identical_to_dense(p, n, blocks, law):
    rows = max(1, girko._AUDIT_BLOCK_ENTRIES // n)
    assert -(-n // rows) == blocks
    y = unit_rows(fill_matrix(law, p, n, RngStream(17)))
    with single_blas_thread():
        audited = girko.audit_bounds(girko_log_det(y))
        expected = dense_audit(y)
    for k, name in enumerate(("diag_min", "diag_max", "offdiag_max", "trace_error")):
        assert np.array_equal(audited[k], expected[k]), name


@pytest.mark.parametrize(
    "p, n, law",
    [
        (40, 100, TailLaw.gaussian()),
        (60, 983, TailLaw.student_t(3.5)),
        (300, 300, TailLaw.symmetric_pareto(3.5)),
        (1, 50, TailLaw.student_t(3.5)),
        (40, 571, TailLaw.gaussian()),
        (30, 2000, TailLaw.student_t(3.5)),
    ],
    ids=["one_block", "partial_last_block", "p_equals_n", "single_row", "one_by_one_block", "verify_sized"],
)
def test_trace_diagonal_is_bit_identical_to_dense(p, n, law):
    # the shapes of the blocked-audit test; the audit's diagonal bounds and
    # the step statistics all read this one diagonal
    y = unit_rows(fill_matrix(law, p, n, RngStream(17)))
    with single_blas_thread():
        diagonal = girko_log_det(y).diagonal
        for i, dense in enumerate(dense_projectors(y)):
            assert np.array_equal(diagonal[i], dense.diagonal()), i
    assert diagonal.shape == (p, n)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=60),
)
def test_negated_rows_keep_every_bit_of_the_recursion(seed, p, extra):
    # Householder QR of -Y' has the reflectors of Y', so U is the same and R
    # is negated, and every step statistic reads U, R's squared diagonal or
    # products of two rows of Y
    rng = np.random.default_rng(seed)
    x = rng.standard_t(df=3.5, size=(p, p + extra))
    y = x / np.linalg.norm(x, axis=1)[:, None]
    plus, minus = girko_log_det(y), girko_log_det(-y)
    assert minus.log_det == plus.log_det
    for name in ("z_tilde", "u_part", "v_part", "power_sums"):
        assert np.array_equal(getattr(minus, name), getattr(plus, name)), name


def test_offdiag_bound_of_identity_is_positive_zero():
    # step 0 sees the identity, whose off-diagonal bound is max(0.0, -0.0);
    # array_equal cannot tell the sign of that zero apart, so check it here
    y = unit_rows(fill_matrix(TailLaw.gaussian(), 3, 20, RngStream(5)))
    bound = girko.audit_bounds(girko_log_det(y))[2, 0]
    assert bound == 0.0 and not np.signbit(bound)


def test_step_statistic_is_martingale_difference():
    # conditional mean zero: over replications at a fixed step, the sample
    # mean of the step statistic must vanish within Monte Carlo error
    i, n, reps = 10, 60, 2000
    for law in (TailLaw.gaussian(), TailLaw.student_t(3.5)):
        z = np.empty(reps)
        for r in range(reps):
            x = fill_matrix(law, i + 1, n, RngStream(11, r))
            trace = girko_log_det(unit_rows(x))
            z[r] = trace.z_tilde[i]
        se = z.std(ddof=1) / math.sqrt(reps)
        assert abs(z.mean()) <= 4.0 * se


def _trace_sums(law, p, n, reps, seed):
    halfz2 = np.empty(reps)
    v2 = np.empty(reps)
    u2 = np.empty(reps)
    for r in range(reps):
        x = fill_matrix(law, p, n, RngStream(seed, r))
        trace = girko_log_det(unit_rows(x))
        halfz2[r] = 0.5 * np.sum(trace.z_tilde**2)
        v2[r] = np.sum(trace.v_part**2)
        u2[r] = np.sum(trace.u_part**2)
    return halfz2, v2, u2


def test_aggregated_step_variance_matches_centering_gap():
    # the mean aggregated half squared step statistic equals the gap between
    # the combinatorial constant and the limit centering, up to O(1/n); at
    # this size the defect sits inside the Monte Carlo error
    p, n, reps = 100, 500, 2000
    halfz2, _, _ = _trace_sums(TailLaw.gaussian(), p, n, reps, 5150)
    mu, _ = corr_law(p, n)
    target = cltstats._c_n(p, n) - mu
    se = halfz2.std(ddof=1) / math.sqrt(reps)
    assert abs(halfz2.mean() - target) <= 5.0 * se


def test_aggregated_offdiagonal_variance_matches_limit():
    # the off-diagonal parts carry the limit variance; the diagonal parts
    # are an order of magnitude smaller for light tails
    p, n, reps = 100, 500, 600
    _, v2, u2 = _trace_sums(TailLaw.gaussian(), p, n, reps, 5153)
    _, sigma2 = corr_law(p, n)
    se = v2.std(ddof=1) / math.sqrt(reps)
    assert abs(v2.mean() - sigma2) <= 5.0 * se
    assert u2.mean() / v2.mean() < 0.02


def test_heavy_tail_variance_sum_converges_from_below():
    # for tail index 3.5 the off-diagonal variance sum approaches the limit
    # slowly; the ratio must be high and improve with n (fixed seeds)
    law = TailLaw.student_t(3.5)
    ratios = []
    for p, n in ((100, 200), (200, 400)):
        _, v2, u2 = _trace_sums(law, p, n, 400, 5154)
        _, sigma2 = corr_law(p, n)
        ratios.append(v2.mean() / sigma2)
        assert u2.mean() / v2.mean() < 0.3
    assert 0.85 < ratios[0] < 1.05
    assert 0.85 < ratios[1] < 1.05
    assert ratios[1] > ratios[0] - 0.02


def test_second_moment_identities_same_replications():
    # conditional second moments of the split parts: the gap between each
    # squared part and its moment-table prediction (same replication, same
    # projector) has mean zero; symmetric entries required
    law = TailLaw.student_t(3.5)
    p, n, reps = 25, 80, 1500
    table, _ = mc_moment_table(law, n, 200000, RngStream(12))
    b4 = table.get(4)
    b22 = table.get(2, 2)

    du = np.empty((reps, p))
    dv = np.empty((reps, p))
    for r in range(reps):
        x = fill_matrix(law, p, n, RngStream(13, r))
        trace = girko_log_det(unit_rows(x))
        s2 = trace.power_sums[:, 1]
        steps = np.arange(p)
        u_pred = (1.0 - n * s2) * (1.0 - n * n * b4) / (n - 1)
        v_pred = 2.0 * n * n * b22 * (1.0 / (n - steps) - s2)
        du[r] = trace.u_part**2 - u_pred
        dv[r] = trace.v_part**2 - v_pred

    for diff in (du.sum(axis=1), dv.sum(axis=1)):
        se = diff.std(ddof=1) / math.sqrt(reps)
        assert abs(diff.mean()) <= 5.0 * se
