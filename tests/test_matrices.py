import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from corrlogdet import (
    DataMatrix,
    DegenerateInputError,
    NotPositiveDefiniteError,
    ParameterDomainError,
    RngStream,
    TailLaw,
    fill_matrix,
    log_det_spd,
    sample_correlation,
    sample_covariance,
)
from corrlogdet.matrices import _row_norms
from reference import unit_rows


def _covariance_triple_loop(x: np.ndarray) -> np.ndarray:
    p, n = x.shape
    s = np.zeros((p, p))
    for i in range(p):
        for j in range(p):
            acc = 0.0
            for k in range(n):
                acc += x[i, k] * x[j, k]
            s[i, j] = acc / n
    return s


def test_covariance_scalar():
    x = DataMatrix(np.array([[3.0]]))
    assert sample_covariance(x) == pytest.approx(np.array([[9.0]]))


def test_covariance_orthogonal_rows():
    x = DataMatrix(np.array([[1.0, 1.0], [1.0, -1.0]]))
    assert np.allclose(sample_covariance(x), np.eye(2), atol=1e-15)


def test_covariance_matches_triple_loop():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 10))
    s = sample_covariance(DataMatrix(x))
    assert np.max(np.abs(s - _covariance_triple_loop(x))) < 1e-13
    assert np.array_equal(s, s.T)


# sample_correlation self-normalizes the rows of its argument in place


def test_self_normalize_345():
    x = DataMatrix(np.array([[3.0, 4.0]]))
    sample_correlation(x)
    assert x.values == pytest.approx(np.array([[0.6, 0.8]]))


def test_self_normalize_constant_row():
    n = 9
    x = DataMatrix(np.full((1, n), 2.5))
    sample_correlation(x)
    assert x.values == pytest.approx(np.full((1, n), 1.0 / 3.0))


def test_self_normalize_unit_norms():
    x = fill_matrix(TailLaw.student_t(3.5), 20, 50, RngStream(1))
    sample_correlation(x)
    norms_sq = np.einsum("ij,ij->i", x.values, x.values)
    assert np.max(np.abs(norms_sq - 1.0)) < 1e-14


@pytest.mark.parametrize("p", [1, 63, 64, 65, 500])
def test_block_row_norms_match_linalg_norm(p):
    v = np.random.default_rng(p).standard_t(3.5, size=(p, 301))
    assert np.array_equal(_row_norms(v), np.linalg.norm(v, axis=1))


def test_sample_correlation_leaves_normalized_rows_in_its_argument():
    x = fill_matrix(TailLaw.student_t(3.5), 70, 150, RngStream(5))
    y = unit_rows(x)
    sample_correlation(x)
    assert np.array_equal(x.values, y)


def test_sample_correlation_zero_row_leaves_argument():
    v = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, -1.0]])
    x = DataMatrix(v.copy())
    with pytest.raises(DegenerateInputError, match="row 1 has zero norm"):
        sample_correlation(x)
    assert np.array_equal(x.values, v)


def test_sample_correlation_overflowed_row_norm_raises_with_its_index():
    # 2^600 squared overflows, so the row's norm is inf and dividing by it
    # would zero the row, leaving R the identity with log det 0
    v = np.random.default_rng(4).normal(size=(5, 10))
    v[3] *= 2.0**600
    x = DataMatrix(v.copy())
    with pytest.raises(DegenerateInputError, match="^row 3 has infinite norm$"):
        sample_correlation(x)
    assert np.array_equal(x.values, v)


def _layouts(m):
    """``m`` as a C-ordered, a Fortran-ordered and a strided (sliced) array."""
    big = np.zeros((2 * m.shape[0], 2 * m.shape[1]))
    big[::2, ::2] = m
    return {"C": m.copy(), "F": np.asfortranarray(m), "sliced": big[::2, ::2]}


def test_log_det_spd_matches_copying_dpotrf():
    r = sample_correlation(fill_matrix(TailLaw.student_t(3.5), 40, 90, RngStream(6)))
    c, info = lapack.dpotrf(r.copy(), lower=1)
    assert info == 0
    expected = float(2.0 * np.sum(np.log(np.diag(c))))
    for name, m in _layouts(r).items():
        before = m.copy()
        assert log_det_spd(m) == expected, name
        if name != "C":
            # only a C-ordered float matrix is factored in place
            assert np.array_equal(m, before), name


def test_read_only_inputs_are_not_written():
    x = fill_matrix(TailLaw.gaussian(), 6, 20, RngStream(8)).values.copy()
    x.flags.writeable = False
    before = x.copy()
    r = sample_correlation(DataMatrix(x))
    assert np.array_equal(x, before)
    expected = log_det_spd(r.copy())
    r.flags.writeable = False
    r_before = r.copy()
    assert log_det_spd(r) == expected
    assert np.array_equal(r, r_before)


def test_log_det_spd_indefinite_keeps_pivot():
    # the second pivot is 1 - 2**2 / 4 = 0
    m = np.array(
        [[4.0, 2.0, 0.0, 1.0], [2.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 3.0]]
    )
    info = lapack.dpotrf(m.copy(), lower=1)[1]
    assert info == 2
    for name, a in _layouts(m).items():
        with pytest.raises(NotPositiveDefiniteError) as err:
            log_det_spd(a)
        assert err.value.pivot == info, name


def test_correlation_orthogonal_rows_identity():
    x = DataMatrix(np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 2.0]]))
    r = sample_correlation(x)
    assert np.allclose(r, np.eye(3), atol=1e-15)


def test_correlation_perfectly_dependent_rows():
    row = np.array([0.3, -1.2, 2.0, 0.7])
    x = DataMatrix(np.vstack([row, 2.0 * row]))
    r = sample_correlation(x)
    assert r == pytest.approx(np.ones((2, 2)), abs=1e-14)


def test_correlation_row_scale_invariance():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 10))
    d = rng.uniform(0.1, 10.0, size=5)
    r2 = sample_correlation(DataMatrix(d[:, None] * x))
    r1 = sample_correlation(DataMatrix(x))
    assert np.max(np.abs(r1 - r2)) < 1e-13


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=2, max_value=30),
)
def test_correlation_row_scale_invariance_property(seed, p, extra):
    # rescaling rows by any positive diagonal never moves the correlation
    # matrix; this is the structural reason the correlation statistic is
    # free of fourth-moment terms
    n = p + extra
    rng = np.random.default_rng(seed)
    x = rng.standard_t(df=3.5, size=(p, n))
    d = np.exp(rng.uniform(-8.0, 8.0, size=p))
    r2 = sample_correlation(DataMatrix(d[:, None] * x))
    r1 = sample_correlation(DataMatrix(x))
    assert np.max(np.abs(r1 - r2)) < 1e-12


def test_correlation_unit_diagonal_and_rescaled_covariance():
    x = fill_matrix(TailLaw.symmetric_pareto(3.5), 8, 40, RngStream(2))
    s = sample_covariance(x)
    r = sample_correlation(x)
    assert np.all(np.diag(r) == 1.0)
    d = 1.0 / np.sqrt(np.diag(s))
    assert np.max(np.abs(r - d[:, None] * s * d[None, :])) < 1e-12


def test_log_det_identity_and_diagonal():
    assert log_det_spd(np.eye(7)) == 0.0
    assert log_det_spd(np.diag([2.0, 8.0])) == pytest.approx(np.log(16.0))


def test_log_det_matches_lu_oracle():
    x = fill_matrix(TailLaw.gaussian(), 6, 20, RngStream(3))
    r = sample_correlation(x)
    sign, lu_logdet = np.linalg.slogdet(r)
    assert sign == 1.0
    ours = log_det_spd(r)
    assert abs(ours - lu_logdet) <= 1e-10 * abs(lu_logdet)


def test_log_det_matches_singular_values():
    x = fill_matrix(TailLaw.student_t(3.5), 12, 60, RngStream(4))
    y = unit_rows(x)
    r = sample_correlation(x)
    sv = np.linalg.svd(y, compute_uv=False)
    sv_route = 2.0 * np.sum(np.log(sv))
    assert abs(log_det_spd(r) - sv_route) <= 1e-9 * abs(sv_route)


def test_log_det_not_positive_definite_pivot():
    with pytest.raises(NotPositiveDefiniteError) as err:
        log_det_spd(np.diag([1.0, 1.0, -1.0]))
    assert err.value.pivot == 3


def test_log_det_requires_square():
    with pytest.raises(ParameterDomainError):
        log_det_spd(np.ones((2, 3)))


def test_data_matrix_validation():
    with pytest.raises(ParameterDomainError):
        DataMatrix(np.array([1.0, 2.0]))
    with pytest.raises(ParameterDomainError):
        DataMatrix(np.array([[np.inf, 1.0]]))


def test_data_matrix_names_first_non_finite_entry():
    v = np.ones((3, 4))
    v[1, 2] = np.nan
    v[2, 0] = -np.inf
    with pytest.raises(ParameterDomainError, match=r"row 1, column 2 is nan"):
        DataMatrix(v)
