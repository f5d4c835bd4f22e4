import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    self_normalize,
)


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


def test_self_normalize_345():
    y = self_normalize(DataMatrix(np.array([[3.0, 4.0]])))
    assert y == pytest.approx(np.array([[0.6, 0.8]]))


def test_self_normalize_constant_row():
    n = 9
    y = self_normalize(DataMatrix(np.full((1, n), 2.5)))
    assert y == pytest.approx(np.full((1, n), 1.0 / 3.0))


def test_self_normalize_unit_norms():
    x = fill_matrix(TailLaw.student_t(3.5), 20, 50, RngStream(1))
    y = self_normalize(x)
    norms_sq = np.einsum("ij,ij->i", y, y)
    assert np.max(np.abs(norms_sq - 1.0)) < 1e-14


def test_self_normalize_zero_row():
    with pytest.raises(DegenerateInputError):
        self_normalize(DataMatrix(np.array([[0.0, 0.0], [1.0, 2.0]])))


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
    r1 = sample_correlation(DataMatrix(x))
    r2 = sample_correlation(DataMatrix(d[:, None] * x))
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
    r1 = sample_correlation(DataMatrix(x))
    r2 = sample_correlation(DataMatrix(d[:, None] * x))
    assert np.max(np.abs(r1 - r2)) < 1e-12


def test_correlation_unit_diagonal_and_rescaled_covariance():
    x = fill_matrix(TailLaw.symmetric_pareto(3.5), 8, 40, RngStream(2))
    r = sample_correlation(x)
    assert np.all(np.diag(r) == 1.0)
    s = sample_covariance(x)
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
    y = self_normalize(x)
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
