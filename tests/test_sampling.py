import hashlib
import math
import re

import numpy as np
import pytest
from scipy import stats

from corrlogdet import (
    ParameterDomainError,
    ResourceError,
    RngStream,
    TailLaw,
    fill_matrix,
)
from corrlogdet import moments
from corrlogdet.moments import mc_moment_batches
from corrlogdet.sampling import _BLOCK_DRAWS, _PARAMETERS, _row_blocks
from mc_table import draw

MASK64 = (1 << 64) - 1


def _entries(law, rng, count):
    """``count`` i.i.d. draws from a generator seeded by the stream's key."""
    key = np.random.SeedSequence((rng.master_seed & MASK64, rng.stream_id & MASK64))
    return draw(law, np.random.Generator(np.random.PCG64(key)), (count,))


def _spawned_children(rng, count):
    root = np.random.SeedSequence((rng.master_seed & MASK64, rng.stream_id & MASK64))
    return root.spawn(count)


def _spawned_states(rng, count):
    states = [np.random.PCG64(c).state["state"] for c in _spawned_children(rng, count)]
    return [(s["state"], s["inc"]) for s in states]


def _spawned_rows(law, rng, p, n):
    """Reference for fill_matrix: row i drawn by a PCG64 built from spawned child i."""
    return np.vstack(
        [draw(law, np.random.Generator(np.random.PCG64(c)), (n,)) for c in _spawned_children(rng, p)]
    )


ALL_LAWS = [
    TailLaw.gaussian(),
    TailLaw.student_t(3.5),
    TailLaw.symmetric_pareto(3.5),
    TailLaw.inverse_gamma(3.5, 2.0),
]


def test_fill_matrix_deterministic():
    law = TailLaw.gaussian()
    a = fill_matrix(law, 2, 3, RngStream(7))
    b = fill_matrix(law, 2, 3, RngStream(7))
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda law: law.family)
def test_fill_matrix_rows_independent_of_shape(law):
    # row i is a pure function of (seed, stream, i), not of p
    big = fill_matrix(law, 5, 16, RngStream(3, 1))
    small = fill_matrix(law, 3, 16, RngStream(3, 1))
    assert np.array_equal(big.values[:3], small.values)


def _sha256(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


# SHA-256 of fill_matrix (7x13), _entries (257) and mc_moment_batches
# (n=6, 4 batches of 10 rows) for the laws drawn through uniform transforms;
# a change to these bits changes every simulation of these laws.
PINNED_DIGESTS = {
    "gaussian": (
        "642362744c3954f40dad4a85c4ad3e26b49cfc58779ed156bc809bbf875984c4",
        "6cec9c591ea1b55cad6a99158dde96bfbe0e6b37eab105ee3babf136e03bc53c",
        "b45cbddb1518ddc76692a8549b5193eedb63383e102c002102493761a791dda5",
    ),
    "student_t": (
        "12abb111f448e98672af7e3f70f21949b76bcaf83dc270e7604f7317465eaf02",
        "2871e5ef155de35a9a3968ac014d89194d77c8c7c23c9dca3e62f8d8170234cd",
        "20b4e2b646eb0e0fd53802290529439983f0a5dc9c94a16d4225bf22652e28be",
    ),
    "symmetric_pareto": (
        "1b4566f2a5b12e652ef4d319adf7f473ed9a15c44ee4e5fe84b39f557c497a17",
        "88b8ebfbeaf041603ae298a162adcb1e7f25800037a6b94c4d44272005f8f827",
        "c3f012822c3efa85c95868a2ad4fa492a21ad6288265f54d3589f653eceaebb6",
    ),
}


@pytest.mark.parametrize("law", ALL_LAWS[:3], ids=lambda law: law.family)
def test_symmetric_law_bits_pinned(monkeypatch, law):
    fill = fill_matrix(law, 7, 13, RngStream(21, 4)).values
    entries = _entries(law, RngStream(21, 5), 257)
    monkeypatch.setattr(moments, "MC_BATCHES", 4)
    batches = mc_moment_batches(law, 6, 40, RngStream(21, 6))
    digests = (_sha256([fill]), _sha256([entries]), _sha256([batches[k] for k in sorted(batches)]))
    assert digests == PINNED_DIGESTS[law.family]


KEY_WORDS = [0, 2**32 - 1, 2**32, 2**64 - 1, -1]


@pytest.mark.parametrize("seed", KEY_WORDS)
@pytest.mark.parametrize("stream", KEY_WORDS)
def test_row_states_match_spawned_pcg64(seed, stream):
    rng = RngStream(seed, stream)
    assert rng.row_states(40) == _spawned_states(rng, 40)


def test_row_states_past_two_to_the_sixteen_rows():
    rng = RngStream(2**64 - 1, 2**32)
    assert rng.row_states(2**16 + 5) == _spawned_states(rng, 2**16 + 5)


# (p, n): several row blocks with a partial last block for every law, and
# one row per block, longer than a block for Student-t's two uniforms
BLOCK_SHAPES = [(150, 1000), (3, 2**15 + 7)]


@pytest.mark.parametrize("shape", BLOCK_SHAPES, ids=["partial_last_block", "row_per_block"])
@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda law: law.family)
def test_fill_matrix_matches_spawned_rows(law, shape):
    p, n = shape
    width = 2 if law.family == "student_t" else 1
    rows = max(1, _BLOCK_DRAWS // (width * n))
    assert (rows == 1) if n > 2**15 else (1 < rows < p and p % rows)
    rng = RngStream(31, 2**64 - 1)
    assert fill_matrix(law, p, n, rng).values.tobytes() == _spawned_rows(law, rng, p, n).tobytes()


@pytest.mark.parametrize(
    "shape", BLOCK_SHAPES + [(1, 5)], ids=["partial_last_block", "row_per_block", "lone_row"]
)
@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda law: law.family)
def test_row_blocks_tile_the_rows_in_one_bounded_buffer(law, shape):
    # block sizes never change bits, so only this test sees a wrong one
    rows, n = shape
    width = 2 if law.family == "student_t" else 1
    blocks = list(_row_blocks(law, rows, n))
    assert [i for block, _ in blocks for i in range(rows)[block]] == list(range(rows))
    sizes = [len(range(rows)[block]) for block, _ in blocks]
    for k, (_, raw) in zip(sizes, blocks):
        assert raw.shape == (k, width, n)
        assert np.shares_memory(raw, blocks[0][1])
        assert k == 1 or k * width * n <= _BLOCK_DRAWS
    # every block but the last is as large as the bound allows
    assert all(k == sizes[0] for k in sizes[:-1])
    assert len(sizes) == 1 or (sizes[0] + 1) * width * n > _BLOCK_DRAWS


def test_distinct_streams_differ():
    law = TailLaw.gaussian()
    a = fill_matrix(law, 2, 8, RngStream(7, 0))
    b = fill_matrix(law, 2, 8, RngStream(7, 1))
    assert not np.array_equal(a.values, b.values)


def test_sample_entry_pure():
    law = TailLaw.symmetric_pareto(3.5)
    assert _entries(law, RngStream(11), 1)[0] == _entries(law, RngStream(11), 1)[0]


def test_student_t_draws_finite():
    x = fill_matrix(TailLaw.student_t(3.5), 500, 1000, RngStream(5))
    assert np.all(np.isfinite(x.values))


def test_gaussian_moments():
    x = _entries(TailLaw.gaussian(), RngStream(100), 10**6)
    assert abs(np.mean(x)) < 0.005
    assert abs(np.var(x) - 1.0) < 0.01


def test_gaussian_distribution():
    x = _entries(TailLaw.gaussian(), RngStream(101), 10**5)
    assert stats.kstest(x, "norm").pvalue > 0.001


def test_student_t_distribution():
    x = _entries(TailLaw.student_t(3.5), RngStream(102), 2 * 10**5)
    assert stats.kstest(x, stats.t(3.5).cdf).pvalue > 0.001


def test_inverse_gamma_distribution():
    law = TailLaw.inverse_gamma(3.5, 2.0, centered=False)
    x = _entries(law, RngStream(103), 2 * 10**5)
    assert stats.kstest(x, stats.invgamma(3.5, scale=2.0).cdf).pvalue > 0.001


def test_centered_inverse_gamma_fill_matrix_distribution():
    x = fill_matrix(TailLaw.inverse_gamma(3.5, 2.0), 200, 1000, RngStream(111))
    shifted = stats.invgamma(3.5, loc=-2.0 / 2.5, scale=2.0)
    assert stats.kstest(x.values.ravel(), shifted.cdf).pvalue > 0.001


def test_non_finite_draw_names_its_entry():
    # P(Gamma(0.01) < 5e-324) is about 6e-4, so standard_gamma underflows
    # to 0 and scale / 0 = inf appears among these 80,000 entries
    law = TailLaw.inverse_gamma(0.01, 1.0, centered=False)
    with np.errstate(divide="ignore", over="ignore"):
        with pytest.raises(ParameterDomainError) as err:
            fill_matrix(law, 200, 400, RngStream(0))
        rows = _spawned_rows(law, RngStream(0), 200, 400)
    i, j = np.argwhere(~np.isfinite(rows))[0]
    assert re.search(rf"row {i}, column {j} is inf\b", str(err.value))


def test_pareto_survival_exact():
    # |X|**(-alpha) of the base draw is uniform on (0, 1)
    alpha = 3.5
    x = _entries(TailLaw.symmetric_pareto(alpha), RngStream(104), 10**5)
    u = np.abs(x) ** (-alpha)
    assert stats.kstest(u, "uniform").pvalue > 0.001


def test_pareto_skewness_small():
    x = _entries(TailLaw.symmetric_pareto(3.5), RngStream(105), 10**6)
    assert abs(stats.skew(x)) < 0.05


def test_student_t_tail_constant_formula():
    # deterministic: 2 * sf(x) * x**v approaches the stored constant
    for df in (3.1, 3.5, 3.9):
        law = TailLaw.student_t(df)
        x = 1e4
        limit = 2.0 * stats.t(df).sf(x) * x**df
        assert law.sv_constant == pytest.approx(limit, rel=1e-6)


def test_student_t_tail_hill_diagnostic():
    # empirical P(|X| > x) * x**alpha stabilizes near the tail constant
    df = 3.5
    law = TailLaw.student_t(df)
    x = _entries(law, RngStream(106), 10**7)
    absx = np.abs(x)
    for threshold in (8.0, 16.0):
        emp = np.mean(absx > threshold) * threshold**df
        assert emp == pytest.approx(law.sv_constant, rel=0.12)


def test_inverse_gamma_tail_constant_formula():
    law = TailLaw.inverse_gamma(3.5, 2.0, centered=False)
    x = 1e5
    limit = stats.invgamma(3.5, scale=2.0).sf(x) * x**3.5
    assert law.sv_constant == pytest.approx(limit, rel=1e-4)


def test_inverse_gamma_centering():
    x = fill_matrix(TailLaw.inverse_gamma(3.5, 2.0, centered=True), 100, 200, RngStream(107))
    # mean scale/(shape-1) = 0.8 was subtracted
    assert abs(np.mean(x.values)) < 0.05


@pytest.mark.parametrize(
    "law",
    [TailLaw.gaussian(), TailLaw.student_t(3.5), TailLaw.symmetric_pareto(3.5)],
)
def test_symmetric_families_have_symmetric_draws(law):
    # X and -X must share a distribution; compare independent streams
    # (a two-sample test on a sample against its own negation would be
    # invalid, the halves are antithetic)
    x = _entries(law, RngStream(110, 0), 10**5)
    y = _entries(law, RngStream(110, 1), 10**5)
    assert stats.ks_2samp(x, -y).pvalue > 0.01


def test_sign_flip_leaves_correlation_statistics_unchanged():
    from corrlogdet import log_det_spd, sample_correlation
    from corrlogdet.matrices import DataMatrix

    law = TailLaw.student_t(3.5)
    for r in range(20):
        x = fill_matrix(law, 10, 30, RngStream(108, r))
        flipped = DataMatrix(-x.values)
        assert log_det_spd(sample_correlation(x)) == log_det_spd(sample_correlation(flipped))


def test_law_variances():
    assert TailLaw.gaussian().variance() == 1.0
    assert TailLaw.student_t(3.5).variance() == pytest.approx(3.5 / 1.5)
    assert TailLaw.symmetric_pareto(3.5).variance() == pytest.approx(3.5 / 1.5)
    assert math.isinf(TailLaw.student_t(2.0).variance())
    law = TailLaw.inverse_gamma(3.5, 2.0)
    assert law.variance() == pytest.approx(4.0 / (2.5**2 * 1.5))


def test_pareto_variance_empirical():
    x = _entries(TailLaw.symmetric_pareto(4.5), RngStream(109), 10**6)
    assert np.var(x) == pytest.approx(4.5 / 2.5, rel=0.05)


def test_standardized_fourth_moment():
    assert TailLaw.gaussian().standardized_fourth_moment() == 3.0
    assert TailLaw.student_t(6.0).standardized_fourth_moment() == pytest.approx(6.0)
    assert math.isinf(TailLaw.student_t(3.5).standardized_fourth_moment())
    assert math.isinf(TailLaw.inverse_gamma(3.5, 2.0).standardized_fourth_moment())
    # symmetric Pareto: E X^4 / (E X^2)^2 = (a / (a - 4)) / (a / (a - 2))^2
    assert TailLaw.symmetric_pareto(6.0).standardized_fourth_moment() == 4.0 / 3.0
    assert TailLaw.symmetric_pareto(5.0).standardized_fourth_moment() == pytest.approx(1.8, rel=1e-15)
    # inverse gamma: 147/5 at shape 11/2 from its exact raw moments
    # b^k / prod_{j<=k} (a - j), at any scale, also where b^4 overflows
    for scale in (2.0, 3.0, 1e78):
        fourth = TailLaw.inverse_gamma(5.5, scale).standardized_fourth_moment()
        assert fourth == pytest.approx(29.4, rel=1e-15)


@pytest.mark.parametrize(
    "make",
    [TailLaw.student_t, TailLaw.symmetric_pareto, lambda a: TailLaw.inverse_gamma(a, 2.0)],
    ids=["student_t", "symmetric_pareto", "inverse_gamma"],
)
def test_finite_moments_end_at_the_tail_index(make):
    # E|X|^k is finite exactly when k is below the tail index
    assert math.isinf(make(2.0).variance())
    assert math.isfinite(make(math.nextafter(2.0, 3.0)).variance())
    assert math.isinf(make(4.0).standardized_fourth_moment())
    assert math.isfinite(make(math.nextafter(4.0, 5.0)).standardized_fourth_moment())


def test_tail_index_and_symmetry():
    assert math.isinf(TailLaw.gaussian().tail_index)
    assert TailLaw.student_t(3.5).tail_index == 3.5
    assert TailLaw.symmetric_pareto(2.5).tail_index == 2.5
    assert TailLaw.inverse_gamma(3.9, 2.0).tail_index == 3.9
    assert TailLaw.symmetric_pareto(3.5).sv_constant == 1.0


def test_config_round_trip():
    laws = [
        TailLaw.gaussian(),
        TailLaw.student_t(3.5),
        TailLaw.symmetric_pareto(2.7),
        TailLaw.inverse_gamma(3.9, 2.0, centered=False),
    ]
    for law in laws:
        assert TailLaw.from_config(law.to_config()) == law
    assert TailLaw.from_config({"family": "student_t", "df": 3.5}) == TailLaw.student_t(3.5)


@pytest.mark.parametrize(
    "bad",
    [
        {"family": "cauchy"},
        {"family": "student_t", "df": -1},
        {"family": "symmetric_pareto"},
        {"family": "inverse_gamma", "shape": 2.0, "scale": -1.0},
        {"family": "student_t", "df": 3.5, "extra": 1},
        {"family": "inverse_gamma", "shape": 3.5, "scale": 2, "centered": "false"},
        {"family": "inverse_gamma", "shape": 3.5, "scale": 2, "centered": 0},
        {"family": "student_t", "df": True},
        {"family": "student_t", "df": "3.5"},
        {"family": "symmetric_pareto", "alpha": True},
        {"family": "symmetric_pareto", "alpha": "3.5"},
        {"family": "inverse_gamma", "shape": True, "scale": 2, "centered": False},
        {"family": "inverse_gamma", "shape": "3.5", "scale": 2},
        {"family": "inverse_gamma", "shape": 3.5, "scale": True},
        {"family": "inverse_gamma", "shape": 3.5, "scale": [2]},
    ],
)
def test_invalid_configs(bad):
    with pytest.raises(ParameterDomainError):
        TailLaw.from_config(bad)


@pytest.mark.parametrize(
    "family, name",
    [(family, name) for family, names in _PARAMETERS.items() for name in names],
)
@pytest.mark.parametrize("value", [None, 0.0, -1.0, math.nan])
def test_missing_or_nonpositive_parameter_is_named(family, name, value):
    fields = {other: 3.5 for other in _PARAMETERS[family]}
    if value is None:
        del fields[name]
    else:
        fields[name] = value
    with pytest.raises(ParameterDomainError, match=rf"^{family} requires {name} > 0$"):
        TailLaw(family=family, **fields)


def test_centering_requires_mean():
    with pytest.raises(ParameterDomainError):
        TailLaw.inverse_gamma(0.9, 2.0, centered=True)
    # without centering, shape <= 1 is legal
    TailLaw.inverse_gamma(0.9, 2.0, centered=False)


@pytest.mark.parametrize(
    "family, fields",
    [
        ("gaussian", {"df": 3.0}),
        ("student_t", {"df": 3.5, "alpha": 3.5}),
        ("symmetric_pareto", {"alpha": 3.5, "scale": 2.0}),
        ("inverse_gamma", {"shape": 3.5, "scale": 2.0, "df": 3.5}),
    ],
)
def test_parameter_of_another_family_is_named(family, fields):
    # a stray field would change equality and the config round trip but
    # not the label, so the law is refused
    (name,) = set(fields) - set(_PARAMETERS[family])
    with pytest.raises(ParameterDomainError, match=rf"^{family} takes no {name}$"):
        TailLaw(family=family, **fields)


@pytest.mark.parametrize("family", ["gaussian", "student_t", "symmetric_pareto"])
def test_uncentered_flag_outside_inverse_gamma_is_refused(family):
    fields = {name: 3.5 for name in _PARAMETERS[family]}
    with pytest.raises(ParameterDomainError, match="centered"):
        TailLaw(family=family, centered=False, **fields)
    law = TailLaw(family=family, centered=True, **fields)
    assert law.to_config() == {"family": family, **fields}


def test_fill_matrix_guards():
    with pytest.raises(ParameterDomainError):
        fill_matrix(TailLaw.gaussian(), 0, 5, RngStream(1))
    with pytest.raises(ResourceError):
        fill_matrix(TailLaw.gaussian(), 10**6, 10**6, RngStream(1))
