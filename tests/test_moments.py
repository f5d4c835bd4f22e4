import itertools
import math
import re
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrlogdet import (
    DegenerateInputError,
    IncompleteTableError,
    InconsistentTableError,
    MomentTable,
    ParameterDomainError,
    ResourceError,
    RngStream,
    TailLaw,
    WeightVector,
    complete_table,
    fourth_moment_centered,
    fourth_moment_sphere,
    k_coefficients,
    permutation_oracle,
    quadratic_form_moments,
    sphere_identity_residuals,
    weighted_moment,
)
from corrlogdet import moments, sampling
from corrlogdet.moments import (
    ALL_KEYS,
    enumerated_quadratic_form_moments,
    enumerated_weighted_power,
    mc_moment_batches,
    rational_unit_vector,
    rational_weights,
)
from mc_table import mc_moment_table, whole_batch_means


def _circle_moment(a: int, b: int) -> F:
    # E[cos^(2a) sin^(2b)] for a uniform angle, exact
    return F(math.comb(2 * a, a) * math.comb(2 * b, b), 4 ** (a + b) * math.comb(a + b, a))


def uniform_sphere_table(n: int, exact: bool = True) -> MomentTable:
    """Moments of a uniform point on the sphere (normalized Gaussian row).

    The squared coordinates are jointly Dirichlet(1/2, ..., 1/2), so
    ``E[prod (Z_i^2)^{k_i}] = prod rising(1/2, k_i) / rising(n/2, sum k)``.
    """

    def rising(x: F, k: int) -> F:
        out = F(1)
        for j in range(k):
            out *= x + j
        return out

    moments = {}
    for key in ALL_KEYS:
        halves = [e // 2 for e in key]
        value = F(1)
        for k in halves:
            value *= rising(F(1, 2), k)
        value /= rising(F(n, 2), sum(halves))
        moments[key] = value if exact else float(value)
    return MomentTable(n=n, moments=moments)


def _diag(w: WeightVector) -> list[list[F]]:
    n = len(w.a)
    return [[w.a[i] if i == j else F(0) for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# permutation oracle
# ---------------------------------------------------------------------------


def test_oracle_single_support_vector():
    n = 5
    z = (F(1),) + (F(0),) * (n - 1)
    t = permutation_oracle(z)
    for k in (1, 2, 3, 4):
        assert t.get(2 * k) == F(1, n)
    assert t.get(2, 2) == 0
    assert t.get(4, 2) == 0
    assert t.get(2, 2, 2, 2) == 0


def test_oracle_constant_vector():
    n = 4
    z = (F(1, 2),) * 4  # squares are 1/4 = 1/n
    t = permutation_oracle(z)
    assert t.get(2) == F(1, 4)
    assert t.get(4, 2) == F(1, 4) ** 3
    assert t.get(2, 2, 2, 2) == F(1, 4) ** 4


def test_oracle_three_four_five():
    t = permutation_oracle((F(3, 5), F(4, 5)))
    assert t.get(4) == F(337, 1250)
    assert t.get(2, 2) == F(144, 625)


def test_oracle_caps():
    with pytest.raises(ResourceError):
        permutation_oracle((F(1),) * 9)


@pytest.mark.parametrize(
    "call",
    [
        lambda: enumerated_weighted_power((F(1, 9),) * 9, (F(1),) * 9, 2),
        lambda: enumerated_weighted_power((F(1, 3),) * 3, (F(1),) * 3, 7),
        lambda: enumerated_quadratic_form_moments(
            np.eye(7, dtype=int), np.eye(7, dtype=int), (F(1),) * 7
        ),
    ],
    ids=["weighted_power_n9", "weighted_power_degree7", "quadratic_form_n7"],
)
def test_enumeration_caps(call):
    with pytest.raises(ResourceError):
        call()


def test_oracle_exact_inputs_give_fractions():
    # plain ints and finite floats are converted exactly
    t = permutation_oracle((3, -4))
    assert t.get(4) == F(337, 2) and t.get(2, 2) == 144
    t = permutation_oracle((0.5, -1.5))
    assert t.get(2) == F(5, 4) and t.get(2, 2) == F(9, 16)
    assert all(type(v) is F for v in t.moments.values())
    with pytest.raises(ValueError):
        permutation_oracle((F(1), float("nan")))


def test_oracle_matches_uniform_sphere_structure():
    # permutation law of a unit vector satisfies every sphere identity
    rng = np.random.default_rng(0)
    z = rational_unit_vector(5, rng)
    t = permutation_oracle(z)
    assert all(v == 0 for v in sphere_identity_residuals(t).values())


# ---------------------------------------------------------------------------
# table completion and identities
# ---------------------------------------------------------------------------


def test_complete_table_circle():
    # two coordinates on the circle: pair moments from exact angle integrals
    base = MomentTable(
        n=2,
        moments={
            (2, 2): _circle_moment(1, 1),
            (4, 4): _circle_moment(2, 2),
            (2, 2, 2): F(0),
            (2, 2, 2, 2): F(0),
        },
    )
    t = complete_table(base)
    assert t.get(4) == F(3, 8) == _circle_moment(2, 0)
    assert t.get(6) == _circle_moment(3, 0)
    assert t.get(8) == _circle_moment(4, 0)
    assert t.get(4, 2) == _circle_moment(2, 1)
    assert t.get(6, 2) == _circle_moment(3, 1)


def test_complete_table_gaussian_sphere():
    for n in (4, 7, 10):
        full = uniform_sphere_table(n)
        base = MomentTable(
            n=n,
            moments={k: full.get(*k) for k in ((2, 2), (2, 2, 2), (2, 2, 2, 2), (4, 4))},
        )
        t = complete_table(base)
        assert t.get(4) == F(3, n * (n + 2))
        for key in full.moments:
            assert t.get(*key) == full.get(*key)


def test_complete_table_missing_key():
    with pytest.raises(IncompleteTableError, match=r"missing \(2, 2, 2\)"):
        complete_table(MomentTable(n=5, moments={(2, 2): F(1, 35)}))
    # the other functions that read a table name the key they miss too
    full = uniform_sphere_table(5).moments
    w = WeightVector((F(1, 5),) * 5)
    eye = [[F(int(i == j)) for j in range(5)] for i in range(5)]
    readers = {
        (6, 2): sphere_identity_residuals,
        (4, 4): lambda t: fourth_moment_centered(w, t),
        (4, 2): lambda t: quadratic_form_moments(eye, eye, t),
    }
    for key, read in readers.items():
        table = MomentTable(n=5, moments={k: v for k, v in full.items() if k != key})
        with pytest.raises(IncompleteTableError, match=re.escape(f"missing {key}")):
            read(table)


def test_multinomial_normalization_exact():
    t = uniform_sphere_table(6)
    n = 6
    assert n * t.get(4) + n * (n - 1) * t.get(2, 2) == 1


def test_residuals_flag_bad_table():
    t = uniform_sphere_table(5)
    bad = MomentTable(n=5, moments={**t.moments, (4,): t.get(4) + F(1, 100)})
    res = sphere_identity_residuals(bad)
    assert any(v != 0 for v in res.values())


# exact residuals of a table with random entries, recorded when each identity
# was still written out by hand: on a consistent table every residual is 0,
# which cannot tell one identity from another
PINNED_RESIDUALS = {
    "fill_2": F(-49, 456),
    "fill_4": F(589, 1056),
    "fill_42": F(2934387, 2782912),
    "fill_422": F(1856, 52059),
    "fill_6": F(-88187711, 18537024),
    "fill_62": F(941153663, 496914880),
    "fill_8": F(-1598549303, 126539952),
    "lift_2": F(-4449, 6688),
    "lift_22": F(-2934387, 1391456),
    "lift_222": F(-1856, 17353),
    "lift_4": F(5317, 123664),
    "lift_42": F(-67763609, 68993715),
    "lift_6": F(-1967126, 1233627),
    "norm_2": F(589, 176),
    "norm_3": F(34361183, 517843),
    "norm_4": F(1008173281, 5691007),
}


def test_residuals_pinned_on_inconsistent_table():
    rng = np.random.default_rng(31)
    draws = {key: F(int(rng.integers(1, 50)), int(rng.integers(50, 500))) for key in ALL_KEYS}
    assert sphere_identity_residuals(MomentTable(n=6, moments=draws)) == PINNED_RESIDUALS


def test_mc_table_satisfies_identities_structurally():
    tab, _ = mc_moment_table(TailLaw.student_t(3.5), n=12, reps=5000, rng=RngStream(1))
    worst = max(abs(float(v)) for v in sphere_identity_residuals(tab).values())
    assert worst < 1e-12


def test_mc_table_gaussian_values():
    n = 10
    tab, se = mc_moment_table(TailLaw.gaussian(), n=n, reps=10**6, rng=RngStream(2))
    exact = uniform_sphere_table(n)
    assert tab.get(2) == 1.0 / n
    for key in ((4,), (2, 2), (4, 2)):
        assert abs(tab.get(*key) - float(exact.get(*key))) <= 5.0 * se[key]


@pytest.mark.parametrize(
    "law",
    [TailLaw.gaussian(), TailLaw.student_t(3.5), TailLaw.symmetric_pareto(3.5)],
    ids=lambda law: law.family,
)
@pytest.mark.parametrize("keys", [((4,),), ((4, 2),), ((2, 2, 2, 2), (2,), (8,))], ids=str)
def test_mc_batches_key_subset_matches_all_keys(monkeypatch, law, keys):
    # several row blocks per batch and an uneven batch split
    monkeypatch.setattr(moments, "MC_BATCHES", 5)
    monkeypatch.setattr(sampling, "_BLOCK_DRAWS", 100)
    args = (law, 9, 203, RngStream(4, 2))
    full = mc_moment_batches(*args)
    subset = mc_moment_batches(*args, keys=keys)
    assert list(subset) == list(keys)
    for key in keys:
        assert np.array_equal(subset[key], full[key]), key


MC_LAWS = [
    TailLaw.gaussian(),
    TailLaw.student_t(3.5),
    TailLaw.symmetric_pareto(3.5),
    TailLaw.inverse_gamma(3.5, 2.0),
]

# (n, reps, MC_BATCHES).  n = 2000 puts 32 rows in a row block (16 for
# Student-t's two uniforms), so a 70-row batch is several blocks with a
# partial last one, and reps % batches = 5 splits the batches unevenly;
# n = 9000 rows are longer than numpy's 8192-element buffer, and the 23-
# and 22-row batches leave a lone row after their blocks (7 rows, 3 for
# Student-t); 2**15 + 7 puts one row in a block, longer than a block for
# Student-t.  Each shape also runs with 500-draw blocks: several rows per
# block at n = 9, one row per block from n = 2000 on.
MC_SHAPES = {
    "row_blocks": (2000, 16 * 70, 16),
    "chunks_uneven": (2000, 16 * 70 + 5, 16),
    "long_rows": (9000, 4 * 22 + 1, 4),
    "row_per_block": (2**15 + 7, 2 * 3 + 1, 2),
    "short_rows": (9, 16 * 300 + 7, 16),
}


@pytest.mark.parametrize("shape", MC_SHAPES.values(), ids=MC_SHAPES.keys())
@pytest.mark.parametrize("law", MC_LAWS, ids=lambda law: law.family)
def test_mc_batches_bits_match_whole_chunk_loop_at_any_thread_count(monkeypatch, law, shape):
    # the reference draws, normalizes and estimates each batch whole
    n, reps, batches = shape
    rng = RngStream(12, 3)
    expected = whole_batch_means(law, n, reps, rng, batches)
    monkeypatch.setattr(moments, "MC_BATCHES", batches)
    for block_draws in (sampling._BLOCK_DRAWS, 500):
        monkeypatch.setattr(sampling, "_BLOCK_DRAWS", block_draws)
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("THREADS", threads)
            got = mc_moment_batches(law, n, reps, rng)
            assert list(got) == list(ALL_KEYS)
            for key in ALL_KEYS:
                assert got[key].tobytes() == expected[key].tobytes(), (block_draws, threads, key)


@pytest.mark.parametrize(
    "law", [TailLaw.symmetric_pareto(3.5), TailLaw.student_t(3.5)], ids=lambda law: law.family
)
def test_mc_batches_memory_is_row_blocks_not_batches(monkeypatch, law):
    # a 512-row batch at n = 4096 holds 16.8 MB of raw draws (33.6 MB for
    # Student-t's two uniforms); a row block holds 0.5 MB.  Measured peaks:
    # 18.4 and 34.7 MB when a batch was drawn whole, 2.2 and 1.6 MB by blocks
    monkeypatch.setenv("THREADS", "1")
    tracemalloc.start()
    try:
        mc_moment_batches(law, 4096, 8192, RngStream(8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 8 * sampling._BLOCK_DRAWS, f"{peak / 1e6:.1f} MB"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_mc_batches_zero_row_error_reaches_caller(monkeypatch, threads):
    monkeypatch.setenv("THREADS", threads)
    monkeypatch.setattr(
        moments, "_transform", lambda law, raw: np.zeros(raw.shape[:1] + raw.shape[2:])
    )
    monkeypatch.setattr(moments, "MC_BATCHES", 4)
    message = r"^Monte Carlo batch 0: row 0 has squared norm 0$"
    with pytest.raises(DegenerateInputError, match=message):
        mc_moment_batches(TailLaw.gaussian(), 8, 64, RngStream(5))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("scale, norm", [(1e200, "inf"), (1e-200, "0")], ids=["1e200", "1e-200"])
def test_mc_batches_fail_loudly_at_extreme_scales(scale, norm):
    # the entries are squared unscaled: at 1e200 the squares overflow to inf,
    # at 1e-200 they underflow to 0, and neither row is zero
    law = TailLaw.inverse_gamma(3.5, scale)
    message = rf"^Monte Carlo batch 0: row \d+ has squared norm {norm}$"
    with pytest.raises(DegenerateInputError, match=message):
        mc_moment_batches(law, 50, 320, RngStream(0), keys=((4,), (2, 2)))


# ---------------------------------------------------------------------------
# weighted-sum moments
# ---------------------------------------------------------------------------


def test_weight_vector_requires_unit_sum():
    with pytest.raises(ParameterDomainError):
        WeightVector((0.5, 0.2))
    w = WeightVector.normalized((1.0, 3.0))
    assert w.s1 == pytest.approx(1.0)
    assert w.s2 == pytest.approx(0.0625 + 0.5625)


def test_coefficient_reductions():
    # each key's sum of weight products over distinct indices, brute-forced,
    # equals its polynomial in the power sums
    rng = np.random.default_rng(5)
    n = 7
    w = rational_weights(n, rng)
    p = {1: 1, 2: w.s2, 3: w.s3, 4: w.s4}.__getitem__
    for key, (_, poly) in moments._COINCIDENCES.items():
        halves = [e // 2 for e in key]
        brute = sum(
            math.prod(w.a[i] ** k for i, k in zip(idx, halves))
            for idx in itertools.permutations(range(n), len(key))
        )
        assert brute == poly(p), key


def test_centered_single_weight_reduces_to_binomial():
    rng = np.random.default_rng(6)
    z = rational_unit_vector(5, rng)
    t = permutation_oracle(z)
    w = WeightVector((F(1), F(0), F(0), F(0), F(0)))
    b2 = t.get(2)
    expected = t.get(8) - 4 * b2 * t.get(6) + 6 * b2**2 * t.get(4) - 3 * b2**4
    assert fourth_moment_centered(w, t) == expected
    assert weighted_moment(w, t, 4) == t.get(8)


def test_equal_weights_on_sphere_collapse():
    n = 6
    t = uniform_sphere_table(n)
    w = WeightVector((F(1, n),) * n)
    assert fourth_moment_centered(w, t) == 0
    assert weighted_moment(w, t, 4) == F(1, n) ** 4
    assert fourth_moment_sphere(w, t) == 0


def test_binomial_route_matches_direct_expansion():
    # raw moments of orders 1..4 recombine into the centered fourth moment,
    # with or without the sphere constraint
    rng = np.random.default_rng(7)
    for n in (3, 4, 5):
        for _ in range(5):
            z = tuple(F(int(rng.integers(-6, 7)), int(rng.integers(1, 5))) for _ in range(n))
            if not any(z):
                continue
            t = permutation_oracle(z)
            w = rational_weights(n, rng)
            b2 = t.get(2)
            diagonal = quadratic_form_moments(_diag(w), _diag(w), t)
            raw = [
                1,
                b2,
                diagonal.cross_second,
                diagonal.third_raw,
                weighted_moment(w, t, 4),
            ]
            binomial = sum(
                math.comb(4, j) * raw[j] * (-b2) ** (4 - j) for j in range(5)
            )
            assert fourth_moment_centered(w, t) == binomial


def test_fourth_moments_match_enumeration():
    rng = np.random.default_rng(8)
    for n in (3, 4):
        z = tuple(F(int(rng.integers(-6, 7)), int(rng.integers(1, 5))) for _ in range(n))
        if not any(z):
            z = (F(1),) * n
        t = permutation_oracle(z)
        w = rational_weights(n, rng)
        assert weighted_moment(w, t, 4) == enumerated_weighted_power(w.a, z, 4)
        assert fourth_moment_centered(w, t) == enumerated_weighted_power(
            w.a, z, 4, shift=-t.get(2)
        )


def test_sphere_fourth_moment_matches_enumeration():
    rng = np.random.default_rng(9)
    n = 4
    z = rational_unit_vector(n, rng)
    t = permutation_oracle(z)
    w = rational_weights(n, rng)
    brute = enumerated_weighted_power(w.a, z, 4, shift=-1, factor=n)
    assert fourth_moment_sphere(w, t) == brute


@pytest.mark.parametrize("factor, shift", [(F(7, 3), F(-5, 4)), (2.5, -0.75)])
def test_weighted_power_two_term_average(factor, shift):
    a = (F(1, 3), F(2, 3))
    z = (F(1, 2), -2)
    f, c = F(factor), F(shift)
    first = f * (a[0] * F(1, 4) + a[1] * 4) + c  # Z = (1/2, -2)
    second = f * (a[0] * 4 + a[1] * F(1, 4)) + c  # Z = (-2, 1/2)
    for power in range(7):
        out = enumerated_weighted_power(a, z, power, shift=shift, factor=factor)
        assert type(out) is F
        assert out == (first**power + second**power) / 2


def test_sphere_fourth_moment_rejects_non_sphere_table():
    rng = np.random.default_rng(10)
    z = tuple(2 * v for v in rational_unit_vector(4, rng))  # norm 2, off the sphere
    t = permutation_oracle(z)
    with pytest.raises(InconsistentTableError):
        fourth_moment_sphere(rational_weights(4, rng), t)


def test_sphere_fourth_moment_vs_monte_carlo():
    # weights from the diagonal of a random unit-trace projector, moments
    # from the exact uniform-sphere table, target estimated by simulation
    from corrlogdet import fill_matrix
    from dense_projector import dense_q
    from reference import unit_rows

    n, i = 30, 5
    x = fill_matrix(TailLaw.gaussian(), i, n, RngStream(11))
    a = np.diag(dense_q(unit_rows(x), n))
    w = WeightVector(tuple(float(v) for v in a))
    t = uniform_sphere_table(n, exact=False)
    predicted = fourth_moment_sphere(w, t)

    reps = 200000
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence((12, 0))))
    draws = gen.standard_normal((reps, n))
    y2 = draws**2 / np.einsum("ij,ij->i", draws, draws)[:, None]
    u = y2 @ (n * a) - 1.0
    u4 = u**4
    se = u4.std(ddof=1) / math.sqrt(reps)
    assert abs(u4.mean() - predicted) <= 5.0 * se


# ---------------------------------------------------------------------------
# zero-sum coefficients
# ---------------------------------------------------------------------------


def test_k_coefficients_equal_weights_vanish():
    k = k_coefficients(F(1, 4), F(1, 16), F(1, 64), 4)
    assert tuple(k) == (0, 0, 0, 0, 0)


def test_k_coefficients_point_mass():
    n = 9
    k = k_coefficients(F(1), F(1), F(1), n)
    assert k.c44 == n - 1
    assert k.constant == 6 * n - 4 * n**2 + n**3 - 3
    assert sum(k) == 0


def test_k_coefficients_exact_zero_sum_rational():
    rng = np.random.default_rng(13)
    for n in (3, 5, 8, 13):
        w = rational_weights(n, rng)
        assert sum(k_coefficients(w.s2, w.s3, w.s4, n)) == 0


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=2, max_value=30),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_k_coefficients_zero_sum_float(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.01, 1.0, size=n)
    w = WeightVector.normalized(tuple(float(v) for v in a))
    assert abs(float(sum(k_coefficients(w.s2, w.s3, w.s4, n)))) < 1e-10


# ---------------------------------------------------------------------------
# quadratic forms
# ---------------------------------------------------------------------------


def test_quadratic_identity_on_sphere():
    n = 5
    t = uniform_sphere_table(n)
    eye = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    out = quadratic_form_moments(eye, eye, t)
    assert out.cross_second == 1
    assert out.third_raw == 1
    assert out.third_central == 0


def test_quadratic_diagonal_matches_weighted_third_moment():
    rng = np.random.default_rng(14)
    n = 5
    z = rational_unit_vector(n, rng)
    t = permutation_oracle(z)
    w = rational_weights(n, rng)
    out = quadratic_form_moments(_diag(w), _diag(w), t)
    assert out.cross_second == enumerated_weighted_power(w.a, z, 2)
    assert out.third_raw == enumerated_weighted_power(w.a, z, 3)


def test_quadratic_forms_match_signed_enumeration():
    rng = np.random.default_rng(15)
    from corrlogdet.verify import _random_rational_symmetric, _random_rational_vector

    for n in (3, 4):
        z = _random_rational_vector(n, rng)
        t = permutation_oracle(z)
        a = _random_rational_symmetric(n, rng)
        b = _random_rational_symmetric(n, rng)
        assert tuple(quadratic_form_moments(a, b, t)) == tuple(
            enumerated_quadratic_form_moments(a, b, z)
        )


def test_quadratic_enumeration_matches_fraction_loop():
    # reference: the same signed enumeration summed term by term in Fractions
    rng = np.random.default_rng(16)
    from corrlogdet.verify import _random_rational_symmetric

    z = (F(-3, 2), 2, F(0), F(5, 7))
    a = _random_rational_symmetric(4, rng)
    b = _random_rational_symmetric(4, rng)
    qa, qb = [], []
    for perm in itertools.permutations(z):
        for signs in itertools.product((1, -1), repeat=4):
            v = [s * x for s, x in zip(signs, perm)]
            qa.append(sum(a[i][j] * v[i] * v[j] for i in range(4) for j in range(4)))
            qb.append(sum(b[i][j] * v[i] * v[j] for i in range(4) for j in range(4)))
    m1, m2, m3 = (sum(q**k for q in qa) / len(qa) for k in (1, 2, 3))
    cross = sum(x * y for x, y in zip(qa, qb)) / len(qa)
    out = enumerated_quadratic_form_moments(a, b, z)
    assert tuple(out) == (m3 - 3 * m2 * m1 + 2 * m1**3, m3, cross)


def test_quadratic_enumeration_identity_is_constant():
    # z' z = |z|^2 on every signed permutation, so the form does not vary
    z = (F(-3, 2), 2, F(0), F(5, 7))
    norm_sq = sum(v * v for v in z)
    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    out = enumerated_quadratic_form_moments(eye, eye, z)
    assert all(type(v) is F for v in out)
    assert out.third_central == 0
    assert out.third_raw == norm_sq**3
    assert out.cross_second == norm_sq**2


@pytest.mark.parametrize(
    "a_size, b_size",
    [(4, None), (2, None), (3, 4)],
    ids=["A_too_large", "A_too_small", "B_shape_differs"],
)
def test_quadratic_enumeration_rejects_shape_mismatch(a_size, b_size):
    z = (F(1), F(-1, 2), F(2, 3))
    a = np.eye(a_size, dtype=int)
    b = a if b_size is None else np.eye(b_size, dtype=int)
    with pytest.raises(ParameterDomainError):
        enumerated_quadratic_form_moments(a, b, z)


def test_quadratic_requires_symmetry():
    t = uniform_sphere_table(4)
    bad = [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    with pytest.raises(ParameterDomainError):
        quadratic_form_moments(bad, bad, t)
