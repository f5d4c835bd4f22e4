"""Joint even moments of exchangeable coordinates and their sphere identities.

A moment table maps a sorted multiset of even exponents ``(2k1 >= ... >=
2kr)`` to ``E[Z_1^{2k1} * ... * Z_r^{2kr}]`` for exchangeable random
variables ``Z_1, ..., Z_n``.  When the coordinates are constrained to the
unit sphere (``sum Z_k^2 = 1``) the entries obey a family of polynomial
identities: normalizations obtained by expanding ``(sum Z^2)^k = 1``,
lift recursions obtained by multiplying a monomial by ``1 = sum Z^2``,
and closed-form completions that express every entry of total
half-degree <= 4 through the pair, triple and quadruple moments plus the
``(4,4)`` entry.

The normalizations, the weighted moments and the Monte Carlo estimates
all read one index-coincidence table, ``_COINCIDENCES``.

On top of the tables sit exact formulas for moments of weighted sums of
squared coordinates, the zero-sum coefficient decomposition of the fourth
moment of ``sum a_k (n Z_k^2 - 1)``, and trace formulas for third moments
of quadratic forms under sign-symmetric exchangeable laws.

All evaluators are generic over the number type: run them on
``fractions.Fraction`` inputs for exact certification, on floats for
production.  Brute-force enumeration oracles over (signed) coordinate
permutations of a fixed vector provide the independent ground truth.
The oracles are exact only: they take ints, ``Fraction``s or finite
floats (converted exactly), enumerate in integers over common
denominators and always return ``Fraction``s.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    DegenerateInputError,
    IncompleteTableError,
    InconsistentTableError,
    ParameterDomainError,
    ResourceError,
)
from .sampling import (
    RngStream,
    TailLaw,
    _raw_sampler,
    _row_blocks,
    _transform,
    resolve_parallelism,
)

Number = float | Fraction

# Enumeration caps: n! * 2^n stays desk-scale.
_MAX_ORACLE_N = 8
_MAX_ORACLE_DEGREE = 6
_SPHERE_TOL = 1e-8

# Monte Carlo batches per moment estimate
MC_BATCHES = 16

# Index-coincidence table of the keys of half-degree <= 4.  Grouping the
# terms of ``(sum_k x_k)^m`` by which indices coincide leaves one term per
# key of half-degree m: the key's count (the ways to group the m factors
# into its pattern) times its sum of ``x_i1^k1 * ... * x_ir^kr`` over
# distinct indices, a polynomial in the power sums ``p(j) = sum_k x_k^j``.
# ``p(1) = 1`` (weights sum to one, rows lie on the unit sphere) is
# substituted everywhere but in the lone ``p(1)`` of ``(2,)``.
_COINCIDENCES = {
    (2,): (1, lambda p: p(1)),
    (4,): (1, lambda p: p(2)),
    (2, 2): (1, lambda p: 1 - p(2)),
    (6,): (1, lambda p: p(3)),
    (4, 2): (3, lambda p: p(2) - p(3)),
    (2, 2, 2): (1, lambda p: 1 - 3 * p(2) + 2 * p(3)),
    (8,): (1, lambda p: p(4)),
    (6, 2): (4, lambda p: p(3) - p(4)),
    (4, 4): (3, lambda p: p(2) * p(2) - p(4)),
    (4, 2, 2): (6, lambda p: p(2) - p(2) * p(2) - 2 * p(3) + 2 * p(4)),
    (2, 2, 2, 2): (1, lambda p: 1 - 6 * p(2) + 3 * p(2) * p(2) + 8 * p(3) - 6 * p(4)),
}
ALL_KEYS = tuple(_COINCIDENCES)
# the entries that ``complete_table`` completes a table from
_BASE_KEYS = ((2, 2), (2, 2, 2), (2, 2, 2, 2), (4, 4))


def _patterns(m: int) -> list[tuple]:
    """The keys of half-degree ``m`` with their counts and polynomials."""
    return [(key, count, poly) for key, (count, poly) in _COINCIDENCES.items() if sum(key) == 2 * m]


def moment_key(*exponents: int) -> tuple[int, ...]:
    """Canonical (descending) key for a multiset of positive even exponents."""
    key = tuple(sorted((int(e) for e in exponents), reverse=True))
    if not key or any(e < 2 or e % 2 for e in key):
        raise ParameterDomainError(f"moment exponents must be positive even: {exponents}")
    return key


def _one_like(values: Iterable[Number]) -> Number:
    for v in values:
        if isinstance(v, Fraction):
            return Fraction(1)
    return 1.0


@dataclass(frozen=True)
class MomentTable:
    """Immutable map from canonical exponent keys to moment values.

    Keys are stored sorted descending, which makes the permutation
    invariance of the underlying moments structural.
    """

    n: int
    moments: dict[tuple[int, ...], Number]

    def __post_init__(self):
        if self.n < 1:
            raise ParameterDomainError("table needs n >= 1")
        canonical = {moment_key(*k): v for k, v in self.moments.items()}
        object.__setattr__(self, "moments", canonical)

    def get(self, *exponents: int) -> Number:
        key = moment_key(*exponents)
        try:
            return self.moments[key]
        except KeyError:
            raise IncompleteTableError(f"moment table is missing {key}") from None


def complete_table(partial: MomentTable) -> MomentTable:
    """Fill all half-degree <= 4 entries of a unit-sphere table.

    Requires the pair, triple and quadruple moments ``(2,2), (2,2,2),
    (2,2,2,2)`` and the ``(4,4)`` entry; every other entry then has a
    closed form.  After completion the multinomial normalizations hold
    identically.
    """
    n = partial.n
    b22 = partial.get(2, 2)
    b222 = partial.get(2, 2, 2)
    b2222 = partial.get(2, 2, 2, 2)
    b44 = partial.get(4, 4)
    one = _one_like([b22, b222, b2222, b44])

    b2 = one / n
    b4 = one / n - (n - 1) * b22
    b42 = b22 / 2 - (n - 2) * b222 / 2
    b6 = one / n - 3 * (n - 1) * b22 / 2 + (n - 1) * (n - 2) * b222 / 2
    b62 = b22 / 2 - 5 * (n - 2) * b222 / 6 + (n - 2) * (n - 3) * b2222 / 3 - b44
    b422 = b222 / 3 + (3 - n) * b2222 / 3
    b8 = (
        one / n
        + 2 * (1 - n) * b22
        + (4 * n * n * one / 3 - 4 * n + 8 * one / 3) * b222
        + (-(n**3) * one / 3 + 2 * n * n - 11 * n * one / 3 + 2) * b2222
        + (n - 1) * b44
    )
    moments = dict(partial.moments)
    moments.update(
        {
            (2,): b2,
            (4,): b4,
            (4, 2): b42,
            (6,): b6,
            (6, 2): b62,
            (4, 2, 2): b422,
            (8,): b8,
        }
    )
    return MomentTable(n=n, moments=moments)


def sphere_identity_residuals(table: MomentTable) -> dict[str, Number]:
    """Residuals of every unit-sphere identity a full table must satisfy.

    All residuals are exactly zero for a consistent table in rational
    mode.  Names: ``fill_*`` are the closed-form completions, ``norm_k``
    the multinomial normalizations of degree k, ``lift_*`` the recursions
    from multiplying a monomial by ``1 = sum Z^2``.
    """
    n = table.n
    g = table.get
    filled = complete_table(table).get
    names = {key: "".join(map(str, key)) for key in ALL_KEYS}
    residuals = {f"fill_{names[k]}": g(*k) - filled(*k) for k in ALL_KEYS if k not in _BASE_KEYS}
    for m in (2, 3, 4):
        # unit weights: the distinct-index sum of a key with r indices is n!/(n-r)!
        unit_sum = sum(count * math.perm(n, len(key)) * g(*key) for key, count, _ in _patterns(m))
        residuals[f"norm_{m}"] = unit_sum - 1
    for key in ALL_KEYS:
        if sum(key) <= 6:
            # b_K = sum_i b_(K with e_i + 2) + (n - |K|) b_(K, 2)
            raised = sum(g(*key[:i], e + 2, *key[i + 1 :]) for i, e in enumerate(key))
            residuals[f"lift_{names[key]}"] = g(*key) - (raised + (n - len(key)) * g(*key, 2))
    return residuals


@dataclass(frozen=True)
class WeightVector:
    """Weights summing to one, with cached power sums ``S_j = sum a_k^j``."""

    a: tuple[Number, ...]
    s1: Number = field(init=False)
    s2: Number = field(init=False)
    s3: Number = field(init=False)
    s4: Number = field(init=False)

    def __post_init__(self):
        vals = tuple(self.a)
        if not vals:
            raise ParameterDomainError("weight vector must be nonempty")
        object.__setattr__(self, "a", vals)
        sums = [sum(v**j for v in vals) for j in (1, 2, 3, 4)]
        for name, s in zip(("s1", "s2", "s3", "s4"), sums):
            object.__setattr__(self, name, s)
        if abs(float(self.s1) - 1.0) > 1e-12:
            raise ParameterDomainError("weights must sum to 1")

    @classmethod
    def normalized(cls, values: Sequence[Number]) -> "WeightVector":
        total = sum(values)
        if total == 0:
            raise ParameterDomainError("cannot normalize weights with zero sum")
        return cls(tuple(v / total for v in values))


class KCoefficients(NamedTuple):
    """Polynomial-in-power-sums weights of the sphere fourth-moment formula.

    The five coefficients always sum to zero: ``sum(k) == 0``.
    """

    constant: Number
    c44: Number
    c22: Number
    c222: Number
    c2222: Number


def k_coefficients(s2: Number, s3: Number, s4: Number, n: int) -> KCoefficients:
    """Coefficients multiplying ``(n^4 b44, n^2 b22, n^3 b222, n^4 b2222, 1)``
    in the exact fourth moment of ``sum a_k (n Z_k^2 - 1)`` on the sphere."""
    one = _one_like([s2, s3, s4])
    constant = 6 * n * s2 - 4 * n * n * s3 + n**3 * s4 - 3 * one
    c44 = 3 * s2 * s2 - 4 * s3 + n * s4
    c22 = -12 * n * s2 + 8 * n * n * s3 - 2 * n**3 * s4 + 6 * one
    c222 = (
        8 * n * s2
        - 2 * n * s2 * s2
        + (8 * n * (1 - 2 * n) * one / 3) * s3
        + (2 * n * n * (2 * n - 1) * one / 3) * s4
        - 4 * one
    )
    c2222 = (
        -2 * n * s2
        + (2 * n - 3) * s2 * s2
        + (4 * (n * n - 2 * n + 3) * one / 3) * s3
        - (n * (n * n - 2 * n + 3) * one / 3) * s4
        + one
    )
    return KCoefficients(constant, c44, c22, c222, c2222)


def weighted_moment(w: WeightVector, t: MomentTable, m: int) -> Number:
    """``E[(sum a_k Z_k^2)^m]`` for exchangeable Z, one term per index
    coincidence pattern of half-degree ``m``."""
    p = {1: 1, 2: w.s2, 3: w.s3, 4: w.s4}.__getitem__
    return sum(count * poly(p) * t.get(*key) for key, count, poly in _patterns(m))


def fourth_moment_centered(w: WeightVector, t: MomentTable) -> Number:
    """``E[(sum a_k (Z_k^2 - E Z_k^2))^4]`` for exchangeable Z.

    The binomial expansion around ``c = E Z_k^2``, the mean of the weighted
    sum: ``E S^4 - 4c E S^3 + 6c^2 E S^2 - 3c^4`` with ``S = sum a_k Z_k^2``.
    Needs every table entry of half-degree <= 4; holds with or without the
    sphere constraint.
    """
    c = t.get(2)
    es2, es3, es4 = (weighted_moment(w, t, m) for m in (2, 3, 4))
    return es4 - 4 * c * es3 + 6 * c * c * es2 - 3 * c**4


def fourth_moment_sphere(w: WeightVector, t: MomentTable) -> Number:
    """``E[(sum a_k (n Z_k^2 - 1))^4]`` via the zero-sum coefficient form.

    Only valid for unit-sphere tables; the table is checked against the
    sphere identities first.
    """
    residuals = sphere_identity_residuals(t)
    worst = max(abs(float(v)) for v in residuals.values())
    if worst > _SPHERE_TOL:
        raise InconsistentTableError(
            f"table violates sphere identities (residual {worst:.3e})"
        )
    n = t.n
    k = k_coefficients(w.s2, w.s3, w.s4, n)
    return (
        k.c44 * n**4 * t.get(4, 4)
        + k.c22 * n**2 * t.get(2, 2)
        + k.c222 * n**3 * t.get(2, 2, 2)
        + k.c2222 * n**4 * t.get(2, 2, 2, 2)
        + k.constant
    )


class QuadraticFormMoments(NamedTuple):
    third_central: Number
    third_raw: Number
    cross_second: Number


def _symmetric_object_array(m, name: str) -> np.ndarray:
    arr = np.asarray(m, dtype=object)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ParameterDomainError(f"{name} must be square")
    if not (arr == arr.T).all():
        raise ParameterDomainError(f"{name} must be symmetric")
    return arr


def quadratic_form_moments(
    a_mat, b_mat, t: MomentTable
) -> QuadraticFormMoments:
    """Trace formulas for moments of ``z' A z`` under a sign-symmetric
    exchangeable law with moment table ``t``.

    Returns the centered and raw third moments of ``z' A z`` and the mixed
    second moment ``E[z' A z * z' B z]``.
    Only traces of products and Hadamard (entrywise) products enter, so
    the evaluation is exact for rational inputs.
    """
    a = _symmetric_object_array(a_mat, "A")
    b = _symmetric_object_array(b_mat, "B")
    if b.shape != a.shape:
        raise ParameterDomainError("A and B must have equal shapes")
    b2, b4, b6 = t.get(2), t.get(4), t.get(6)
    b22, b42, b222 = t.get(2, 2), t.get(4, 2), t.get(2, 2, 2)

    diag_a = np.diag(a)
    a2 = np.dot(a, a)
    tr_a = diag_a.sum()
    tr_a2 = np.diag(a2).sum()
    tr_a3 = (a2 * a).sum()
    tr_ada = (diag_a * diag_a).sum()
    tr_ada2 = (diag_a * np.diag(a2)).sum()
    tr_adada = (diag_a * diag_a * diag_a).sum()

    third_raw = (
        b222 * (tr_a**3 + 6 * tr_a * tr_a2 + 8 * tr_a3)
        + (b6 - 15 * b42 + 30 * b222) * tr_adada
        + (b42 - 3 * b222) * (3 * tr_a * tr_ada + 12 * tr_ada2)
    )

    def cross(c: np.ndarray) -> Number:
        """``E[z' A z * z' C z]``"""
        tr_ac = (a * c).sum()
        tr_adc = (diag_a * np.diag(c)).sum()
        return b22 * (tr_a * c.diagonal().sum() + 2 * tr_ac) + (b4 - 3 * b22) * tr_adc

    m1 = b2 * tr_a
    third_central = third_raw - 3 * cross(a) * m1 + 2 * m1**3
    return QuadraticFormMoments(third_central, third_raw, cross(b))


def _common_denominator(values: Iterable[Number]) -> tuple[list[int], int]:
    """Integers ``k_i`` and one denominator ``d`` with ``values[i] == k_i / d``.

    Each value is converted exactly by ``Fraction()``: an int, a
    ``Fraction`` or a finite float.
    """
    exact = [Fraction(v) for v in values]
    d = math.lcm(*(f.denominator for f in exact))
    return [f.numerator * (d // f.denominator) for f in exact], d


def permutation_oracle(z: Sequence[Number]) -> MomentTable:
    """Exact moment table of Z uniform over (signed) permutations of ``z``.

    The law is exchangeable and sign-symmetric with
    ``sum Z_k^2 = |z|^2``; normalize ``z`` to unit norm to obtain a
    sphere table.  Even moments do not depend on the signs, so the
    enumeration runs over the n! permutations, in integers after scaling
    ``z`` to one common denominator.  Every key of half-degree <= 4 is
    tabulated; keys with more distinct indices than coordinates
    have empty support and are stored as exact zeros (every identity
    multiplies them by a coefficient that vanishes there).
    """
    n = len(z)
    if n < 1 or n > _MAX_ORACLE_N:
        raise ResourceError(f"enumeration oracle supports 1 <= n <= {_MAX_ORACLE_N}")
    iz, d = _common_denominator(z)
    pows = [[(v * v) ** k for k in range(5)] for v in iz]
    keys = [k for k in ALL_KEYS if len(k) <= n]
    halves = {key: tuple(e // 2 for e in key) for key in keys}
    totals = {key: 0 for key in ALL_KEYS}
    for perm in itertools.permutations(range(n)):
        for key in keys:
            value = 1
            for slot, k in enumerate(halves[key]):
                value *= pows[perm[slot]][k]
            totals[key] += value
    # a key of total exponent e carries the denominator d^e
    count = math.factorial(n)
    return MomentTable(
        n=n,
        moments={key: Fraction(total, count * d ** sum(key)) for key, total in totals.items()},
    )


def enumerated_weighted_power(
    a: Sequence[Number],
    z: Sequence[Number],
    power: int,
    shift: Number = 0,
    factor: Number = 1,
) -> Fraction:
    """Brute-force ``E[(factor * sum_k a_k Z_k^2 + shift)^power]`` where Z
    runs over the permutations of ``z``, summed in integers after scaling
    ``a``, ``z`` and ``(factor, shift)`` to common denominators."""
    n = len(z)
    if n != len(a):
        raise ParameterDomainError("weights and support vector must have equal length")
    if n > _MAX_ORACLE_N or power > _MAX_ORACLE_DEGREE:
        raise ResourceError("enumeration exceeds the oracle size caps")
    ia, da = _common_denominator(a)
    iz, dz = _common_denominator(z)
    (i_factor, i_shift), d_fs = _common_denominator((factor, shift))
    # sum_k a_k Z_k^2 = s / scale
    scale = da * dz * dz
    total = 0
    for perm in itertools.permutations([v * v for v in iz]):
        s = sum(map(operator.mul, ia, perm))
        total += (i_factor * s + i_shift * scale) ** power
    return Fraction(total, math.factorial(n) * (d_fs * scale) ** power)


def enumerated_quadratic_form_moments(a_mat, b_mat, z: Sequence[Number]) -> QuadraticFormMoments:
    """Brute-force quadratic-form moments over all sign-permutation pairs.

    Enumerates the full ``2^n * n!`` support of Z (uniform over signed
    permutations of ``z``) and reduces the raw moments of ``z' A z``; this
    is the independent ground truth for :func:`quadratic_form_moments`.
    ``A``, ``B`` and ``z`` are scaled to integers, so the sums are exact.
    """
    n = len(z)
    if n > 6:
        raise ResourceError("signed enumeration supports n <= 6")
    a = _symmetric_object_array(a_mat, "A")
    b = _symmetric_object_array(b_mat, "B")
    if a.shape != (n, n) or b.shape != a.shape:
        raise ParameterDomainError(f"A and B must be {n}x{n} to match z")
    iz, dz = _common_denominator(z)
    flat_a, da = _common_denominator(a.flat)
    flat_b, db = _common_denominator(b.flat)
    rows_a = [flat_a[i * n : (i + 1) * n] for i in range(n)]
    rows_b = [flat_b[i * n : (i + 1) * n] for i in range(n)]

    def form(rows, v):
        return sum(vi * sum(map(operator.mul, row, v)) for vi, row in zip(v, rows))

    s1 = s2 = s3 = cross = 0
    for perm in itertools.permutations(iz):
        for signs in itertools.product((1, -1), repeat=n):
            v = [s * x for s, x in zip(signs, perm)]
            qa = form(rows_a, v)
            qb = form(rows_b, v)
            s1 += qa
            s2 += qa * qa
            s3 += qa * qa * qa
            cross += qa * qb
    # z' A z = qa / (da dz^2) and z' B z = qb / (db dz^2)
    count = math.factorial(n) << n
    scale_a = da * dz * dz
    m1 = Fraction(s1, count * scale_a)
    m2 = Fraction(s2, count * scale_a**2)
    m3 = Fraction(s3, count * scale_a**3)
    cross_second = Fraction(cross, count * scale_a * db * dz * dz)
    third_central = m3 - 3 * m2 * m1 + 2 * m1**3
    return QuadraticFormMoments(third_central, m3, cross_second)


def rational_unit_vector(n: int, rng: np.random.Generator) -> tuple[Fraction, ...]:
    """Random rational point on the unit sphere, exact norm one.

    Stereographic image of a random rational vector: for v in Q^{n-1},
    ``(2v, |v|^2 - 1) / (|v|^2 + 1)`` lies on the sphere exactly.
    """
    if n < 2:
        raise ParameterDomainError("need n >= 2")
    v = [
        Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
        for _ in range(n - 1)
    ]
    s = sum(x * x for x in v)
    denom = s + 1
    return tuple([2 * x / denom for x in v] + [(s - 1) / denom])


def rational_weights(n: int, rng: np.random.Generator) -> WeightVector:
    """Random rational weights summing to one, exact."""
    raw = [Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 7))) for _ in range(n)]
    return WeightVector.normalized(raw)


# ---------------------------------------------------------------------------
# Monte Carlo estimation of sphere tables from self-normalized rows
# ---------------------------------------------------------------------------

def _row_estimates(
    y2: np.ndarray, n: int, keys: Sequence[tuple[int, ...]]
) -> dict[tuple[int, ...], np.ndarray]:
    """Per-row unbiased estimates of the requested half-degree <= 4 moments.

    Averages the monomial over all distinct index tuples of one
    exchangeable row: the key's ``_COINCIDENCES`` polynomial in
    ``p(j) = sum_k Y_k^(2j)`` (``p(1) = 1`` by the sphere constraint),
    divided by the number of tuples.  Only the power sums that the
    requested estimates use are formed.
    """
    y4 = y2 * y2
    factor = {3: y2, 4: y4}

    @functools.cache
    def p(j: int) -> np.ndarray:
        if j == 1:
            return np.ones(y2.shape[0])
        return (y4 * factor[j] if j > 2 else y4).sum(axis=1)

    return {key: _COINCIDENCES[key][1](p) / math.perm(n, len(key)) for key in keys}


def check_batch_shape(n: int, reps: int) -> None:
    """Reject the ``n`` and ``reps`` that ``mc_moment_batches`` cannot
    estimate from, before anything is drawn."""
    if n < 4:
        raise ParameterDomainError("need n >= 4 for the quadruple moments")
    if reps < MC_BATCHES:
        raise ParameterDomainError("need at least one replication per batch")


def mc_moment_batches(
    law: TailLaw,
    n: int,
    reps: int,
    rng: RngStream,
    keys: Sequence[tuple[int, ...]] = ALL_KEYS,
) -> dict[tuple[int, ...], np.ndarray]:
    """Batch means of the sphere-moment estimators over ``reps`` rows.

    Rows are self-normalized draws ``Y = X / |X|`` with ``X`` i.i.d. from
    ``law``; batch ``b`` draws its rows one after another from the derived
    substream ``rng.generator(b)`` through the same per-law sampler and
    row blocks (``_row_blocks``) as ``fill_matrix``.  Returns, per
    requested moment key (all of ``ALL_KEYS`` by default), the array of
    ``MC_BATCHES`` batch means; the draws, and so the means, do not depend
    on which keys are requested.

    The batches run on a thread pool sized by ``resolve_parallelism`` for
    one batch's rows * n (``THREADS`` wins).  Each batch is drawn,
    transformed and estimated block by block into one per-row array per
    key, summed once per batch, so neither the thread count nor the block
    size changes a bit of the result.  Memory in flight per worker is one
    row block of raw draws and its transform, plus ``reps / MC_BATCHES``
    floats per requested key.  A row whose squared norm is 0 or not finite
    raises :class:`DegenerateInputError` naming its batch and row.
    """
    check_batch_shape(n, reps)
    base, extra = divmod(reps, MC_BATCHES)

    def batch_means(b: int) -> list[float]:
        m_batch = base + (1 if b < extra else 0)
        draw = _raw_sampler(law, rng.generator(b))
        per_row = {key: np.empty(m_batch) for key in keys}
        for rows, raw in _row_blocks(law, m_batch, n):
            draw(out=raw)
            y2 = _transform(law, raw)
            y2 *= y2
            norms_sq = y2.sum(axis=1)
            ok = (norms_sq > 0.0) & (norms_sq < np.inf)  # unscaled squares: 0, inf or NaN fail
            if not ok.all():
                i = int(np.argmin(ok))
                row = f"Monte Carlo batch {b}: row {rows.start + i}"
                raise DegenerateInputError(f"{row} has squared norm {norms_sq[i]:g}")
            y2 /= norms_sq[:, None]
            for key, vals in _row_estimates(y2, n, keys).items():
                per_row[key][rows] = vals
        return [float(per_row[key].sum()) / m_batch for key in keys]

    workers = resolve_parallelism(None, (base + (extra > 0)) * n)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        means = list((pool.map if workers > 1 else map)(batch_means, range(MC_BATCHES)))
    return {key: np.array(column) for key, column in zip(keys, zip(*means))}
