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
    _block_rows,
    _raw_sampler,
    _transform,
    _width,
    resolve_parallelism,
)

Number = float | Fraction

# Enumeration caps: n! * 2^n stays desk-scale.
_MAX_ORACLE_N = 8
_MAX_ORACLE_DEGREE = 6
_SPHERE_TOL = 1e-8

# Monte Carlo batches per moment estimate; entries per batch chunk (at least one row)
MC_BATCHES = 16
_MAX_CHUNK_ENTRIES = 1 << 23

_LOW_KEYS = ((2,), (4,), (2, 2))
_DEGREE3_KEYS = ((6,), (4, 2), (2, 2, 2))
_DEGREE4_KEYS = ((8,), (6, 2), (4, 4), (4, 2, 2), (2, 2, 2, 2))
ALL_KEYS = _LOW_KEYS + _DEGREE3_KEYS + _DEGREE4_KEYS


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

    def require(self, keys: Iterable[tuple[int, ...]]) -> None:
        missing = [k for k in keys if k not in self.moments]
        if missing:
            raise IncompleteTableError(f"moment table is missing {missing}")


def complete_table(partial: MomentTable) -> MomentTable:
    """Fill all half-degree <= 4 entries of a unit-sphere table.

    Requires the pair, triple and quadruple moments ``(2,2), (2,2,2),
    (2,2,2,2)`` and the ``(4,4)`` entry; every other entry then has a
    closed form.  After completion the multinomial normalizations hold
    identically.
    """
    partial.require([(2, 2), (2, 2, 2), (2, 2, 2, 2), (4, 4)])
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
    table.require(ALL_KEYS)
    n = table.n
    g = table.get
    b2, b4, b22 = g(2), g(4), g(2, 2)
    b6, b42, b222 = g(6), g(4, 2), g(2, 2, 2)
    b8, b62, b44, b422, b2222 = g(8), g(6, 2), g(4, 4), g(4, 2, 2), g(2, 2, 2, 2)
    filled = complete_table(table).get

    return {
        "fill_2": b2 - filled(2),
        "fill_4": b4 - filled(4),
        "fill_42": b42 - filled(4, 2),
        "fill_6": b6 - filled(6),
        "fill_62": b62 - filled(6, 2),
        "fill_422": b422 - filled(4, 2, 2),
        "fill_8": b8 - filled(8),
        "norm_2": n * b4 + n * (n - 1) * b22 - 1,
        "norm_3": n * b6 + 3 * n * (n - 1) * b42 + n * (n - 1) * (n - 2) * b222 - 1,
        "norm_4": (
            n * b8
            + 4 * n * (n - 1) * b62
            + 3 * n * (n - 1) * b44
            + 6 * n * (n - 1) * (n - 2) * b422
            + n * (n - 1) * (n - 2) * (n - 3) * b2222
            - 1
        ),
        "lift_2": b2 - (b4 + (n - 1) * b22),
        "lift_4": b4 - (b6 + (n - 1) * b42),
        "lift_6": b6 - (b8 + (n - 1) * b62),
        "lift_22": b22 - (b42 + b42 + (n - 2) * b222),
        "lift_42": b42 - (b62 + b44 + (n - 2) * b422),
        "lift_222": b222 - (3 * b422 + (n - 3) * b2222),
    }


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


def fourth_moment_raw(w: WeightVector, t: MomentTable) -> Number:
    """``E[(sum a_k Z_k^2)^4]``, expanded over index coincidence patterns."""
    t.require(_DEGREE4_KEYS)
    s2, s3, s4 = w.s2, w.s3, w.s4
    return (
        w.s4 * t.get(8)
        + 4 * (s3 - s4) * t.get(6, 2)
        + 6 * (s2 - s2 * s2 - 2 * s3 + 2 * s4) * t.get(4, 2, 2)
        + 3 * (s2 * s2 - s4) * t.get(4, 4)
        + (1 - 6 * s2 + 3 * s2 * s2 + 8 * s3 - 6 * s4) * t.get(2, 2, 2, 2)
    )


def fourth_moment_centered(w: WeightVector, t: MomentTable) -> Number:
    """``E[(sum a_k (Z_k^2 - E Z_k^2))^4]`` for exchangeable Z.

    The binomial expansion around ``c = E Z_k^2``, the mean of the weighted
    sum: ``E S^4 - 4c E S^3 + 6c^2 E S^2 - 3c^4`` with ``S = sum a_k Z_k^2``.
    Needs every table entry of half-degree <= 4; holds with or without the
    sphere constraint.
    """
    t.require(ALL_KEYS)
    s2, s3 = w.s2, w.s3
    c = t.get(2)
    es2 = s2 * t.get(4) + (1 - s2) * t.get(2, 2)
    es3 = s3 * t.get(6) + 3 * (s2 - s3) * t.get(4, 2) + (1 - 3 * s2 + 2 * s3) * t.get(2, 2, 2)
    return fourth_moment_raw(w, t) - 4 * c * es3 + 6 * c * c * es2 - 3 * c**4


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
    t.require([(2,), (4,), (6,), (2, 2), (4, 2), (2, 2, 2)])
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

    third_central = (
        8 * b222 * tr_a3
        + (b222 + 2 * b2**3 - 3 * b2 * b22) * tr_a**3
        + 6 * (b222 - b2 * b22) * tr_a * tr_a2
        + 3 * (b42 - b4 * b2 + 3 * b22 * b2 - 3 * b222) * tr_a * tr_ada
        + 12 * (b42 - 3 * b222) * tr_ada2
        + (b6 - 15 * b42 + 30 * b222) * tr_adada
    )
    third_raw = (
        b222 * (tr_a**3 + 6 * tr_a * tr_a2 + 8 * tr_a3)
        + (b6 - 15 * b42 + 30 * b222) * tr_adada
        + (b42 - 3 * b222) * (3 * tr_a * tr_ada + 12 * tr_ada2)
    )
    tr_ab = (a * b).sum()
    tr_adb = (np.diag(a) * np.diag(b)).sum()
    cross_second = b22 * (tr_a * b.diagonal().sum() + 2 * tr_ab) + (b4 - 3 * b22) * tr_adb
    return QuadraticFormMoments(third_central, third_raw, cross_second)


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
    exchangeable row; with ``p_j = sum_k Y_k^(2j)`` (and ``p_1 = 1`` by the
    sphere constraint) each estimate is a polynomial in the power sums.
    Only the power sums that the requested estimates use are formed.
    """
    y4 = y2 * y2
    factor = {3: y2, 4: y4}

    @functools.cache
    def p(j: int) -> np.ndarray:
        return (y4 * factor[j] if j > 2 else y4).sum(axis=1)

    d2 = float(n * (n - 1))
    d3 = d2 * (n - 2)
    d4 = d3 * (n - 3)
    formulas = {
        (2,): lambda: np.ones(y2.shape[0]) / n,
        (4,): lambda: p(2) / n,
        (6,): lambda: p(3) / n,
        (8,): lambda: p(4) / n,
        (2, 2): lambda: (1.0 - p(2)) / d2,
        (4, 2): lambda: (p(2) - p(3)) / d2,
        (6, 2): lambda: (p(3) - p(4)) / d2,
        (4, 4): lambda: (p(2) * p(2) - p(4)) / d2,
        (2, 2, 2): lambda: (1.0 - 3.0 * p(2) + 2.0 * p(3)) / d3,
        (4, 2, 2): lambda: (p(2) - p(2) * p(2) - 2.0 * p(3) + 2.0 * p(4)) / d3,
        (2, 2, 2, 2): lambda: (
            1.0 - 6.0 * p(2) + 3.0 * p(2) * p(2) + 8.0 * p(3) - 6.0 * p(4)
        ) / d4,
    }
    return {key: formulas[key]() for key in keys}


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
    ``law``; batch ``b`` draws its rows, chunk by chunk, from the derived
    substream ``rng.generator(b)`` through the same per-law sampler as
    ``fill_matrix``.  Returns, per requested moment key (all of
    ``ALL_KEYS`` by default), the array of ``MC_BATCHES`` batch means; the
    draws, and so the means, do not depend on which keys are requested.

    The batches run on a thread pool sized by ``resolve_parallelism`` for
    one batch chunk (``THREADS`` wins).  Each chunk is transformed and
    estimated in row blocks of at most ``_BLOCK_DRAWS`` raw draws (but at
    least two rows) into per-row values that are summed once per chunk, so
    neither the thread count nor the blocks change a bit of the result.
    Memory in flight is one chunk of raw draws per worker.
    """
    check_batch_shape(n, reps)
    rows_per_chunk = max(1, _MAX_CHUNK_ENTRIES // n)
    # einsum sums a row longer than its 8192-element buffer in another order
    # when the array holds that row alone, so a block has at least two rows
    # unless its chunk has one: a lone last row joins the block before it
    block = max(2, _block_rows(law, n))
    base, extra = divmod(reps, MC_BATCHES)
    width = _width(law)

    def batch_means(b: int) -> list[float]:
        m_batch = base + (1 if b < extra else 0)
        draw = _raw_sampler(law, rng.generator(b))
        sums = dict.fromkeys(keys, 0.0)
        rows = min(rows_per_chunk, m_batch)
        per_row = {key: np.empty(rows) for key in keys}
        # one buffer holds every chunk's raw draws: the next chunk's draws
        # never sit beside the last one's
        buf = np.empty(width * rows * n)
        done = 0
        while done < m_batch:
            m = min(rows_per_chunk, m_batch - done)
            raw = buf[: width * m * n].reshape(width, m, n)
            draw(out=raw)
            for start in range(0, max(m - 1, 1), block):
                stop = m if start + block >= m - 1 else start + block
                y2 = _transform(law, raw[:, start:stop])
                norms_sq = np.einsum("ij,ij->i", y2, y2)
                if not np.all(norms_sq > 0.0):
                    raise DegenerateInputError("zero row encountered in Monte Carlo draw")
                y2 *= y2
                y2 /= norms_sq[:, None]
                for key, vals in _row_estimates(y2, n, keys).items():
                    per_row[key][start:stop] = vals
            for key in keys:
                sums[key] += float(per_row[key][:m].sum())
            done += m
        return [sums[key] / m_batch for key in keys]

    workers = resolve_parallelism(None, min(base + (extra > 0), rows_per_chunk) * n)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        means = list((pool.map if workers > 1 else map)(batch_means, range(MC_BATCHES)))
    return {key: np.array(column) for key, column in zip(keys, zip(*means))}
