"""Self-contained verification suites behind the CLI and acceptance tests.

Two kinds of checks: exact-rational certification of the moment
identities against enumeration oracles, and a numerical audit of the
sequential log-det recursion against the Cholesky evaluation, including
the projector entry bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .blas import single_blas_thread
from .errors import ParameterDomainError
from .girko import audit_bounds, girko_log_det
from .matrices import log_det_spd, sample_correlation
from .moments import (
    _MAX_ORACLE_N,
    WeightVector,
    enumerated_quadratic_form_moments,
    enumerated_weighted_power,
    fourth_moment_centered,
    fourth_moment_sphere,
    k_coefficients,
    permutation_oracle,
    quadratic_form_moments,
    rational_unit_vector,
    rational_weights,
    sphere_identity_residuals,
    weighted_moment,
)
from .sampling import RngStream, TailLaw, fill_matrix

GIRKO_REL_TOL = 1e-8
ZERO_SUM_TOL = 1e-10
ZERO_SUM_VECTORS = 1000
STATE_TOL = 1e-10


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


@dataclass
class VerificationReport:
    title: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str) -> None:
        self.checks.append(CheckResult(name, passed, detail))

    def lines(self) -> list[str]:
        out = [c.line() for c in self.checks]
        out.append(f"{self.title}: {'all checks passed' if self.passed else 'FAILURES present'}")
        return out


def certify_sphere_identities(n_values, vectors: int, seed: int) -> VerificationReport:
    """Exact certification of every sphere identity on enumeration tables.

    For each n, draws random rational unit vectors, builds the exact
    permutation-law table and requires zero residual from each identity,
    exact agreement of the closed-form completion with the enumerated
    table, and exact agreement of the two independent evaluations of the
    fourth moment of ``sum a_k (n Z_k^2 - 1)``.
    """
    rng = np.random.default_rng(seed)
    report = VerificationReport("sphere identity certification")
    for n in n_values:
        worst_identity = 0
        completion_exact = True
        two_routes_exact = True
        for _ in range(vectors):
            z = rational_unit_vector(n, rng)
            table = permutation_oracle(z)
            residuals = sphere_identity_residuals(table)
            nonzero = [name for name, v in residuals.items() if v != 0]
            worst_identity += len(nonzero)
            if any(name.startswith("fill_") for name in nonzero):
                completion_exact = False

            w = rational_weights(n, rng)
            lhs = Fraction(n) ** 4 * fourth_moment_centered(w, table)
            rhs = fourth_moment_sphere(w, table)
            if lhs != rhs:
                two_routes_exact = False
        report.add(
            f"identities exact (n={n})",
            worst_identity == 0,
            f"{vectors} random rational unit vectors, {worst_identity} nonzero residuals",
        )
        report.add(
            f"closed-form completion exact (n={n})",
            completion_exact,
            "completion reproduces the enumerated table" if completion_exact else "mismatch",
        )
        report.add(
            f"fourth-moment two-route equality (n={n})",
            two_routes_exact,
            "coefficient form equals direct centered expansion"
            if two_routes_exact
            else "mismatch",
        )
    return report


def certify_zero_sum(seed: int) -> VerificationReport:
    """Floating-point zero-sum check of the five coefficient polynomials."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(ZERO_SUM_VECTORS):
        n = int(rng.integers(3, 41))
        raw = rng.uniform(0.05, 1.0, size=n)
        w = WeightVector.normalized([float(v) for v in raw])
        k = k_coefficients(w.s2, w.s3, w.s4, n)
        worst = max(worst, abs(float(sum(k))))
    report = VerificationReport("coefficient zero-sum")
    report.add(
        "zero-sum residual",
        worst <= ZERO_SUM_TOL,
        f"{ZERO_SUM_VECTORS} random weight vectors, max |sum of coefficients| = {worst:.3e}",
    )
    return report


def _random_rational_vector(n: int, rng: np.random.Generator) -> tuple[Fraction, ...]:
    while True:
        z = tuple(
            Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7))) for _ in range(n)
        )
        if any(z):
            return z


def _random_rational_symmetric(n: int, rng: np.random.Generator) -> list[list[Fraction]]:
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 5)))
            m[i][j] = v
            m[j][i] = v
    return m


def certify_enumeration_equivalence(n_values, trials: int, seed: int) -> VerificationReport:
    """Exact equality of every moment formula with brute-force enumeration.

    Covers the raw/centered/sphere fourth moments of weighted sums of
    squared coordinates and the three quadratic-form moment formulas,
    over random rational inputs.
    """
    rng = np.random.default_rng(seed)
    report = VerificationReport("enumeration equivalence")
    for n in n_values:
        failures = {"raw": 0, "centered": 0, "sphere": 0, "quadratic": 0}
        for _ in range(trials):
            z_free = _random_rational_vector(n, rng)
            table_free = permutation_oracle(z_free)
            w = rational_weights(n, rng)

            raw = weighted_moment(w, table_free, 4)
            if raw != enumerated_weighted_power(w.a, z_free, 4):
                failures["raw"] += 1

            mean_sq = table_free.get(2)
            centered = fourth_moment_centered(w, table_free)
            if centered != enumerated_weighted_power(w.a, z_free, 4, shift=-mean_sq):
                failures["centered"] += 1

            z_unit = rational_unit_vector(n, rng)
            table_unit = permutation_oracle(z_unit)
            sphere = fourth_moment_sphere(w, table_unit)
            brute = enumerated_weighted_power(w.a, z_unit, 4, shift=-1, factor=n)
            if sphere != brute:
                failures["sphere"] += 1

            a_mat = _random_rational_symmetric(n, rng)
            b_mat = _random_rational_symmetric(n, rng)
            formula = quadratic_form_moments(a_mat, b_mat, table_free)
            enumerated = enumerated_quadratic_form_moments(a_mat, b_mat, z_free)
            if tuple(formula) != tuple(enumerated):
                failures["quadratic"] += 1
        for name, bad in failures.items():
            report.add(
                f"{name} vs enumeration (n={n})",
                bad == 0,
                f"{trials} trials, {bad} mismatches",
            )
    return report


def verify_moments(
    nmax: int = 6, vectors: int = 50, trials: int = 20, seed: int = 20243
) -> VerificationReport:
    """Umbrella rational-arithmetic certification used by the CLI."""
    if not 3 <= nmax <= _MAX_ORACLE_N or vectors < 1 or trials < 1 or seed < 0:
        raise ParameterDomainError(
            f"need 3 <= nmax <= {_MAX_ORACLE_N}, vectors >= 1, trials >= 1 and seed >= 0"
        )
    report = VerificationReport("moment identity verification")
    report.checks += certify_sphere_identities(
        tuple(range(3, nmax + 1)), vectors=vectors, seed=seed
    ).checks
    report.checks += certify_zero_sum(seed=seed + 1).checks
    report.checks += certify_enumeration_equivalence(
        tuple(range(3, min(nmax, 5) + 1)), trials=trials, seed=seed + 2
    ).checks
    return report


_GIRKO_LAWS = (
    TailLaw.gaussian(),
    TailLaw.student_t(3.5),
    TailLaw.symmetric_pareto(3.5),
)
_GIRKO_MAX_P = 200


def verify_girko(cases: int = 200, seed: int = 20244) -> VerificationReport:
    """Random-case agreement of the recursion with the Cholesky route.

    Each case checks the relative log-det disagreement, the diagonal /
    off-diagonal entry bounds of the unit-trace projector at every step,
    its unit trace, and the exactness of the diagonal/off-diagonal split.
    """
    if cases < 1 or seed < 0:
        raise ParameterDomainError("need cases >= 1 and seed >= 0")
    rng = np.random.default_rng(seed)
    worst_rel = worst_split = worst_trace = 0.0
    bad_bounds = 0
    for case in range(cases):
        law = _GIRKO_LAWS[int(rng.integers(len(_GIRKO_LAWS)))]
        p = int(rng.integers(5, _GIRKO_MAX_P + 1))
        ratio = float(rng.uniform(0.1, 0.9))
        n = max(p + 1, int(round(p / ratio)))

        with single_blas_thread():
            x = fill_matrix(law, p, n, RngStream(seed, case))
            chol = log_det_spd(sample_correlation(x))
            # sample_correlation left the row-normalized Y in x
            trace = girko_log_det(x.values)
            diag_min, diag_max, offdiag_max, trace_error = audit_bounds(trace)

        rel = abs(trace.log_det - chol) / max(abs(chol), 1e-6)
        split = float(np.max(np.abs(trace.u_part + trace.v_part - trace.z_tilde)))
        tr_err = float(np.max(trace_error))
        scale = n - np.arange(p)
        diag_ok = bool(np.all(diag_min >= -1e-12) and np.all(diag_max <= 1.0 / scale + 1e-12))
        off_ok = bool(np.all(offdiag_max <= 0.5 / scale + 1e-12))
        s1_err = float(np.max(np.abs(trace.power_sums[:, 0] - 1.0)))
        worst_rel = max(worst_rel, rel)
        worst_split = max(worst_split, split, s1_err)
        worst_trace = max(worst_trace, tr_err)
        bad_bounds += not (diag_ok and off_ok)

    report = VerificationReport("sequential vs Cholesky log-det")
    report.add(
        "log-det agreement",
        worst_rel <= GIRKO_REL_TOL,
        f"{cases} cases, worst relative disagreement {worst_rel:.3e}",
    )
    report.add(
        "split and unit power sum",
        worst_split <= STATE_TOL,
        f"max |u+v-z| / |S1-1| defect {worst_split:.3e}",
    )
    report.add(
        "projector unit trace",
        worst_trace <= STATE_TOL,
        f"max |tr Q - 1| = {worst_trace:.3e}",
    )
    report.add(
        "projector entry bounds",
        bad_bounds == 0,
        f"{bad_bounds} cases violated the diagonal/off-diagonal bounds",
    )
    return report
