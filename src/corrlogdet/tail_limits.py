"""Limiting constants of scaled sphere moments for regularly varying entries.

For entries with tail index ``alpha`` in (2, 4) and unit variance, the
joint even moment of a self-normalized row with half-exponents
``k_1, ..., k_r`` decays like ``n**-e`` times a power of the slowly
varying tail factor, where ``e = N1 * (1 - alpha/2) + r * alpha/2`` and
``N1`` counts the exponents equal to one.  The limit of the rescaled
moment is an explicit ratio of Gamma functions; this module evaluates it
and runs Monte Carlo convergence diagnostics against it using
median-of-means estimates (heavy-tailed replication noise makes the raw
mean unreliable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterDomainError
from .moments import check_batch_shape, mc_moment_batches, moment_key
from .sampling import RngStream, TailLaw, resolve_parallelism

_MOM_BLOCKS = 16


@dataclass(frozen=True)
class MomentLimitQuery:
    """Asymptotics request: tail index and half-exponents of the moment."""

    alpha: float
    exponents: tuple[int, ...]

    def __post_init__(self):
        if not 2.0 < self.alpha < 4.0:
            raise ParameterDomainError("tail index must lie strictly in (2, 4)")
        exps = tuple(int(k) for k in self.exponents)
        if not exps or any(k < 1 for k in exps):
            raise ParameterDomainError("exponents must be integers >= 1")
        object.__setattr__(self, "exponents", exps)

    @property
    def r(self) -> int:
        return len(self.exponents)

    @property
    def unit_count(self) -> int:
        """Number of exponents equal to one (they carry no tail factor)."""
        return sum(1 for k in self.exponents if k == 1)

    @property
    def scaling_exponent(self) -> float:
        n1 = self.unit_count
        return n1 * (1.0 - self.alpha / 2.0) + self.r * self.alpha / 2.0


def moment_limit(query: MomentLimitQuery) -> float:
    """Limit of ``n**e / L**(r - N1) * beta`` for the queried moment."""
    a2 = query.alpha / 2.0
    heavy = [k for k in query.exponents if k >= 2]
    value = (a2) ** len(heavy) * math.gamma(query.scaling_exponent)
    for k in heavy:
        value *= math.gamma(k - a2)
    return value / math.gamma(sum(query.exponents))


def standardized_tail_constant(law: TailLaw) -> float:
    """Tail constant of the variance-one rescaling of ``law``.

    Dividing X by its standard deviation scales the tail constant by
    ``variance**(-alpha/2)``; the self-normalized row is scale invariant,
    so this is pure bookkeeping between the raw draw and the unit-variance
    convention of the limit formulas.
    """
    c = law.sv_constant
    if c is None:
        raise ParameterDomainError("law has no power-law tail constant")
    var = law.variance()
    if not math.isfinite(var):
        raise ParameterDomainError("law needs a finite variance (tail index > 2)")
    return c * var ** (-law.tail_index / 2.0)


@dataclass(frozen=True)
class DiagnosticRow:
    n: int
    estimate: float
    limit: float
    ratio: float


def convergence_diagnostic(
    law: TailLaw,
    exponents: tuple[int, ...] | list[int],
    n_grid: list[int],
    reps: int,
    rng: RngStream,
) -> list[DiagnosticRow]:
    """Scaled Monte Carlo moments against their closed-form limits.

    For each n in the grid, estimates the moment by the median of
    16 block means, applies the ``n**e`` scaling and divides out
    the standardized tail constant; the ratio to the limit should tend
    to 1.  The pure unit-exponent case ``(1,)`` is the sphere constraint
    and gives ratio exactly 1 at every n.
    """
    resolve_parallelism(None, 0)  # a bad THREADS fails even where no batch runs
    query = MomentLimitQuery(alpha=law.tail_index, exponents=tuple(exponents))
    if sum(query.exponents) > 4:
        raise ParameterDomainError("diagnostics support total half-degree <= 4")
    if any(n < 1 for n in n_grid):
        raise ParameterDomainError(f"grid entries must be >= 1, got {list(n_grid)}")
    sphere = query.exponents == (1,)
    if not sphere:
        # every grid point is checked before the first one is estimated
        for n in n_grid:
            check_batch_shape(n, reps, _MOM_BLOCKS)
        tail_c = standardized_tail_constant(law)
        key = moment_key(*(2 * k for k in query.exponents))
    limit = moment_limit(query)
    rows = []
    for idx, n in enumerate(n_grid):
        if sphere:
            estimate = 1.0
        else:
            batch = mc_moment_batches(
                law, n, reps, RngStream(rng.master_seed, rng.stream_id ^ (idx + 1)),
                batches=_MOM_BLOCKS, keys=(key,),
            )[key]
            mom = float(np.median(batch))
            estimate = n**query.scaling_exponent * mom / tail_c ** (query.r - query.unit_count)
        rows.append(DiagnosticRow(n=int(n), estimate=estimate, limit=limit, ratio=estimate / limit))
    return rows


def diagnostic_csv(rows: list[DiagnosticRow]) -> str:
    lines = ["n,estimate,limit,ratio,mom_blocks"]
    for row in rows:
        lines.append(f"{row.n},{row.estimate!r},{row.limit!r},{row.ratio!r},{_MOM_BLOCKS}")
    return "\n".join(lines) + "\n"
