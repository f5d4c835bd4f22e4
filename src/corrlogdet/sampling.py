"""Seeded generation of i.i.d. heavy-tailed matrix entries.

Four entry distributions are supported: standard normal, Student-t,
symmetric Pareto (fair sign times a magnitude with survival function
``x**-alpha`` on ``[1, inf)``), and inverse gamma (optionally centered at
zero by subtracting its population mean).  Each family carries its tail
index and, where the tail is asymptotically ``c * x**-alpha``, the
constant ``c``.

Each matrix row draws from its own derived substream, so row ``i`` is a
pure function of ``(master_seed, stream_id, i)`` regardless of traversal
order.  The symmetric laws map a fixed number of uniforms per entry, so
each entry sits at a fixed offset of its row's uniform stream; inverse
gamma divides the scale by ``Generator.standard_gamma`` variates
(Marsaglia-Tsang rejection), so only its rows are addressable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import ParameterDomainError, ResourceError
from .matrices import DataMatrix

_MASK64 = (1 << 64) - 1

# Uniforms lie on the grid {k * 2**-53}; remapping the measure-zero draw
# u == 0 keeps the normal quantile transform finite.
_OPEN_EPS = 2.0**-53

_FAMILIES = ("gaussian", "student_t", "symmetric_pareto", "inverse_gamma")

# Hard cap on matrix entries, refusing absurd allocations up front.
_MAX_ENTRIES = 1 << 31


@dataclass(frozen=True)
class TailLaw:
    """Entry distribution with tail-index metadata.

    Use the classmethod constructors; the fields not used by a family stay
    ``None``.  ``centered`` only applies to the inverse gamma family.
    """

    family: str
    df: float | None = None
    alpha: float | None = None
    shape: float | None = None
    scale: float | None = None
    centered: bool = True

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ParameterDomainError(f"unknown family {self.family!r}")
        if self.family == "student_t":
            if self.df is None or not self.df > 0:
                raise ParameterDomainError("student_t requires df > 0")
        elif self.family == "symmetric_pareto":
            if self.alpha is None or not self.alpha > 0:
                raise ParameterDomainError("symmetric_pareto requires alpha > 0")
        elif self.family == "inverse_gamma":
            if self.shape is None or not self.shape > 0:
                raise ParameterDomainError("inverse_gamma requires shape > 0")
            if self.scale is None or not self.scale > 0:
                raise ParameterDomainError("inverse_gamma requires scale > 0")
            if self.centered and not self.shape > 1:
                raise ParameterDomainError(
                    "centering needs shape > 1 for the mean to exist"
                )

    @classmethod
    def gaussian(cls) -> "TailLaw":
        return cls(family="gaussian")

    @classmethod
    def student_t(cls, df: float) -> "TailLaw":
        return cls(family="student_t", df=df)

    @classmethod
    def symmetric_pareto(cls, alpha: float) -> "TailLaw":
        return cls(family="symmetric_pareto", alpha=alpha)

    @classmethod
    def inverse_gamma(cls, shape: float, scale: float, centered: bool = True) -> "TailLaw":
        return cls(family="inverse_gamma", shape=shape, scale=scale, centered=centered)

    @property
    def tail_index(self) -> float:
        """Regular-variation index of ``P(|X| > x)``; ``inf`` for gaussian."""
        if self.family == "gaussian":
            return math.inf
        if self.family == "student_t":
            return self.df
        if self.family == "symmetric_pareto":
            return self.alpha
        return self.shape

    @property
    def symmetric(self) -> bool:
        return self.family != "inverse_gamma"

    @property
    def sv_constant(self) -> float | None:
        """Limit of ``P(|X| > x) * x**tail_index``, when it exists.

        For Student-t with ``v`` degrees of freedom the tail of the density
        ``f(x) ~ A * v**((v+1)/2) * x**-(v+1)`` with
        ``A = Gamma((v+1)/2) / (sqrt(v*pi) * Gamma(v/2))`` integrates to the
        two-sided constant ``2*A*v**((v-1)/2)``.  For inverse gamma with
        shape ``a`` and scale ``b`` the survival function behaves like
        ``b**a / Gamma(a+1) * x**-a`` (centering shifts do not change it).
        """
        if self.family == "gaussian":
            return None
        if self.family == "symmetric_pareto":
            return 1.0
        if self.family == "student_t":
            v = self.df
            return (
                2.0
                * math.gamma((v + 1.0) / 2.0)
                * v ** ((v - 1.0) / 2.0)
                / (math.sqrt(v * math.pi) * math.gamma(v / 2.0))
            )
        a, b = self.shape, self.scale
        return b**a / math.gamma(a + 1.0)

    def variance(self) -> float:
        """Population variance; ``inf`` when the tail index is <= 2."""
        if self.family == "gaussian":
            return 1.0
        if self.family == "student_t":
            return self.df / (self.df - 2.0) if self.df > 2 else math.inf
        if self.family == "symmetric_pareto":
            return self.alpha / (self.alpha - 2.0) if self.alpha > 2 else math.inf
        a, b = self.shape, self.scale
        if a <= 2:
            return math.inf
        return b * b / ((a - 1.0) ** 2 * (a - 2.0))

    def standardized_fourth_moment(self) -> float:
        """Central fourth moment of the variance-one rescaled entry.

        ``inf`` when the tail index is <= 4; only meaningful for laws with a
        finite fourth moment (the covariance-statistic pipeline).
        """
        if self.family == "gaussian":
            return 3.0
        if self.family == "student_t":
            if self.df <= 4:
                return math.inf
            return 3.0 * (self.df - 2.0) / (self.df - 4.0)
        if self.family == "symmetric_pareto":
            if self.alpha <= 4:
                return math.inf
            a = self.alpha
            raw4 = a / (a - 4.0)
            return raw4 / (a / (a - 2.0)) ** 2
        a, b = self.shape, self.scale
        if a <= 4:
            return math.inf
        raw = [b**k / math.prod(a - j for j in range(1, k + 1)) for k in range(1, 5)]
        m1, m2, m3, m4 = raw
        central4 = m4 - 4.0 * m3 * m1 + 6.0 * m2 * m1**2 - 3.0 * m1**4
        return central4 / self.variance() ** 2

    def label(self) -> str:
        if self.family == "gaussian":
            return "N(0,1)"
        if self.family == "student_t":
            return f"t({self.df:g})"
        if self.family == "symmetric_pareto":
            return f"sym-Pareto({self.alpha:g})"
        suffix = ", centered" if self.centered else ""
        return f"InvGamma({self.shape:g}, {self.scale:g}{suffix})"

    def to_config(self) -> dict:
        cfg: dict = {"family": self.family}
        if self.family == "student_t":
            cfg["df"] = self.df
        elif self.family == "symmetric_pareto":
            cfg["alpha"] = self.alpha
        elif self.family == "inverse_gamma":
            cfg.update(shape=self.shape, scale=self.scale, centered=self.centered)
        return cfg

    @classmethod
    def from_config(cls, cfg: dict) -> "TailLaw":
        cfg = dict(cfg)
        family = cfg.pop("family", None)
        if family == "gaussian":
            law = cls.gaussian()
        elif family == "student_t":
            law = cls.student_t(cfg.pop("df", None) or 0.0)
        elif family == "symmetric_pareto":
            law = cls.symmetric_pareto(cfg.pop("alpha", None) or 0.0)
        elif family == "inverse_gamma":
            law = cls.inverse_gamma(
                cfg.pop("shape", None) or 0.0,
                cfg.pop("scale", None) or 0.0,
                bool(cfg.pop("centered", True)),
            )
        else:
            raise ParameterDomainError(f"unknown family {family!r}")
        if cfg:
            raise ParameterDomainError(f"unexpected law fields {sorted(cfg)}")
        return law


@dataclass(frozen=True)
class RngStream:
    """Splittable random stream keyed by ``(master_seed, stream_id)``.

    Equal keys reproduce identical sequences; distinct keys give
    statistically independent streams.  ``generator(*path)`` derives a
    substream for a nested index path (e.g. a matrix row), so draws never
    depend on how work is scheduled.
    """

    master_seed: int
    stream_id: int = 0

    def generator(self, *path: int) -> np.random.Generator:
        entropy = (self.master_seed & _MASK64, self.stream_id & _MASK64)
        entropy += tuple(k & _MASK64 for k in path)
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))

    def spawn_generators(self, count: int) -> list[np.random.Generator]:
        """Generators for sub-indices 0..count-1 of this stream.

        Child ``i`` is keyed by ``(master_seed, stream_id)`` plus spawn key
        ``(i,)``, a pure function of ``(master_seed, stream_id, i)`` that
        does not depend on ``count``.
        """
        root = np.random.SeedSequence(
            entropy=(self.master_seed & _MASK64, self.stream_id & _MASK64)
        )
        return [np.random.Generator(np.random.PCG64(c)) for c in root.spawn(count)]


def _open01(u: np.ndarray) -> np.ndarray:
    return np.where(u == 0.0, _OPEN_EPS, u)


def _draw(law: TailLaw, gen: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Array of i.i.d. entries of ``law`` with the given shape, drawn from ``gen``."""
    if law.family == "inverse_gamma":
        x = law.scale / gen.standard_gamma(law.shape, shape)
        if law.centered:
            x = x - law.scale / (law.shape - 1.0)
        return x
    u = gen.random((2 if law.family == "student_t" else 1,) + shape)
    if law.family == "gaussian":
        return special.ndtri(_open01(u[0]))
    if law.family == "student_t":
        # Polar representation of the bivariate t: radius from one uniform,
        # angle from the other; the marginal is exactly Student-t.
        df = law.df
        radius = np.sqrt(df * ((1.0 - u[0]) ** (-2.0 / df) - 1.0))
        return radius * np.cos(2.0 * np.pi * u[1])
    v = 2.0 * u[0] - 1.0
    v = np.where(v == 0.0, 1.0, v)
    return np.sign(v) * np.abs(v) ** (-1.0 / law.alpha)


def sample_entries(law: TailLaw, rng: RngStream, count: int) -> np.ndarray:
    """Vector of ``count`` i.i.d. draws; a pure function of ``(law, rng, count)``."""
    if count < 0:
        raise ParameterDomainError("count must be nonnegative")
    return _draw(law, rng.generator(), (count,))


def fill_matrix(law: TailLaw, p: int, n: int, rng: RngStream) -> DataMatrix:
    """p-by-n matrix of i.i.d. draws with per-row derived substreams.

    Row ``i`` uses the spawned child stream ``i`` of ``rng``, so it is a
    pure function of ``(master_seed, stream_id, i)`` and any set of rows
    can be regenerated independently of traversal order.
    """
    if p < 1 or n < 1:
        raise ParameterDomainError("matrix dimensions must be >= 1")
    if p * n > _MAX_ENTRIES:
        raise ResourceError(f"refusing to allocate {p}x{n} matrix")
    out = np.empty((p, n))
    for i, gen in enumerate(rng.spawn_generators(p)):
        out[i] = _draw(law, gen, (n,))
    return DataMatrix(out)
