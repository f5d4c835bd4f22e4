"""Seeded generation of i.i.d. heavy-tailed matrix entries.

Four entry distributions are supported: standard normal, Student-t,
symmetric Pareto (fair sign times a magnitude with survival function
``x**-alpha`` on ``[1, inf)``), and inverse gamma (optionally centered at
zero by subtracting its population mean).  One table, ``_PARAMETERS``,
names each family's positive parameters, the tail index first; the
domain checks, ``tail_index`` and the config round trip all read it.
Each family also carries, where the tail is asymptotically
``c * x**-alpha``, the constant ``c``.

Each matrix row draws from its own derived substream, so row ``i`` is a
pure function of ``(master_seed, stream_id, i)`` regardless of traversal
order.  Row ``i``'s substream is the ``PCG64`` seeded by child ``i`` of
``SeedSequence((master_seed, stream_id)).spawn``; ``fill_matrix`` derives
the generator states of all rows in one vectorized pass and re-states a
single generator per row.  The symmetric laws map a fixed number of
uniforms per entry, so each entry sits at a fixed offset of its row's
uniform stream; inverse gamma divides the scale by
``Generator.standard_gamma`` variates (Marsaglia-Tsang rejection), so
only its rows are addressable.

``resolve_parallelism`` is the one thread rule of the work drawn from
these streams: simulation replications and Monte Carlo moment batches.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import ConfigError, ParameterDomainError, ResourceError
from .matrices import DataMatrix

_MASK64 = (1 << 64) - 1

# Uniforms lie on the grid {k * 2**-53}; remapping the measure-zero draw
# u == 0 keeps the normal quantile transform finite.
_OPEN_EPS = 2.0**-53

# Each family's positive parameters; the first is the tail index.
_PARAMETERS = {
    "gaussian": (),
    "student_t": ("df",),
    "symmetric_pareto": ("alpha",),
    "inverse_gamma": ("shape", "scale"),
}

# Hard cap on matrix entries, refusing absurd allocations up front.
_MAX_ENTRIES = 1 << 31

# Raw draws (uniforms, or gamma variates) per row block of _row_blocks, the
# one draw loop of fill_matrix and of the Monte Carlo moment estimates.
_BLOCK_DRAWS = 1 << 16

# Threads hand the interpreter lock over at every per-row draw or row
# block.  On 2 CPUs that CPU cost is small beside a work unit's native work
# only from about this many entries (1 -> 2 replication workers: Gaussian
# 100x400 CPU +75% and wall +20%, t(3.5) 500x1000 CPU +9% for wall -35%).
# With 4 or more CPUs every size keeps min(8, cpus) workers: smaller units
# were never measured there.
_THREADED_ENTRIES = 1 << 18

# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier;
# NEP 19 keeps both generators' output stable across numpy versions.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def resolve_parallelism(requested: int | None, entries: int) -> int:
    """THREADS environment variable wins, then ``requested``, then a default
    set by the CPU count and the ``entries`` of one unit of work (a
    replication's p * n, or a Monte Carlo batch's rows * n)."""
    env = os.environ.get("THREADS")
    if env:
        try:
            value = int(env)
        except ValueError as exc:
            raise ConfigError(f"THREADS must be an integer, got {env!r}") from exc
        if value < 1:
            raise ConfigError("THREADS must be >= 1")
        return value
    if requested is not None:
        return requested
    cpus = os.cpu_count() or 1
    return min(8, cpus) if cpus >= 4 or entries >= _THREADED_ENTRIES else 1


def _hash_chain(init: int, mult: int, calls: range) -> tuple[np.ndarray, np.ndarray]:
    """Xor and multiplier constants of the given calls of a SeedSequence hash.

    Call ``k`` xors with ``init * mult**k`` and multiplies by
    ``init * mult**(k+1)`` (mod 2**32); both come back as uint32 columns.
    """
    xor = [init * pow(mult, k, 1 << 32) & 0xFFFFFFFF for k in calls]
    mul = [init * pow(mult, k + 1, 1 << 32) & 0xFFFFFFFF for k in calls]
    return np.array(xor, np.uint32)[:, None], np.array(mul, np.uint32)[:, None]


# A spawned child's entropy is the root's four pool words (zero-padded run
# entropy) and then its spawn word, so mixing the pool costs 16 hash calls
# and the spawn word is hashed by calls 16..19, once per pool word.
# generate_state(4, uint64) hashes the pool cyclically into 8 words.
_SPAWN_HASH = _hash_chain(_INIT_A, _MULT_A, range(16, 20))
_STATE_HASH = _hash_chain(_INIT_B, _MULT_B, range(8))


def _hashmix(words: np.ndarray, chain: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    xor, mul = chain
    words = (words ^ xor) * mul
    return words ^ (words >> np.uint32(16))


@dataclass(frozen=True)
class TailLaw:
    """Entry distribution with tail-index metadata.

    Use the classmethod constructors.  The fields not used by a family must
    stay ``None``, and ``centered`` may be ``False`` only for inverse gamma.
    """

    family: str
    df: float | None = None
    alpha: float | None = None
    shape: float | None = None
    scale: float | None = None
    centered: bool = True

    def __post_init__(self):
        names = _parameter_names(self.family)
        for name in names:
            value = getattr(self, name)
            if value is None or not value > 0:
                raise ParameterDomainError(f"{self.family} requires {name} > 0")
        for name in (name for other in _PARAMETERS.values() for name in other):
            if name not in names and getattr(self, name) is not None:
                raise ParameterDomainError(f"{self.family} takes no {name}")
        if self.family == "inverse_gamma":
            if self.centered and not self.shape > 1:
                raise ParameterDomainError("centering needs shape > 1 for the mean to exist")
        elif not self.centered:
            raise ParameterDomainError(f"{self.family} takes no centered=False")

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
        names = _PARAMETERS[self.family]
        return getattr(self, names[0]) if names else math.inf

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
        if self.tail_index <= 2:
            return math.inf
        if self.family == "gaussian":
            return 1.0
        if self.family == "student_t":
            return self.df / (self.df - 2.0)
        if self.family == "symmetric_pareto":
            return self.alpha / (self.alpha - 2.0)
        a, b = self.shape, self.scale
        # products, not **, which raises OverflowError where these give inf
        return b * b / ((a - 1.0) * (a - 1.0) * (a - 2.0))

    def standardized_fourth_moment(self) -> float:
        """Central fourth moment of the variance-one rescaled entry.

        ``inf`` when the tail index is <= 4; only meaningful for laws with a
        finite fourth moment (the covariance-statistic pipeline).
        """
        if self.tail_index <= 4:
            return math.inf
        if self.family == "gaussian":
            return 3.0
        if self.family == "student_t":
            return 3.0 * (self.df - 2.0) / (self.df - 4.0)
        if self.family == "symmetric_pareto":
            a = self.alpha
            return a / (a - 4.0) / self.variance() ** 2
        # inverse gamma: 3 + its excess kurtosis, free of the scale
        a = self.shape
        return 3.0 + (30.0 * a - 66.0) / ((a - 3.0) * (a - 4.0))

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
        cfg.update((name, getattr(self, name)) for name in _PARAMETERS[self.family])
        if self.family == "inverse_gamma":
            cfg["centered"] = self.centered
        return cfg

    @classmethod
    def from_config(cls, cfg: dict) -> "TailLaw":
        cfg = dict(cfg)
        family = cfg.pop("family", None)
        fields = {}
        if family == "inverse_gamma":
            centered = cfg.pop("centered", True)
            if not isinstance(centered, bool):
                raise ParameterDomainError(f"centered must be true or false, got {centered!r}")
            fields["centered"] = centered
        fields.update((name, _pop_number(cfg, name)) for name in _parameter_names(family))
        law = cls(family=family, **fields)
        if cfg:
            raise ParameterDomainError(f"unexpected law fields {sorted(cfg)}")
        return law


def _parameter_names(family) -> tuple[str, ...]:
    """Positive parameters of ``family``, its tail index first."""
    if not isinstance(family, str) or family not in _PARAMETERS:
        raise ParameterDomainError(f"unknown family {family!r}")
    return _PARAMETERS[family]


def _pop_number(cfg: dict, name: str) -> float:
    """Remove and return a numeric law field; a bool or a string is no number."""
    value = cfg.pop(name, None)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParameterDomainError(f"{name} must be a number, got {value!r}")
    return value


@dataclass(frozen=True)
class RngStream:
    """Splittable random stream keyed by ``(master_seed, stream_id)``.

    Equal keys reproduce identical sequences; distinct keys give
    statistically independent streams.  ``generator(index)`` derives the
    substream of one index, and ``row_states(count)`` gives the
    ``PCG64`` states of spawned children ``0..count-1`` (the matrix rows),
    so draws never depend on how work is scheduled.
    """

    master_seed: int
    stream_id: int = 0

    def generator(self, index: int) -> np.random.Generator:
        entropy = (self.master_seed & _MASK64, self.stream_id & _MASK64, index & _MASK64)
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))

    def row_states(self, count: int) -> list[tuple[int, int]]:
        """``PCG64`` ``(state, inc)`` of spawned children ``0..count-1``.

        Child ``i`` is ``SeedSequence((master_seed, stream_id)).spawn``'s
        child ``i``, a pure function of ``(master_seed, stream_id, i)``
        that does not depend on ``count``.  All children's seed words are
        hashed in one vectorized pass over ``i``; the spawn key ``(i,)`` is
        one 32-bit word because ``count`` rows of a matrix number at most
        ``_MAX_ENTRIES < 2**32``.
        """
        root = np.random.SeedSequence((self.master_seed & _MASK64, self.stream_id & _MASK64))
        pool = root.pool[:, None]
        mixed = np.uint32(_MIX_L) * pool - np.uint32(_MIX_R) * _hashmix(
            np.arange(count, dtype=np.uint32), _SPAWN_HASH
        )
        mixed ^= mixed >> np.uint32(16)
        words = _hashmix(np.tile(mixed, (2, 1)), _STATE_HASH).astype(np.uint64)
        seed_hi, seed_lo, seq_hi, seq_lo = (words[0::2] | words[1::2] << np.uint64(32)).tolist()
        states = []
        # PCG64's srandom: inc = 2 * seq + 1, two LCG steps around adding the seed
        for s_hi, s_lo, q_hi, q_lo in zip(seed_hi, seed_lo, seq_hi, seq_lo):
            inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
            state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
            states.append((state, inc))
        return states


def _row_blocks(law: TailLaw, rows: int, n: int):
    """``(slice, raw)`` for consecutive row blocks of a ``rows``-by-``n`` draw:
    ``raw`` is a view of one reused ``(k, width, n)`` buffer (``width`` raw
    draws per entry: two uniforms for Student-t, else one) holding at most
    ``_BLOCK_DRAWS`` raw draws, or exactly one row when a row is longer."""
    width = 2 if law.family == "student_t" else 1
    block = max(1, _BLOCK_DRAWS // (width * n))
    buf = np.empty((min(block, rows), width, n))
    for a in range(0, rows, block):
        b = min(a + block, rows)
        yield slice(a, b), buf[: b - a]


def _raw_sampler(law: TailLaw, gen: np.random.Generator):
    """``gen``'s raw-draw method for ``law``, taking ``size=`` or ``out=``."""
    if law.family == "inverse_gamma":
        return functools.partial(gen.standard_gamma, law.shape)
    return gen.random


def _transform(law: TailLaw, raw: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Entries of shape ``(..., n)`` of ``law`` from raw draws of shape
    ``(..., width, n)``, the row-major layout of ``_row_blocks``.

    The entries go to ``out`` when it is given; ``raw`` is used as scratch.
    """
    u = raw[..., 0, :]
    if law.family == "inverse_gamma":
        x = np.divide(law.scale, u, out=out)
        if law.centered:
            x -= law.scale / (law.shape - 1.0)
        return x
    if law.family == "gaussian":
        u[u == 0.0] = _OPEN_EPS
        return special.ndtri(u, out=out)
    if law.family == "student_t":
        # Polar representation of the bivariate t: radius from one uniform,
        # angle from the other; the marginal is exactly Student-t.
        df = law.df
        radius = np.sqrt(df * ((1.0 - u) ** (-2.0 / df) - 1.0))
        return np.multiply(radius, np.cos(2.0 * np.pi * raw[..., 1, :]), out=out)
    v = 2.0 * u - 1.0
    v[v == 0.0] = 1.0
    np.abs(v, out=u)
    u **= -1.0 / law.alpha
    return np.copysign(u, v, out=out)


def fill_matrix(law: TailLaw, p: int, n: int, rng: RngStream) -> DataMatrix:
    """p-by-n matrix of i.i.d. draws with per-row derived substreams.

    Row ``i`` uses the spawned child stream ``i`` of ``rng``, so it is a
    pure function of ``(master_seed, stream_id, i)`` and any set of rows
    can be regenerated independently of traversal order.  One generator
    is re-stated per row and draws into the row blocks of ``_row_blocks``;
    each block is transformed into the matrix at once.
    """
    if p < 1 or n < 1:
        raise ParameterDomainError("matrix dimensions must be >= 1")
    if p * n > _MAX_ENTRIES:
        raise ResourceError(f"refusing to allocate {p}x{n} matrix")
    # the seed is a placeholder: every row sets the state before drawing
    bitgen = np.random.PCG64(0)
    draw = _raw_sampler(law, np.random.Generator(bitgen))
    states = rng.row_states(p)
    out = np.empty((p, n))
    for rows, raw in _row_blocks(law, p, n):
        for r, (state, inc) in enumerate(states[rows]):
            bitgen.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            draw(out=raw[r])
        _transform(law, raw, out[rows])
    return DataMatrix(out)
