"""Monte Carlo sphere-moment table for the tests that check estimated
moments against exact values and identities, and the whole-batch serial
form of ``mc_moment_batches`` that the blocked, threaded one must match
bit for bit."""

import math

import numpy as np

from corrlogdet import MomentTable, ParameterDomainError, RngStream, TailLaw
from corrlogdet.moments import ALL_KEYS, Number, _row_estimates, mc_moment_batches
from corrlogdet.sampling import _raw_sampler, _transform


def draw(law: TailLaw, gen: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Array of i.i.d. entries of ``law`` with the given shape, drawn from
    ``gen`` row after row (a row is the last axis) in one call, in the
    row-major raw layout ``(..., width, n)`` of ``sampling._row_blocks``,
    whose blocks ``fill_matrix`` and ``mc_moment_batches`` draw into."""
    width = 2 if law.family == "student_t" else 1
    raw = _raw_sampler(law, gen)(size=shape[:-1] + (width, shape[-1]))
    return _transform(law, raw)


def whole_batch_means(
    law: TailLaw, n: int, reps: int, rng: RngStream, batches: int
) -> dict[tuple[int, ...], np.ndarray]:
    """``mc_moment_batches`` over ``ALL_KEYS`` as one serial loop: batch
    after batch, each drawn, normalized and estimated whole."""
    out = {key: np.empty(batches) for key in ALL_KEYS}
    base, extra = divmod(reps, batches)
    for b in range(batches):
        m_batch = base + (1 if b < extra else 0)
        x2 = draw(law, rng.generator(b), (m_batch, n)) ** 2
        y2 = x2 / x2.sum(axis=1)[:, None]
        for key, vals in _row_estimates(y2, n, ALL_KEYS).items():
            out[key][b] = float(vals.sum()) / m_batch
    return out


def mc_moment_table(
    law: TailLaw, n: int, reps: int, rng: RngStream
) -> tuple[MomentTable, dict[tuple[int, ...], float]]:
    """Monte Carlo sphere table and its batch-means standard errors.

    ``(2,)`` is pinned to exactly ``1/n`` (the sphere constraint makes the
    estimator deterministic).  Requires ``reps >= 1000``.
    """
    if reps < 1000:
        raise ParameterDomainError("moment estimation needs reps >= 1000")
    batch_means = mc_moment_batches(law, n, reps, rng)
    moments: dict[tuple[int, ...], Number] = {}
    se: dict[tuple[int, ...], float] = {}
    for key, means in batch_means.items():
        moments[key] = float(np.mean(means))
        se[key] = float(np.std(means, ddof=1) / math.sqrt(means.size))
    moments[(2,)] = 1.0 / n
    se[(2,)] = 0.0
    return MomentTable(n=n, moments=moments), se
