"""Monte Carlo sphere-moment table for the tests that check estimated
moments against exact values and identities."""

import math

import numpy as np

from corrlogdet import MomentTable, ParameterDomainError, RngStream, TailLaw
from corrlogdet.moments import Number, mc_moment_batches


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
