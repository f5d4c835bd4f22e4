"""Sequential evaluation of ``log det R`` by the method of perpendiculars.

For ``R = Y @ Y.T`` with unit-norm rows, the determinant factors into the
squared distances of each row to the span of the rows before it.  Taking
logs gives

    log det R = c_n + sum_i log(1 + z[i]),

where ``c_n = sum_{j<p} log(1 - j/n)`` and ``z[i]`` measures how far row
``i`` deviates from its conditional expectation given the earlier rows:
``z[i] = (n * y' P y - (n - i)) / (n - i)`` with ``P`` the orthogonal
projector onto the complement of the span of rows ``0..i-1``.

Every step comes from one Householder QR factorization ``Y' = U R``
(Golub & Van Loan, *Matrix Computations*, section 5.2).  The first ``i``
columns of ``U`` span rows ``0..i-1``, so the squared distance ``y' P y``
of row ``i`` is ``R[i, i]**2``, and the diagonal of
``P = I - U[:, :i] U[:, :i]'`` is 1 less the squared columns ``k < i``
of ``U``, subtracted one at a time: ``fl(P_kk - fl(w_k w_k))``.  The
trace keeps that diagonal, built once, and every step statistic is array
work on it and on ``U'``, one contiguous row per step, with the
unit-trace projector ``Q_i = P / (n - i)``.  The factorization runs with
BLAS pinned to one thread: on these tall, thin matrices threaded OpenBLAS
was slower (8.7 against 3.2 ms at p = 100, n = 500 on 2 CPUs).

``audit_bounds`` checks the entry bounds of ``Q_i``.  It reads the
diagonal of ``P`` from the trace and rebuilds the rest of ``P`` from the
trace's basis.  ``P`` stays exactly symmetric (IEEE products commute),
so only its upper triangle is kept, in row blocks swept one at a time
(Golub & Van Loan, sections 1.3-1.4): each block, its diagonal held at 0,
runs every step while it stays in cache, reading its largest absolute
entry and then taking the rank-one update by column ``i`` of ``U`` as one
in-place BLAS ``dgemm`` with inner dimension 1.  With a single term the
product ``w_k w_l`` is rounded on its own, as in ``np.outer``, and the
scalings by -1 and 1 are exact, so each entry becomes
``fl(P_kl - fl(w_k w_l))``, the bits of an outer product and a
subtraction.  A kernel that fused the product into the subtraction would
round once and differ; the dense-oracle test
``test_blocked_audit_is_bit_identical_to_dense`` guards this, and the
trace's diagonal, on whichever BLAS is loaded.

Each step statistic splits into a diagonal part driven by fourth-moment
behavior and an off-diagonal bilinear part that carries the asymptotic
variance:

    u = sum_k q_kk (n y_k^2 - 1),    v = sum_{k != l} q_kl n y_k y_l.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dgemm as _dgemm

from .blas import single_blas_thread
from .cltstats import _c_n
from .errors import ParameterDomainError, SingularStepError

# Entries per row block of the bound audit (512 KB, kept in L2 over all steps).
_AUDIT_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class GirkoTrace:
    """Complete record of the sequential log-det recursion.

    ``power_sums[i, j-1]`` holds the j-th diagonal power sum of Q_i;
    ``basis`` is ``U'`` (p x n), whose row i is the unit vector that step i
    adds to the span; ``diagonal`` (p x n) holds in row i the diagonal of
    the unscaled projector P before step i.
    """

    c_n: float
    z_tilde: np.ndarray
    u_part: np.ndarray
    v_part: np.ndarray
    power_sums: np.ndarray
    basis: np.ndarray
    diagonal: np.ndarray

    @property
    def log_det(self) -> float:
        return self.c_n + float(np.sum(np.log1p(self.z_tilde)))


def audit_bounds(trace: GirkoTrace) -> np.ndarray:
    """Entry bounds of ``Q_i = P_i / (n - i)`` before each step ``i``.

    Rows: diag_min, diag_max, offdiag_max, trace_error.  The diagonal
    bounds and the trace error read ``trace.diagonal``.  Row ``i`` of
    ``trace.basis`` is the unit vector that step ``i`` removes from ``P``.
    Each row block ``a:b`` of the upper triangle, columns ``a`` on, runs
    every step in cache: it folds its largest absolute entry into ``off``
    (from +0.0, which Python's ``max`` keeps over -0.0), takes the rank-one
    update and resets its diagonal to 0.  The square part of a block is updated in
    full, so together the blocks see every off-diagonal entry.
    """
    ut = trace.basis
    p, n = ut.shape
    rows = max(1, _AUDIT_BLOCK_ENTRIES // n)
    off = np.zeros(p)
    with single_blas_thread():
        for a in range(0, n, rows):
            b = min(a + rows, n)
            block = np.zeros((b - a, n - a))
            diag = block.reshape(-1)[:: n - a + 1]
            for i, w in enumerate(ut[:, a:]):
                off[i] = max(off[i], block.max(), -block.min())
                if i + 1 < p:
                    # block.T is the Fortran view of C-ordered block: in place
                    _dgemm(-1.0, w[:, None], w[None, : b - a], 1.0, block.T, overwrite_c=1)
                    diag[:] = 0.0
    m = n - np.arange(p)
    return np.stack(
        [
            trace.diagonal.min(axis=1) / m,
            trace.diagonal.max(axis=1) / m,
            off / m,
            np.abs(trace.diagonal.sum(axis=1) / m - 1.0),
        ]
    )


def girko_log_det(y: np.ndarray) -> GirkoTrace:
    """Run the full recursion over the rows of a unit-norm matrix.

    Requires p <= n and (almost surely satisfied for continuous data)
    linearly independent rows; the first row that is not finite or whose
    factor ``1 + z`` is not positive raises :class:`SingularStepError`
    with its step index.
    """
    rows = np.asarray(y, dtype=float)
    p, n = rows.shape
    if n < 1 or p > n:
        raise ParameterDomainError("recursion requires 1 <= n and p <= n")

    finite = np.isfinite(rows).all(axis=1)
    stop = p if finite.all() else int(np.argmin(finite))
    with single_blas_thread():
        basis, r = scipy.linalg.qr(rows[:stop].T, mode="economic", check_finite=False)
    m = n - np.arange(stop)
    rsq = np.diag(r) ** 2
    z = (n * rsq - m) / m
    # a zero or underflowed factor leaves z at -1, an overflowed one at inf
    ok = (z > -1.0) & (z < np.inf)
    if not ok.all() or stop < p:
        raise SingularStepError(step=stop if ok.all() else int(np.argmin(ok)))

    ut = basis.T  # step-major, as GirkoTrace.basis and .diagonal
    diag = np.empty((p, n))
    diag[0] = 1.0
    np.square(ut[:-1], out=diag[1:])
    np.subtract.accumulate(diag, axis=0, out=diag)
    ypy = np.einsum("ij,ij,ij->i", diag, rows, rows)
    u = (n * ypy - m) / m
    v = n * (rsq - ypy) / m

    qd = diag / m[:, None]  # Q's diagonal, the one scratch array beside diag
    s1 = qd.sum(axis=1)
    q2 = np.square(qd, out=qd)
    cubes, fourths = np.einsum("ij,ij->i", q2, diag) / m, np.einsum("ij,ij->i", q2, q2)
    sums = np.stack([s1, q2.sum(axis=1), cubes, fourths], axis=1)

    return GirkoTrace(
        c_n=_c_n(p, n),
        z_tilde=z,
        u_part=u,
        v_part=v,
        power_sums=sums,
        basis=ut,
        diagonal=diag,
    )
