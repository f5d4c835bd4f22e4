"""Sequential evaluation of ``log det R`` by the method of perpendiculars.

For ``R = Y @ Y.T`` with unit-norm rows, the determinant factors into the
squared distances of each row to the span of the rows before it.  Taking
logs gives

    log det R = c_n + sum_i log(1 + z[i]),

where ``c_n = sum_{j<p} log(1 - j/n)`` and ``z[i]`` measures how far row
``i`` deviates from its conditional expectation given the earlier rows:
``z[i] = (n * y' P y - (n - i)) / (n - i)`` with ``P`` the orthogonal
projector onto the complement of the span of rows ``0..i-1``.

The projector is never formed densely on the normal path: quadratic forms
are evaluated through an incrementally maintained orthonormal basis, and
the diagonal of the unit-trace projector ``Q = P / (n - i)`` is tracked as
``(1 - load_k) / (n - i)`` where ``load_k`` accumulates squared basis
coordinates.  An audit mode keeps the unscaled projector ``P`` densely to
check the entry bounds of ``Q``.  ``P`` stays exactly symmetric (IEEE
products commute), so only its upper triangle is updated and scanned, in
row blocks of bounded scratch; one pass per step both applies the rank-one
update and reads the bounds of the next step.

Each step statistic splits into a diagonal part driven by fourth-moment
behavior and an off-diagonal bilinear part that carries the asymptotic
variance:

    u = sum_k q_kk (n y_k^2 - 1),    v = sum_{k != l} q_kl n y_k y_l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cltstats import _c_n
from .errors import ParameterDomainError, SingularStepError

_REORTH_TOL = 1e-10
_MAX_REORTH = 6
# Entries per row block of the bound audit, and of its rank-one scratch.
_AUDIT_BLOCK_ENTRIES = 1 << 16


class ProjectionState:
    """Orthonormal basis of the span of absorbed rows inside R^n.

    Exposes the quantities the recursion needs at step ``i``: the squared
    residual of a new row, the diagonal of the scaled complement projector
    ``Q_i`` and power sums of that diagonal.
    """

    def __init__(self, n: int, capacity: int | None = None):
        if n < 1:
            raise ParameterDomainError("ambient dimension must be >= 1")
        self.n = n
        self._basis = np.zeros((capacity if capacity is not None else n, n))
        self._count = 0
        # diag_load[k] = sum of squared k-th coordinates over basis vectors
        self._diag_load = np.zeros(n)

    @property
    def scale(self) -> int:
        return self.n - self._count

    def basis(self) -> np.ndarray:
        return self._basis[: self._count]

    def _residual(self, y: np.ndarray) -> np.ndarray:
        """Component of y orthogonal to the basis, re-orthogonalized.

        One re-orthogonalization pass is always applied; if the correction
        is still above tolerance (nearly dependent rows), further passes
        run until it is negligible.
        """
        b = self.basis()
        r = y - b.T @ (b @ y) if self._count else y.copy()
        for _ in range(_MAX_REORTH):
            if not self._count:
                break
            c = b @ r
            correction = math.sqrt(float(c @ c))
            r = r - b.T @ c
            if correction <= _REORTH_TOL * max(1.0, math.sqrt(float(r @ r))):
                break
        return r

    def q_diag(self) -> np.ndarray:
        """Diagonal of the unit-trace complement projector Q_i."""
        return (1.0 - self._diag_load) / self.scale

    def diag_power_sums(self) -> tuple[float, ...]:
        """Power sums ``sum_k q_kk^j`` for j = 1..4."""
        qd = self.q_diag()
        return tuple(float(np.sum(qd**j)) for j in range(1, 5))

    def absorb(self, y: np.ndarray) -> float:
        """Add a row to the span; returns its squared residual norm."""
        if self._count >= min(self.n, self._basis.shape[0]):
            raise ParameterDomainError("projection state is at capacity")
        r = self._residual(np.asarray(y, dtype=float))
        rsq = float(r @ r)
        if rsq <= 0.0 or not math.isfinite(rsq):
            raise SingularStepError(step=self._count)
        u = r / math.sqrt(rsq)
        self._basis[self._count] = u
        self._count += 1
        self._diag_load += u * u
        return rsq


@dataclass(frozen=True)
class GirkoTrace:
    """Complete record of the sequential log-det recursion.

    ``power_sums[i, j-1]`` holds the j-th diagonal power sum of Q_i.  The
    bound-audit arrays are populated only when the trace was computed with
    ``record_bounds=True``.
    """

    p: int
    n: int
    c_n: float
    z_tilde: np.ndarray
    u_part: np.ndarray
    v_part: np.ndarray
    power_sums: np.ndarray
    diag_min: np.ndarray | None = field(default=None, repr=False)
    diag_max: np.ndarray | None = field(default=None, repr=False)
    offdiag_max: np.ndarray | None = field(default=None, repr=False)
    trace_error: np.ndarray | None = field(default=None, repr=False)

    @property
    def log_det(self) -> float:
        return self.c_n + float(np.sum(np.log1p(self.z_tilde)))


def _upper_blocks(n: int) -> list[np.ndarray]:
    """Row blocks of the upper triangle of the n-by-n identity.

    Block ``a:b`` holds rows ``a:b`` from column ``a`` on, in at most
    ``_AUDIT_BLOCK_ENTRIES`` entries, or one row when a row is longer.
    """
    rows = max(1, _AUDIT_BLOCK_ENTRIES // n)
    blocks = []
    for a in range(0, n, rows):
        block = np.zeros((min(rows, n - a), n - a))
        np.fill_diagonal(block, 1.0)
        blocks.append(block)
    return blocks


def _audit_pass(
    blocks: list[np.ndarray], w: np.ndarray | None, scratch: np.ndarray
) -> tuple[np.ndarray, float, float]:
    """Subtract ``w w'`` from the blocked upper triangle and scan it.

    The square part of each block is updated in full, so it stays
    symmetric, and together the blocks see every off-diagonal entry of the
    symmetric matrix.  Returns the diagonal and the largest and smallest
    off-diagonal entries, each extreme including 0.
    """
    n = blocks[0].shape[1]
    diag = np.empty(n)
    hi = lo = 0.0
    a = 0
    for block in blocks:
        b = a + block.shape[0]
        if w is not None:
            # each entry is the single product w_k * w_l, as in np.outer
            outer = scratch[: block.size].reshape(block.shape)
            np.einsum("i,j->ij", w[a:b], w[a:], out=outer)
            block -= outer
        diag[a:b] = block.diagonal()
        np.fill_diagonal(block, 0.0)
        hi = max(hi, float(block.max()))
        lo = min(lo, float(block.min()))
        np.fill_diagonal(block, diag[a:b])
        a = b
    return diag, hi, lo


def girko_log_det(y: np.ndarray, record_bounds: bool = False) -> GirkoTrace:
    """Run the full recursion over the rows of a unit-norm matrix.

    Requires p <= n and (almost surely satisfied for continuous data)
    linearly independent rows; a step with non-positive residual raises
    :class:`SingularStepError` with the step index.
    """
    rows = np.asarray(y, dtype=float)
    p, n = rows.shape
    if not p <= n:
        raise ParameterDomainError("recursion requires p <= n")

    state = ProjectionState(n, capacity=p)
    z = np.empty(p)
    u = np.empty(p)
    v = np.empty(p)
    sums = np.empty((p, 4))
    if record_bounds:
        # blocks hold the upper triangle of the unscaled projector P_i;
        # bounds are checked on Q_i = P_i / (n - i) without scaled copies
        blocks = _upper_blocks(n)
        scratch = np.empty(blocks[0].size)
        bounds = np.empty((4, p))
        audit = _audit_pass(blocks, None, scratch)

    for i in range(p):
        row = rows[i]
        m = state.scale
        ysq = float(row @ row)
        load_y = float(state._diag_load @ (row * row))
        u[i] = (n * (ysq - load_y) - m) / m
        sums[i] = state.diag_power_sums()

        if record_bounds:
            diag, hi, lo = audit
            bounds[:, i] = (
                float(diag.min()) / m,
                float(diag.max()) / m,
                max(hi, -lo) / m,
                abs(float(diag.sum()) / m - 1.0),
            )

        rsq = state.absorb(row)
        z[i] = (n * rsq - m) / m
        v[i] = n * (rsq - ysq + load_y) / m
        if not z[i] > -1.0:
            # n * rsq / m underflowed; the factor is numerically zero
            raise SingularStepError(step=i)
        if record_bounds and i + 1 < p:
            audit = _audit_pass(blocks, state.basis()[-1], scratch)

    diag_min, diag_max, offdiag_max, trace_error = bounds if record_bounds else (None,) * 4
    return GirkoTrace(
        p=p,
        n=n,
        c_n=_c_n(p, n),
        z_tilde=z,
        u_part=u,
        v_part=v,
        power_sums=sums,
        diag_min=diag_min,
        diag_max=diag_max,
        offdiag_max=offdiag_max,
        trace_error=trace_error,
    )
