"""Dense projector oracles for the tests of the sequential recursion.

``dense_q`` is built straight from the earlier rows by a linear solve, so it
shares no code with the QR factorization that the library uses;
``dense_audit`` keeps the full projector and subtracts ``np.outer``
products, the bits that the blocked bound audit must reproduce."""

import numpy as np
import scipy.linalg


def dense_q(earlier: np.ndarray, n: int) -> np.ndarray:
    """Unit-trace projector ``Q_i = (I - B' (B B')^{-1} B) / (n - i)`` onto
    the complement of the span of the ``i`` rows of ``B = earlier``."""
    p = np.eye(n) - earlier.T @ np.linalg.solve(earlier @ earlier.T, earlier)
    return p / (n - len(earlier))


def dense_audit(y: np.ndarray) -> np.ndarray:
    """Bound audit with the full n-by-n projector and a dense outer product.

    Rows: diag_min, diag_max, offdiag_max, trace_error of Q_i per step.
    The rank-one vectors are the columns of the same QR factor that
    ``girko_log_det`` uses, so the two agree bit for bit.
    """
    p, n = y.shape
    basis = scipy.linalg.qr(y.T, mode="economic")[0]
    dense = np.eye(n)
    outer = np.empty((n, n))
    out = np.empty((4, p))
    for i in range(p):
        m = n - i
        diag = dense.diagonal().copy()
        np.fill_diagonal(dense, 0.0)
        out[:, i] = (
            float(diag.min()) / m,
            float(diag.max()) / m,
            max(float(dense.max()), -float(dense.min())) / m,
            abs(float(diag.sum()) / m - 1.0),
        )
        np.fill_diagonal(dense, diag)
        np.outer(basis[:, i], basis[:, i], out=outer)
        np.subtract(dense, outer, out=dense)
    return out
