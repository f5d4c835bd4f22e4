"""Dense projector oracles for the tests of the sequential recursion.

``dense_q`` is built straight from the earlier rows by a linear solve, so it
shares no code with the QR factorization that the library uses;
``dense_projectors`` keeps the full projector and subtracts ``np.outer``
products, the bits that the trace's diagonal and the blocked bound audit
must reproduce; ``dense_audit`` reads the bounds from it."""

import numpy as np
import scipy.linalg


def dense_q(earlier: np.ndarray, n: int) -> np.ndarray:
    """Unit-trace projector ``Q_i = (I - B' (B B')^{-1} B) / (n - i)`` onto
    the complement of the span of the ``i`` rows of ``B = earlier``."""
    p = np.eye(n) - earlier.T @ np.linalg.solve(earlier @ earlier.T, earlier)
    return p / (n - len(earlier))


def dense_projectors(y: np.ndarray):
    """Yield the full unscaled n-by-n projector ``P`` before each step.

    ``P`` starts at the identity and loses one ``np.outer`` product of a
    column of the same QR factor that ``girko_log_det`` uses per step, so
    the two agree bit for bit.  The same array is yielded every time: a
    caller may change it only if it restores it before the next step.
    """
    n = y.shape[1]
    basis = scipy.linalg.qr(y.T, mode="economic")[0]
    dense = np.eye(n)
    outer = np.empty((n, n))
    for w in basis.T:
        yield dense
        np.outer(w, w, out=outer)
        np.subtract(dense, outer, out=dense)


def dense_audit(y: np.ndarray) -> np.ndarray:
    """Bound audit with the full n-by-n projector and a dense outer product.

    Rows: diag_min, diag_max, offdiag_max, trace_error of Q_i per step.
    """
    p, n = y.shape
    out = np.empty((4, p))
    for i, dense in enumerate(dense_projectors(y)):
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
    return out
