"""Dense projector oracle for the tests of the sequential recursion: built
straight from the earlier rows by a linear solve, so it shares no code with
the QR factorization that the library uses."""

import numpy as np


def dense_q(earlier: np.ndarray, n: int) -> np.ndarray:
    """Unit-trace projector ``Q_i = (I - B' (B B')^{-1} B) / (n - i)`` onto
    the complement of the span of the ``i`` rows of ``B = earlier``."""
    p = np.eye(n) - earlier.T @ np.linalg.solve(earlier @ earlier.T, earlier)
    return p / (n - len(earlier))
