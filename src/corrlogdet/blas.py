"""Pin the OpenBLAS libraries loaded in this process to one thread.

Replications run in parallel at the replication level, so BLAS threads
only compete with them for the CPUs, and a multi-threaded Gram product
sums in a thread-dependent order.  numpy and scipy each bundle their own
OpenBLAS; both are found in ``/proc/self/maps`` and set through ctypes.
"""

from __future__ import annotations

import ctypes
import functools
import os
import warnings
from contextlib import contextmanager

# (setter, getter) symbol pairs, tried in order for each library
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@functools.cache
def _thread_controls() -> tuple[list[tuple[str, object, object]], list[str]]:
    """``(name, setter, getter)`` of each OpenBLAS library mapped into the
    process that has a thread setter, and the names of those without one.
    Found once, on first use."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:  # no /proc: not Linux
        paths = []
    controls, missing = [], []
    for path in paths:
        lib = ctypes.CDLL(path)
        name = os.path.basename(path)
        for set_name, get_name in _SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = lib[set_name], lib[get_name]
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls.append((name, setter, getter))
                break
        else:
            missing.append(name)
    return controls, missing


@contextmanager
def single_blas_thread():
    """Run the body with every OpenBLAS library at one thread.

    Yields ``{library: threads}`` read back inside the pinned region and
    restores the previous counts on exit.  Warns when a library cannot be
    pinned, and when none is found at all; the body then runs unpinned.
    The counts are process-wide, so pins must not overlap across threads.
    """
    controls, missing = _thread_controls()
    if missing or not controls:
        found = [name for name, _, _ in controls] + missing
        warnings.warn(
            f"cannot pin BLAS to one thread: OpenBLAS libraries found {found}, "
            f"of which without a thread setter {missing}",
            RuntimeWarning,
            stacklevel=3,
        )
    previous = [(setter, getter()) for _, setter, getter in controls]
    try:
        for setter, _ in previous:
            setter(1)
        yield {name: getter() for name, _, getter in controls}
    finally:
        for setter, count in previous:
            setter(count)
