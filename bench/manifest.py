"""The environment a run measured under.

BLAS thread counts are read from the OpenBLAS libraries loaded in the
process itself, because threadpoolctl is not installed where this
benchmark runs and the program's own pinning then does nothing.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

# Environment variables that change BLAS or replication threading; the
# benchmark removes them so the program's own thread policy is measured.
THREAD_VARS = ("THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_GET_THREADS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_GET_CONFIG = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)


def _symbol(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn
    return None


def blas_libraries() -> list[dict]:
    """Each OpenBLAS library mapped into this process, with its version
    string and the thread count it runs with now."""
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        threads = _symbol(lib, _GET_THREADS, ctypes.c_int)
        config = _symbol(lib, _GET_CONFIG, ctypes.c_char_p)
        out.append(
            {
                "library": os.path.basename(path),
                "config": config().decode() if config else None,
                "threads": threads() if threads else None,
            }
        )
    return out


def process_manifest() -> dict:
    """Versions and CPUs as seen by the measured process."""
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas_libraries(),
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` directly; None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines(root: Path) -> int:
    """Lines of Python under ``src/``, the size ROADMAP tracks."""
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((root / "src").rglob("*.py"))
    )
