"""The bits contract at its true scope, across OpenBLAS kernels.

OpenBLAS picks its kernel for the CPU when it loads, and
``OPENBLAS_CORETYPE`` forces another one in a child process.  Sampled
entries never touch BLAS, so their bytes must not depend on the kernel;
a Cholesky log-determinant does, by a rounding; the bound audit's
one-term ``dgemm`` must keep the bits of ``np.outer`` and a subtraction
under every kernel.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

_CHILD = r"""
import ctypes, hashlib, json
import numpy as np
from corrlogdet import RngStream, TailLaw, fill_matrix, log_det_spd, sample_correlation
from corrlogdet.blas import single_blas_thread
from corrlogdet.girko import audit_bounds, girko_log_det
from dense_projector import dense_audit
from reference import unit_rows

cores = []
with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
    paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
for path in paths:
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
        if hasattr(lib, name):
            corename = lib[name]
            corename.restype = ctypes.c_char_p
            cores.append(corename().decode())
entries, logdets, audits = hashlib.sha256(), [], []
with single_blas_thread():
    for rep in range(4):
        x = fill_matrix(TailLaw.student_t(3.5), 200, 400, RngStream(0, rep))
        entries.update(x.values.tobytes())
        y = unit_rows(x)
        logdets.append(log_det_spd(sample_correlation(x)))
        audits.append(bool(np.array_equal(audit_bounds(girko_log_det(y)), dense_audit(y))))
print(json.dumps({"cores": cores, "entries": entries.hexdigest(), "logdets": logdets, "audits": audits}))
"""


def _child(coretype: str | None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    tests = Path(__file__).resolve().parent
    paths = [str(tests.parent / "src"), str(tests), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    done = subprocess.run([sys.executable, "-c", _CHILD], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_entries_logdets_and_audit_across_kernels():
    cpuinfo = Path("/proc/cpuinfo")
    if not cpuinfo.exists() or "avx2" not in cpuinfo.read_text().split():
        pytest.skip("needs Linux and a CPU that runs the Haswell (AVX2) kernel")
    default, haswell = _child(None), _child("Haswell")
    if not default["cores"]:
        pytest.skip("no OpenBLAS library reports its kernel")
    if default["cores"] == haswell["cores"]:
        pytest.skip(f"both children ran the same kernel {default['cores']}")
    assert haswell["cores"] and set(haswell["cores"]) == {"Haswell"}
    assert default["entries"] == haswell["entries"]
    for a, b in zip(default["logdets"], haswell["logdets"]):
        assert abs(a - b) <= 1e-14 * abs(a)
    assert all(default["audits"]) and all(haswell["audits"])
