"""Print the SHA-256 of the outputs of a fixed list of CLI runs.

Each command runs as ``python -m corrlogdet.cli ...`` against the ``src/``
of the checkout this script sits in, in a fresh temporary directory.  The
stdout of the certification and asymptotics commands is hashed.  Each
shipped ``configs/*.json`` is also run with ``simulate --reps 16 --out-csv``
under ``THREADS=1`` and ``THREADS=2``, and its statistics CSV file is
hashed (its stdout carries the wall time).  Run it on two checkouts and
diff the output to show that a change keeps every byte of these outputs::

    python tools/output_digests.py > after.txt

Prints one ``name sha256`` line per output; exits 1 if a command exits
non-zero.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

_T_KS = ("2", "1,1", "2,1", "3", "2,2", "4", "3,1", "2,1,1", "1,1,1,1", "1,1,1")

COMMANDS = [
    ("verify-moments-n4", ["verify-moments", "--nmax", "4", "--vectors", "6", "--trials", "3"]),
    ("verify-moments-default", ["verify-moments"]),
    ("verify-moments-n8", ["verify-moments", "--nmax", "8", "--vectors", "3", "--trials", "2"]),
    ("verify-girko-5", ["verify-girko", "--cases", "5"]),
    ("verify-girko-default", ["verify-girko"]),
    (
        "asymptotics-pareto-k2",
        ["asymptotics", "--alpha", "3.5", "--k", "2", "--grid", "500,2000",
         "--reps", "10000", "--seed", "7"],
    ),
] + [
    (
        f"asymptotics-t-k{k}",
        ["asymptotics", "--alpha", "3.5", "--law", "student_t", "--k", k,
         "--grid", "64,300", "--reps", "4000", "--seed", "3"],
    )
    for k in _T_KS
]


def _run(args: list[str], work: str, env: dict) -> tuple[bool, bytes]:
    """Run one CLI command in ``work``; its success and its stdout."""
    run = subprocess.run(
        [sys.executable, "-m", "corrlogdet.cli", *args],
        cwd=work, env=env, capture_output=True, check=False,
    )
    if run.returncode != 0:
        sys.stderr.write(f"{' '.join(args)}: exit {run.returncode}\n{run.stderr.decode()}")
    return run.returncode == 0, run.stdout


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    status = 0
    with tempfile.TemporaryDirectory() as work:
        for name, args in COMMANDS:
            ok, stdout = _run(args, work, env)
            status |= not ok
            print(name, hashlib.sha256(stdout).hexdigest(), flush=True)
        for config in sorted((ROOT / "configs").glob("*.json")):
            for threads in ("1", "2"):
                csv = Path(work, f"{config.stem}.csv")
                args = ["simulate", "--config", str(config), "--reps", "16", "--out-csv", str(csv)]
                ok, _ = _run(args, work, dict(env, THREADS=threads))
                status |= not ok
                data = csv.read_bytes() if ok else b""
                digest = hashlib.sha256(data).hexdigest()
                print(f"{config.stem}-csv-threads{threads}", digest, flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
