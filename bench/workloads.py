"""Workload definitions and the inputs each one gives the program.

A workload is a list of ``corrlogdet`` CLI calls that make up one round,
plus the config file those calls read.  The benchmark seed enters only
here: it is turned into the config's ``seed`` field and the
``--seed`` arguments of the verification calls, so the program receives
the generated inputs and nothing else.  Everything else about a
workload (law, shape, replication count, outputs) is fixed, so two
seeds cost the same work.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Simulation:
    """``corrlogdet simulate`` on one law and shape, CSV+JSON+SVG outputs."""

    law: dict
    p: int
    n: int
    reps: int
    statistic: str
    shipped: str  # the shipped config whose law, shape and statistic this mirrors


@dataclass(frozen=True)
class Certify:
    """``verify-girko``, ``verify-moments`` and ``asymptotics`` in sequence."""

    girko_cases: int
    girko_seed: int
    moments_seed: int
    nmax: int
    vectors: int
    trials: int
    alpha: float
    k: int
    grid: tuple[int, ...]
    rows: int
    check_cases: int  # recursion-vs-slogdet cases the benchmark adds itself


# Replication counts are cut so that one round takes one to four seconds
# on a 2-CPU box and a run holds several rounds; the shape, law and
# statistic stay those of the shipped configs.  cov_gaussian keeps 300 of
# its shipped 2,000 replications for the same reason, and writes an SVG
# too so that every simulation workload runs all three output writers.
# verify-girko and verify-moments keep their default seeds: the girko case
# shapes and the rationals' sizes are drawn from the seed, and the cost of
# the calls varies up to threefold between seeds.  The seed still drives
# asymptotics and the benchmark's own recursion-vs-slogdet cases.
WORKLOADS = {
    "corr_t35": Simulation(
        law={"family": "student_t", "df": 3.5},
        p=500, n=1000, reps=16, statistic="corr_logdet",
        shipped="configs/corr_t35.json",
    ),
    "corr_invgamma35": Simulation(
        law={"family": "inverse_gamma", "shape": 3.5, "scale": 2.0, "centered": True},
        p=500, n=1000, reps=8, statistic="corr_logdet",
        shipped="configs/corr_invgamma35.json",
    ),
    "cov_gaussian": Simulation(
        law={"family": "gaussian"},
        p=100, n=400, reps=300, statistic="cov_logdet",
        shipped="configs/cov_gaussian.json",
    ),
    "certify": Certify(
        girko_cases=5, girko_seed=20244, moments_seed=20243, nmax=4, vectors=6, trials=3,
        alpha=3.5, k=2, grid=(500, 2000), rows=10000, check_cases=3,
    ),
}

# Tiny sizes for the smoke mode: every workload and every check in seconds.
SMOKE = {
    "corr_t35": Simulation(
        law={"family": "student_t", "df": 3.5},
        p=60, n=120, reps=16, statistic="corr_logdet",
        shipped="configs/corr_t35.json",
    ),
    "corr_invgamma35": Simulation(
        law={"family": "inverse_gamma", "shape": 3.5, "scale": 2.0, "centered": True},
        p=30, n=60, reps=8, statistic="corr_logdet",
        shipped="configs/corr_invgamma35.json",
    ),
    "cov_gaussian": Simulation(
        law={"family": "gaussian"},
        p=10, n=40, reps=64, statistic="cov_logdet",
        shipped="configs/cov_gaussian.json",
    ),
    "certify": Certify(
        girko_cases=2, girko_seed=20244, moments_seed=20243, nmax=3, vectors=2, trials=1,
        alpha=3.5, k=2, grid=(50,), rows=400, check_cases=1,
    ),
}


def derive_seed(seed: int, workload: str, label: str) -> int:
    """A 32-bit program seed as a pure function of the benchmark seed."""
    digest = hashlib.sha256(f"{workload}/{label}/{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def make_plan(workload: str, seed: int, outdir: Path, smoke: bool = False) -> dict:
    """Write the workload's inputs under ``outdir`` and return its plan.

    The plan lists the CLI calls of one round, the config file set-up
    loads, the files a round writes and what the checks need.
    """
    spec = (SMOKE if smoke else WORKLOADS)[workload]
    outdir.mkdir(parents=True, exist_ok=True)
    if isinstance(spec, Simulation):
        outputs = {
            "csv_path": str(outdir / "stats.csv"),
            "json_path": str(outdir / "report.json"),
            "svg_path": str(outdir / "fig.svg"),
        }
        config = {
            "law": spec.law,
            "p": spec.p,
            "n": spec.n,
            "reps": spec.reps,
            "seed": derive_seed(seed, workload, "simulate"),
            "statistic": spec.statistic,
            "parallelism": "auto",
            "outputs": outputs,
        }
        config_path = outdir / "config.json"
        config_path.write_text(json.dumps(config, indent=2) + "\n")
        return {
            "workload": workload,
            "kind": "simulate",
            "config": str(config_path),
            "calls": [["simulate", "--config", str(config_path)]],
            "outputs": list(outputs.values()),
            "csv": outputs["csv_path"],
        }
    asym_csv = str(outdir / "asymptotics.csv")
    asym_args = [
        "asymptotics", "--alpha", repr(spec.alpha), "--grid",
        ",".join(str(g) for g in spec.grid), "--reps", str(spec.rows),
        "--seed", str(derive_seed(seed, workload, "asymptotics")),
    ]
    return {
        "workload": workload,
        "kind": "certify",
        "config": None,
        "calls": [
            ["verify-girko", "--cases", str(spec.girko_cases), "--seed", str(spec.girko_seed)],
            [
                "verify-moments", "--nmax", str(spec.nmax), "--vectors", str(spec.vectors),
                "--trials", str(spec.trials),
                "--seed", str(spec.moments_seed),
            ],
            asym_args[:3] + ["--k", str(spec.k)] + asym_args[3:] + ["--out-csv", asym_csv],
        ],
        "outputs": [asym_csv],
        "csv": asym_csv,
        "unit_call": asym_args + ["--k", "1", "--out-csv", str(outdir / "asymptotics_unit.csv")],
        "alpha": spec.alpha,
        "k": spec.k,
        "grid": list(spec.grid),
        "girko_check_seed": derive_seed(seed, workload, "girko-check"),
        "girko_check_cases": spec.check_cases,
    }
