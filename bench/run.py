"""End-to-end and per-layer benchmark of corrlogdet.

    python3 bench/run.py --workload corr_t35 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                      # all four workloads
    python3 bench/run.py --smoke --seconds 1  # every workload at tiny sizes

Each workload runs in a fresh Python process whose environment lacks the
thread variables (THREADS, OPENBLAS_NUM_THREADS, OMP_NUM_THREADS,
MKL_NUM_THREADS), so the program's own thread policy is what is measured.
The process repeats whole rounds of the workload for ``--seconds``, then
checks its outputs.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` reports the per-layer metrics from span wrappers.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from manifest import THREAD_VARS, git_commit, src_lines
from tracing import LAYER_METRICS
from workloads import WORKLOADS, make_plan

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# Set-up is sampled in this many set-up-only processes plus the measured one.
SETUP_PROBES = 4
# One run must end within 180 s; the measured process gets what is left.
RUN_LIMIT_S = 170.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class RunError(RuntimeError):
    pass


def child_env() -> tuple[dict, dict]:
    """The measured process's environment, and the variables removed."""
    cleared = {k: os.environ[k] for k in THREAD_VARS if k in os.environ}
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env, cleared


def _spawn(cmd: list[str], env: dict, cwd: Path, timeout: float, **kw) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(cmd, env=env, cwd=cwd, timeout=timeout, text=True, **kw)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{Path(cmd[1]).name} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise RunError(f"{Path(cmd[1]).name} exited with {proc.returncode}: {proc.stderr or ''}")
    return proc


def run_workload(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    began = time.monotonic()
    outdir = OUT / workload
    shutil.rmtree(outdir, ignore_errors=True)
    plan = make_plan(workload, seed, outdir, smoke=smoke)
    plan_path = outdir / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=1))
    env, cleared = child_env()
    worker = str(BENCH / "worker.py")

    setups = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = _spawn(
            [sys.executable, worker, "--plan", str(plan_path), "--t0", repr(t0), "--setup-only"],
            env, outdir, 60.0, capture_output=True,
        )
        setups.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])

    result_path = outdir / "result.json"
    t0 = time.monotonic()
    _spawn(
        [
            sys.executable, worker, "--plan", str(plan_path), "--t0", repr(t0),
            "--seconds", repr(seconds), "--trace", str(trace), "--result", str(result_path),
        ],
        env, outdir, max(30.0, RUN_LIMIT_S - (t0 - began)), stdout=sys.stderr,
    )
    result = json.loads(result_path.read_text())
    setups.append(result["setup_s"])

    rounds = result["rounds"]
    timed = [r for r in rounds if not (r["traced"] or r["warmup"])]
    checks = result["checks"]
    attempted = sum(r["attempted"] for r in rounds) + len(checks)
    failed = sum(r["failed"] for r in rounds) + sum(not c["passed"] for c in checks)
    correct = all(c["passed"] for c in checks) and all(
        rc == 0 for r in rounds for rc in r["exit_codes"]
    )
    if trace:
        layers = result["layers"]
        metrics = {
            name: {"value": float(layers.get(name, 0.0)), "unit": unit}
            for name, unit in LAYER_METRICS.items()
        }
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in timed),
            "cpu_s": statistics.median(r["cpu_s"] for r in timed),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    summary = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "rounds": rounds,
        "setup_samples_s": setups,
        "checks": checks,
        "not_observed": result.get("not_observed", []),
        "environment": {
            **result["env"],
            "thread_vars_cleared": cleared,
            "git_commit": git_commit(ROOT),
            "src_lines": src_lines(ROOT),
        },
    }
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(summary) + "\n")
    return summary


def report(summary: dict) -> None:
    """Human-readable lines for one workload."""
    rounds = summary["rounds"]
    print(
        f"{summary['workload']} seed={summary['seed']} trace={summary['trace']}: "
        f"{len(rounds)} rounds, {summary['attempted']} operations attempted, "
        f"{summary['failed']} failed, {'correct' if summary['correct'] else 'INCORRECT'}"
    )
    for name, m in summary["metrics"].items():
        print(f"  {name:<45} {m['value']:>14.6g} {m['unit']}")
    for c in summary["checks"]:
        print(f"  [{'PASS' if c['passed'] else 'FAIL'}] {c['name']}: {c['detail']}")
    if summary["not_observed"]:
        print(f"  not observed (reported as 0): {', '.join(summary['not_observed'])}")
    env = summary["environment"]
    blas = "; ".join(f"{b['library']} {b['threads']} threads" for b in env["blas"])
    print(
        f"  environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
        f"nproc {env['nproc']}, {blas}; cleared {sorted(env['thread_vars_cleared']) or 'none'}; "
        f"commit {env['git_commit']}; src lines {env['src_lines']}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="corrlogdet benchmark")
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for testing")
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    summaries = []
    try:
        for name in names:
            summaries.append(run_workload(name, args.seed, args.seconds, args.trace, args.smoke))
            report(summaries[-1])
    except RunError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {
            f"{s['workload']}.{name}": m for s in summaries for name, m in s["metrics"].items()
        }
    correct = all(s["correct"] for s in summaries)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(s["attempted"] for s in summaries),
                "failed": sum(s["failed"] for s in summaries),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
