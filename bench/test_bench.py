"""Tests of the benchmark itself.

    python -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, Simulation, make_plan  # noqa: E402


def _run_bench(*args: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
    return proc.returncode, json.loads(last)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_runs_every_workload_with_checks(trace):
    code, result = _run_bench("--smoke", "--seconds", "0.2", "--seed", "3", "--trace", trace)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0
    names = END_TO_END if trace == "0" else LAYER_METRICS
    expected = {f"{w}.{m}" for w in WORKLOADS for m in names}
    assert set(result["metrics"]) == expected
    assert result["attempted"] >= len(WORKLOADS)


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS


def test_workloads_mirror_the_shipped_configs():
    for spec in WORKLOADS.values():
        if isinstance(spec, Simulation):
            shipped = json.loads((ROOT / spec.shipped).read_text())
            assert spec.law == shipped["law"]
            assert (spec.p, spec.n, spec.statistic) == (shipped["p"], shipped["n"], shipped["statistic"])


def _inputs(name: str, seed: int, outdir: Path):
    """Everything the program is given: the CLI calls and the config file."""
    plan = make_plan(name, seed, outdir)
    config = Path(plan["config"]).read_text() if plan["config"] else None
    inputs = json.dumps({"calls": plan["calls"], "config": config})
    return plan, json.loads(inputs.replace(str(outdir), "<out>"))


def test_seed_is_a_benchmark_argument_and_reaches_the_program_only_as_inputs(tmp_path):
    for name in WORKLOADS:
        plan, a = _inputs(name, 7, tmp_path / "a")
        _, b = _inputs(name, 7, tmp_path / "b")
        _, c = _inputs(name, 8, tmp_path / "c")
        assert a == b
        assert a != c
        if plan["kind"] == "simulate":
            # the seed travels inside the generated config, nowhere else,
            # and only the seed differs between seeds
            assert all("--seed" not in call for call in plan["calls"])
            cfg_a, cfg_c = json.loads(a["config"]), json.loads(c["config"])
            assert cfg_a["seed"] != cfg_c["seed"]
            assert {**cfg_a, "seed": 0} == {**cfg_c, "seed": 0}
        for call in plan["calls"]:
            assert "7" not in call  # the raw benchmark seed is never passed on


def _simulate(tmp_path: Path, name: str) -> tuple[dict, str]:
    from corrlogdet.cli import main

    plan = make_plan(name, 1, tmp_path, smoke=True)
    assert main(plan["calls"][0]) == 0
    config = json.loads(Path(plan["config"]).read_text())
    return config, Path(plan["csv"]).read_text()


def _edit_csv(text: str, column: int, change) -> str:
    lines = text.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        row[column] = repr(change(int(row[0]), float(row[column])))
    return "\n".join([lines[0], *(",".join(r) for r in rows)]) + "\n"


def _failed(results) -> set[str]:
    return {c.name for c in results if not c.passed}


def test_clean_outputs_pass_every_check(tmp_path):
    for name in ("corr_t35", "cov_gaussian"):
        config, text = _simulate(tmp_path / name, name)
        assert _failed(checks.check_simulation(config, text, ["x"])) == set()


def test_perturbed_logdet_fails(tmp_path):
    config, text = _simulate(tmp_path, "corr_t35")
    bad = _edit_csv(text, 1, lambda rep, v: v * (1 + 1e-6) if rep == 0 else v)
    assert "logdet_raw rep 0" in _failed(checks.check_simulation(config, bad, ["x"]))


def test_shifted_mean_fails(tmp_path):
    config, text = _simulate(tmp_path, "cov_gaussian")
    mean, var = checks.gaussian_cov_logdet_moments(config["p"], config["n"])
    shift = 8.0 * (var / config["reps"]) ** 0.5
    bad = _edit_csv(text, 1, lambda rep, v: v + shift)
    assert "exact Gaussian log det S mean" in _failed(checks.check_simulation(config, bad, ["x"]))

    config, text = _simulate(tmp_path / "t", "corr_t35")
    bad = _edit_csv(text, 2, lambda rep, v: v + 5.0)
    failed = _failed(checks.check_simulation(config, bad, ["x"]))
    assert {"N(0,1) standardized mean", "standardized column"} <= failed


def test_rounds_that_differ_fail(tmp_path):
    config, text = _simulate(tmp_path, "corr_t35")
    assert "rounds byte-identical" in _failed(checks.check_simulation(config, text, ["x", "y"]))
