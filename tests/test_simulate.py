import errno
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import corrlogdet
import corrlogdet.simulate as sim
from corrlogdet import blas
from corrlogdet import (
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    NotPositiveDefiniteError,
    NumericalFailure,
    RngStream,
    TailLaw,
    fill_matrix,
    run_simulation,
    statistics_csv,
)
from corrlogdet.cli import main


def _config(**overrides):
    base = dict(
        law=TailLaw.gaussian(), p=20, n=60, reps=200, seed=5, statistic="corr_logdet"
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_dict_round_trip():
    cfg = _config(csv_path="out.csv", parallelism=3)
    back = ExperimentConfig.from_dict(cfg.to_dict())
    assert back == cfg


def test_config_json_file(tmp_path):
    raw = {
        "law": {"family": "student_t", "df": 3.5},
        "p": 10,
        "n": 40,
        "reps": 50,
        "seed": 9,
        "statistic": "corr_logdet",
        "outputs": {"csv_path": "stats.csv"},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    cfg = ExperimentConfig.from_json_file(path)
    assert cfg.law == TailLaw.student_t(3.5)
    assert cfg.csv_path == "stats.csv"
    assert cfg.parallelism is None


@pytest.mark.parametrize(
    "overrides",
    [
        {"p": 60, "n": 60},
        {"p": 0},
        {"reps": 0},
        {"reps": 7},
        {"statistic": "eigenvalues"},
        {"parallelism": 0},
    ],
)
def test_config_validation(overrides):
    with pytest.raises(ConfigError):
        _config(**overrides)


@pytest.mark.parametrize(
    "extra, named",
    [
        ({"sead": 7, "outptus": {"csv_path": "x.csv"}}, ["outptus", "sead"]),
        ({"outputs": {"csv": "x.csv"}}, ["outputs.csv"]),
    ],
)
def test_config_rejects_unknown_keys(extra, named):
    raw = _config().to_dict()
    raw.update(extra)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(raw)
    assert all(repr(key) in str(err.value) for key in named)


@pytest.mark.parametrize(
    "key, value",
    [
        ("p", 10.9),
        ("n", 40.2),
        ("reps", 50.5),
        ("seed", 1.7),
        ("parallelism", 2.5),
        ("parallelism", "4"),
        ("p", True),
        ("reps", "50"),
    ],
)
def test_config_rejects_non_integers(key, value):
    raw = _config().to_dict()
    raw[key] = value
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(raw)
    assert key in str(err.value)


def test_eight_reps_is_enough():
    report = run_simulation(_config(reps=8))
    assert report.statistics.size == 8
    assert report.n_flagged == 0


def test_config_bad_file(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    for content in (b"{not json", b"\xff\xfe\x00bad"):  # not JSON, not UTF-8
        path.write_bytes(content)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json_file(path)
        assert main(["simulate", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read config {path}: ")


def test_run_simulation_basic():
    report = run_simulation(_config())
    assert report.n_flagged == 0
    assert len(report.statistics) == 200
    assert sum(report.histogram["counts"]) == 200
    assert len(report.kde["grid"]) == 256
    assert math.isfinite(report.summary.variance)
    assert report.timing["wall_seconds"] > 0


def test_run_simulation_reproducible():
    a = run_simulation(_config())
    b = run_simulation(_config())
    assert np.array_equal(a.statistics, b.statistics)
    assert np.array_equal(a.logdet_raw, b.logdet_raw)


def test_thread_count_does_not_change_statistics(monkeypatch):
    cfg = _config(reps=300)
    monkeypatch.setenv("THREADS", "1")
    serial = run_simulation(cfg)
    monkeypatch.setenv("THREADS", "4")
    threaded = run_simulation(cfg)
    assert threaded.timing["threads"] == 4
    assert statistics_csv(serial) == statistics_csv(threaded)


@pytest.mark.parametrize("cpus", [1, 2, 16])
def test_auto_parallelism_follows_replication_size(monkeypatch, cpus):
    monkeypatch.delenv("THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    # below 2^18 entries only 1-3 CPUs drop to one worker
    small = min(8, cpus) if cpus >= 4 else 1
    assert sim.resolve_parallelism(None, 2**18 - 1) == small
    assert sim.resolve_parallelism(None, 100 * 400) == small
    assert sim.resolve_parallelism(None, 2**18) == min(8, cpus)
    assert sim.resolve_parallelism(None, 500 * 1000) == min(8, cpus)
    assert sim.resolve_parallelism(3, 1) == 3
    assert sim.resolve_parallelism(3, 500 * 1000) == 3
    monkeypatch.setenv("THREADS", "5")
    assert sim.resolve_parallelism(None, 1) == 5
    assert sim.resolve_parallelism(2, 500 * 1000) == 5


def test_auto_threads_at_large_size_keep_csv_bytes(monkeypatch):
    monkeypatch.delenv("THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    cfg = _config(law=TailLaw.student_t(3.5), p=300, n=900, reps=8)
    threaded = run_simulation(cfg)
    serial = run_simulation(_config(law=TailLaw.student_t(3.5), p=300, n=900, reps=8, parallelism=1))
    assert threaded.timing["threads"] == 2
    assert serial.timing["threads"] == 1
    assert statistics_csv(threaded) == statistics_csv(serial)


def test_corr_replication_memory_is_x_plus_r():
    p, n = 500, 1000
    cfg = _config(law=TailLaw.student_t(3.5), p=p, n=n)
    tracemalloc.start()
    try:
        sim._replicate(cfg, 1.0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # X is normalized in place into Y and R is factored in place: no third
    # matrix-sized buffer
    assert peak <= 1.1 * (p * n + p * p) * 8


def test_threads_env_validation(monkeypatch):
    monkeypatch.setenv("THREADS", "zero")
    with pytest.raises(ConfigError):
        run_simulation(_config())


def test_csv_format():
    report = run_simulation(_config(reps=16))
    lines = statistics_csv(report).splitlines()
    assert lines[0] == "rep_index,logdet_raw,standardized,flagged"
    assert len(lines) == 17
    first = lines[1].split(",")
    assert first[0] == "0" and first[3] == "0"
    # repr round-trip: the CSV reproduces the doubles exactly
    assert float(first[2]) == report.statistics[0]


def test_small_gaussian_run_fits_the_law():
    report = run_simulation(_config(p=50, n=100, reps=500))
    assert report.ks.p_value > 0.01
    assert report.n_flagged == 0


def test_full_scale_heavy_tail_run_fits_the_law():
    # the unscaled reference size: the standardized statistic passes the
    # normal goodness-of-fit test despite infinite fourth moments
    cfg = _config(law=TailLaw.student_t(3.5), p=500, n=1000, reps=1000, seed=34)
    report = run_simulation(cfg)
    assert report.ks.p_value > 0.01
    assert abs(report.summary.mean) < 0.15
    assert report.n_flagged == 0


def test_covariance_statistic_runs():
    report = run_simulation(_config(statistic="cov_logdet", p=20, n=80, reps=300))
    assert report.n_flagged == 0
    assert abs(report.summary.mean) < 0.5


def test_non_gaussian_covariance_run_is_centred():
    # t(10) has fourth moment 4 (beta = 1), so the centering's -beta p/(2n)
    # term is 11 standard errors of the mean here
    law = TailLaw.student_t(10.0)
    cfg = _config(law=law, statistic="cov_logdet", p=100, n=400, reps=2000, seed=10)
    report = run_simulation(cfg)
    assert law.standardized_fourth_moment() == 4.0
    assert report.n_flagged == 0
    se = math.sqrt(report.summary.variance / cfg.reps)
    assert abs(report.summary.mean) < 4.0 * se


@pytest.mark.parametrize(
    "law", [TailLaw.student_t(4.5), TailLaw.inverse_gamma(5.5, 2.0)], ids=lambda law: law.family
)
def test_covariance_scales_entries_to_unit_variance(law):
    # each replication's log det is that of (X/sigma)(X/sigma)'/n for the
    # regenerated X; both laws have a variance other than 1
    p, n, seed = 12, 40, 9
    report = run_simulation(_config(law=law, statistic="cov_logdet", p=p, n=n, reps=8, seed=seed))
    sigma = math.sqrt(law.variance())
    assert sigma != 1.0
    for r in range(3):
        x = fill_matrix(law, p, n, RngStream(seed, r)).values / sigma
        sign, expected = np.linalg.slogdet(x @ x.T / n)
        assert sign == 1.0
        assert report.logdet_raw[r] == pytest.approx(expected, rel=1e-10)


def test_covariance_needs_finite_fourth_moment():
    with pytest.raises(ConfigError):
        run_simulation(_config(law=TailLaw.student_t(3.5), statistic="cov_logdet"))


def test_report_json_round_trip():
    report = run_simulation(_config(reps=64))
    back = ExperimentReport.from_json(report.to_json())
    assert np.array_equal(back.statistics, report.statistics)
    assert back.ks == report.ks
    assert back.summary == report.summary
    assert back.histogram == report.histogram


def test_flagged_replications_counted_and_budget(monkeypatch):
    real = sim.log_det_spd

    def flaky(m):
        value = real(m)
        # deterministic pseudo-failure on a sparse subset of calls
        flaky.calls += 1
        if flaky.calls % 150 == 0:
            raise NotPositiveDefiniteError(pivot=1)
        return value

    flaky.calls = 0
    monkeypatch.setattr(sim, "log_det_spd", flaky)
    with pytest.raises(NumericalFailure):
        run_simulation(_config(reps=300))


def test_flagged_replication_within_budget(monkeypatch):
    # a single failure in 2000 replications stays inside the 0.1% budget:
    # the run completes, the replication is flagged (never dropped)
    real = sim.log_det_spd
    calls = {"count": 0}

    def once_flaky(m):
        calls["count"] += 1
        if calls["count"] == 7:
            raise NotPositiveDefiniteError(pivot=3)
        return real(m)

    monkeypatch.setattr(sim, "log_det_spd", once_flaky)
    report = run_simulation(_config(reps=2000, parallelism=1))
    assert report.n_flagged == 1
    assert np.isnan(report.statistics[6])
    assert sum(report.histogram["counts"]) == 1999
    lines = statistics_csv(report).splitlines()
    assert lines[7] == "6,nan,nan,1"
    back = ExperimentReport.from_json(report.to_json())
    assert np.isnan(back.statistics[6])
    assert back.n_flagged == 1


def test_histogram_freedman_diaconis_bins():
    rng = np.random.default_rng(0)
    x = rng.normal(size=4000)
    hist = sim.freedman_diaconis_histogram(x)
    iqr = np.subtract(*np.percentile(x, [75, 25]))
    width = 2 * iqr * x.size ** (-1 / 3)
    expected = math.ceil((x.max() - x.min()) / width)
    assert len(hist["counts"]) == expected
    assert sum(hist["counts"]) == x.size


@pytest.mark.parametrize(
    "x",
    [np.full(50, 1.5), np.concatenate([np.zeros(47), [-1.0, 2.0, 3.0]])],
    ids=["constant", "zero-iqr"],
)
def test_histogram_zero_iqr_is_one_bin(x):
    hist = sim.freedman_diaconis_histogram(x)
    assert hist["counts"] == [x.size]
    assert len(hist["edges"]) == 2


def test_kde_silverman_bandwidth():
    rng = np.random.default_rng(1)
    x = rng.normal(size=1000)
    bw = sim.silverman_bandwidth(x)
    sd = np.std(x, ddof=1)
    iqr = np.subtract(*np.percentile(x, [75, 25]))
    assert bw == pytest.approx(0.9 * min(sd, iqr / 1.34) * 1000 ** (-0.2))
    curve = sim.kde_curve(x)
    grid = np.array(curve["grid"])
    dens = np.array(curve["density"])
    # density integrates to ~1 over the padded grid
    assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=0.01)


def test_kde_blocks_match_dense_formula():
    rng = np.random.default_rng(2)
    x = rng.normal(size=300)
    curve = sim.kde_curve(x)
    bw = curve["bandwidth"]
    grid = np.array(curve["grid"])
    z = (grid[None, :] - x[:, None]) / bw
    dense = np.exp(-0.5 * z * z).sum(axis=0) / (x.size * bw * math.sqrt(2.0 * math.pi))
    assert curve["density"] == [float(d) for d in dense]


def test_kde_memory_bounded():
    import tracemalloc

    x = np.random.default_rng(3).normal(size=50_000)
    tracemalloc.start()
    try:
        sim.kde_curve(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20


def test_svg_plot_deterministic():
    from corrlogdet.svgplot import emit_plot

    report = run_simulation(_config(reps=100))
    svg = emit_plot(report)
    assert svg.startswith("<svg ")
    assert "polyline" in svg and "</svg>" in svg
    assert svg == emit_plot(ExperimentReport.from_json(report.to_json()))


def _literal_report() -> ExperimentReport:
    """A report built from literals only, so its SVG is pure string formatting."""
    from corrlogdet.cltstats import KsResult, SummaryMoments

    stats = np.array([-1.25, -0.5, 0.0, 0.25, 0.75, 1.5, 2.0, -2.5])
    return ExperimentReport(
        config={
            "law": {"family": "inverse_gamma", "shape": 3.5, "scale": 2.0, "centered": True},
            "p": 50,
            "n": 100,
            "reps": 8,
        },
        statistics=stats,
        logdet_raw=stats - 10.0,
        flagged=np.zeros(8, dtype=bool),
        summary=SummaryMoments(0.03125, 1.8, -0.2, -0.9, 0.4, 0.5, 0.6, 0.7),
        ks=KsResult(statistic=0.1875, p_value=0.912345),
        histogram={"edges": [-3.0, -1.5, 0.0, 1.5, 3.0], "counts": [1, 2, 3, 2]},
        kde={
            "grid": [-3.5, -2.25, -1.0, 0.0, 0.5, 1.75, 3.0, 4.25],
            "density": [0.001, 0.0625, 0.21, 0.33, 0.3125, 0.15, 0.02, 0.0],
            "bandwidth": 0.6,
        },
    )


def test_svg_plot_golden_bytes():
    # every element, attribute and number format of the figure is pinned
    from corrlogdet.svgplot import emit_plot

    svg = emit_plot(_literal_report())
    assert hashlib.sha256(svg.encode()).hexdigest() == (
        "a06dd6a74c0eb0481e7256376e87c53316c392222535b3f74fa18a79cb58f32f"
    )



def test_write_text_replaces_in_place(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("a much longer previous output\n" * 100)
    hard = tmp_path / "hard.csv"
    os.link(target, hard)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    sim.write_text(str(link), "short\n")
    assert target.read_bytes() == b"short\n"
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert hard.read_bytes() == b"short\n"  # still the same file
    sim.write_text(os.devnull, "a device is written, not cut\n")


def test_write_text_creates_files_under_the_umask(tmp_path):
    old = os.umask(0o027)
    try:
        sim.write_text(str(tmp_path / "new.csv"), "x")
    finally:
        os.umask(old)
    assert (tmp_path / "new.csv").stat().st_mode & 0o777 == 0o640


@pytest.mark.parametrize(
    "failure, raised",
    [
        (OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)), ConfigError),
        (KeyboardInterrupt(), KeyboardInterrupt),
    ],
    ids=["disk-full", "ctrl-c"],
)
def test_write_text_interrupted_leaves_no_old_bytes(tmp_path, monkeypatch, failure, raised):
    # same length as the old text, so a stale tail would look complete
    target = tmp_path / "stats.csv"
    target.write_text("".join(f"{i},old\n" for i in range(1000, 2000)))
    new_text = "".join(f"{i},new\n" for i in range(1000, 2000))
    real_write = os.write
    calls = []

    def write_half_then_fail(fd, data):
        calls.append(len(data))
        if len(calls) == 1:
            return real_write(fd, data[: len(data) // 2])
        raise failure

    monkeypatch.setattr(os, "write", write_half_then_fail)
    with pytest.raises(raised) as info:
        sim.write_text(str(target), new_text)
    monkeypatch.undo()
    assert len(calls) == 2
    assert target.read_bytes() == b""
    if raised is ConfigError:
        assert str(info.value) == f"cannot write {target}: No space left on device"

def test_statistics_csv_independent_of_openblas_threads(tmp_path):
    # the OpenBLAS start-up thread count must not reach the values: each
    # run pins BLAS to one thread itself
    src = os.path.dirname(os.path.dirname(corrlogdet.__file__))
    script = (
        "import sys\n"
        "from corrlogdet import ExperimentConfig, TailLaw, run_simulation, statistics_csv\n"
        "cfg = ExperimentConfig(law=TailLaw.gaussian(), p=100, n=400, reps=200, seed=0,\n"
        "                       statistic='cov_logdet', parallelism=1)\n"
        "open(sys.argv[1], 'w').write(statistics_csv(run_simulation(cfg)))\n"
    )
    texts = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env.pop("THREADS", None)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"stats_{threads}.csv"
        subprocess.run([sys.executable, "-c", script, str(out)], env=env, check=True, timeout=300)
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]


def _blas_thread_counts():
    return {name: getter() for name, _, getter in blas._thread_controls()[0]}


def test_blas_threads_pinned_and_restored(monkeypatch):
    controls = blas._thread_controls()[0]
    assert controls, "no OpenBLAS thread setter found"
    before = _blas_thread_counts()
    for _, setter, _ in controls:
        setter(2)
    try:
        report = run_simulation(_config(reps=20))
        assert report.timing["blas_threads"] == {name: 1 for name in before}
        assert set(_blas_thread_counts().values()) == {2}

        real = sim.log_det_spd
        seen = []
        calls = itertools.count()

        def failing(m):
            seen.append(_blas_thread_counts())
            if next(calls) == 4:
                raise RuntimeError("replication failed")
            return real(m)

        monkeypatch.setattr(sim, "log_det_spd", failing)
        with pytest.raises(RuntimeError, match="replication failed"):
            run_simulation(_config(reps=20, parallelism=2))
        assert all(set(counts.values()) == {1} for counts in seen)
        assert set(_blas_thread_counts().values()) == {2}
    finally:
        for name, setter, _ in controls:
            setter(before[name])


@pytest.mark.parametrize("missing", [[], ["libopenblas_nosetter.so"]])
def test_unpinnable_blas_warns_and_runs(monkeypatch, missing):
    monkeypatch.setattr(blas, "_thread_controls", lambda: ([], missing))
    with pytest.warns(RuntimeWarning, match="cannot pin BLAS") as record:
        report = run_simulation(_config(reps=30))
    assert len(record) == 1
    assert all(name in str(record[0].message) for name in missing)
    assert len(report.statistics) == 30
    assert report.timing["blas_threads"] == {}


def test_flagged_replication_keeps_its_pivot(monkeypatch):
    monkeypatch.delenv("THREADS", raising=False)
    real = sim.log_det_spd
    calls = {"count": 0}

    def fails_once(m):
        calls["count"] += 1
        if calls["count"] == 412:
            raise NotPositiveDefiniteError(pivot=17)
        return real(m)

    monkeypatch.setattr(sim, "log_det_spd", fails_once)
    report = run_simulation(_config(reps=1000, parallelism=1))
    assert report.flags == [{"rep": 411, "pivot": 17}]
    assert np.flatnonzero(report.flagged).tolist() == [411]
    assert statistics_csv(report).splitlines()[412] == "411,nan,nan,1"

    raw = json.loads(report.to_json())
    assert raw["flags"] == [{"rep": 411, "pivot": 17}]
    assert ExperimentReport.from_json(report.to_json()).flags == report.flags
    # reports written before the field existed still load
    del raw["flags"]
    old = ExperimentReport.from_json(json.dumps(raw))
    assert old.flags == []
    assert old.n_flagged == 1
