import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrlogdet.cli import main


@pytest.fixture()
def config_file(tmp_path):
    cfg = {
        "law": {"family": "gaussian"},
        "p": 15,
        "n": 45,
        "reps": 120,
        "seed": 11,
        "statistic": "corr_logdet",
        "parallelism": 1,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_simulate_writes_outputs(tmp_path, config_file, capsys):
    csv_path = tmp_path / "stats.csv"
    json_path = tmp_path / "report.json"
    svg_path = tmp_path / "fig.svg"
    code = main(
        [
            "simulate",
            "--config",
            str(config_file),
            "--out-csv",
            str(csv_path),
            "--out-json",
            str(json_path),
            "--out-svg",
            str(svg_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "KS statistic" in out
    assert csv_path.read_text().startswith("rep_index,logdet_raw,standardized,flagged")
    report = json.loads(json_path.read_text())
    assert report["config"]["p"] == 15
    assert svg_path.read_text().startswith("<svg ")


def test_simulate_overrides(tmp_path, config_file):
    csv_a = tmp_path / "a.csv"
    csv_b = tmp_path / "b.csv"
    assert main(["simulate", "--config", str(config_file), "--reps", "40", "--out-csv", str(csv_a)]) == 0
    assert main(["simulate", "--config", str(config_file), "--reps", "40", "--out-csv", str(csv_b)]) == 0
    assert csv_a.read_text() == csv_b.read_text()
    assert len(csv_a.read_text().splitlines()) == 41


def test_simulate_missing_config(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2


def test_simulate_invalid_config(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"law": {"family": "gaussian"}, "p": 50, "n": 50, "reps": 5, "seed": 0}))
    assert main(["simulate", "--config", str(path)]) == 2


def test_simulate_unknown_config_key(tmp_path, config_file, capsys):
    raw = json.loads(config_file.read_text())
    raw["sead"] = 7
    config_file.write_text(json.dumps(raw))
    assert main(["simulate", "--config", str(config_file)]) == 2
    assert "sead" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, extra_argv",
    [
        ({"p": 15.5}, []),
        ({"seed": 1.7}, []),
        ({"law": {"family": "inverse_gamma", "shape": 3.5, "scale": 2, "centered": "false"}}, []),
        ({}, ["--reps", "5"]),
        ({"law": {"family": "student_t", "df": "3.5"}}, []),
        # --out-csv overrides csv_path, so the bad paths go to the other two
        ({"outputs": {"json_path": True}}, []),
        ({"outputs": {"svg_path": 7}}, []),
        ({"outputs": {"json_path": ["a"]}}, []),
    ],
)
def test_simulate_bad_values_exit_2_before_running(tmp_path, config_file, capsys, edit, extra_argv):
    raw = json.loads(config_file.read_text())
    raw.update(edit)
    config_file.write_text(json.dumps(raw))
    csv_path = tmp_path / "stats.csv"
    argv = ["simulate", "--config", str(config_file), "--out-csv", str(csv_path), *extra_argv]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not csv_path.exists()


@pytest.mark.parametrize(
    "outputs, message",
    [
        ({"--out-csv": "missing/stats.csv"}, "cannot write {tmp}/missing/stats.csv: "),
        ({"--out-json": "missing/report.json"}, "cannot write {tmp}/missing/report.json: "),
        ({"--out-svg": "cfg.json/fig.svg"}, "cfg.json is not a directory"),
        ({"--out-csv": "out.txt", "--out-json": "out.txt"}, "outputs.csv_path and outputs.json_path"),
        ({"--out-csv": "a.txt", "--out-svg": "./a.txt"}, "outputs.csv_path and outputs.svg_path"),
        ({"--out-json": "a.txt", "--out-svg": "link/a.txt"}, "outputs.json_path and outputs.svg_path"),
        ({"--out-json": "cfg.json"}, "--config and outputs.json_path name the same file"),
        ({"--out-csv": "./cfg.json"}, "--config and outputs.csv_path name the same file"),
        ({"--out-svg": "link/cfg.json"}, "--config and outputs.svg_path name the same file"),
        ({"json_path": "cfg.json"}, "--config and outputs.json_path name the same file"),
        ({"--out-json": "hard.json"}, "--config and outputs.json_path name the same file"),
        ({"--out-csv": "old.csv", "--out-json": "hard.csv"}, "outputs.csv_path and outputs.json_path"),
        ({"--out-csv": "outdir"}, "cannot write {tmp}/outdir: {tmp}/outdir is a directory"),
        # the csv and json outputs, checked first, are fine and stay unwritten
        (
            {"--out-csv": "s.csv", "--out-json": "r.json", "--out-svg": "link/outdir"},
            "cannot write {tmp}/link/outdir: {tmp}/outdir is a directory",
        ),
    ],
    ids=[
        "csv-dir", "json-dir", "svg-dir-is-file", "csv-json", "csv-svg-dot", "json-svg-symlink",
        "json-is-config", "csv-is-config-dot", "svg-is-config-symlink", "config-outputs-name-config",
        "json-is-config-hard-link", "csv-json-hard-link", "csv-is-directory", "svg-is-directory",
    ],
)
def test_simulate_bad_outputs_exit_2_before_running(
    tmp_path, config_file, capsys, monkeypatch, outputs, message
):
    def must_not_run(config):
        raise AssertionError("the run started before its outputs were checked")

    monkeypatch.setattr("corrlogdet.cli.run_simulation", must_not_run)
    (tmp_path / "link").symlink_to(tmp_path)
    (tmp_path / "outdir").mkdir()
    os.link(config_file, tmp_path / "hard.json")
    (tmp_path / "old.csv").write_text("previous output\n")
    os.link(tmp_path / "old.csv", tmp_path / "hard.csv")
    raw = json.loads(config_file.read_text())
    argv = ["simulate", "--config", str(config_file)]
    for option, name in outputs.items():
        path = os.path.join(tmp_path, name)  # keeps "./" as spelled
        if option.startswith("--"):
            argv += [option, path]
        else:  # an output named in the config itself
            raw.setdefault("outputs", {})[option] = path
    config_file.write_text(json.dumps(raw))
    config_text = config_file.read_text()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert message.format(tmp=tmp_path) in captured.err
    assert sorted(os.listdir(tmp_path)) == [
        "cfg.json", "hard.csv", "hard.json", "link", "old.csv", "outdir"
    ]
    assert os.listdir(tmp_path / "outdir") == []
    assert config_file.read_text() == config_text
    assert (tmp_path / "old.csv").read_text() == "previous output\n"


def test_every_output_to_dev_null_runs(config_file, capsys):
    # a device is never one file of two outputs, however many name it
    outputs = ["--out-csv", os.devnull, "--out-json", os.devnull, "--out-svg", os.devnull]
    assert main(["simulate", "--config", str(config_file), "--reps", "20", *outputs]) == 0
    assert "KS statistic" in capsys.readouterr().out


@pytest.mark.parametrize(
    "target, argv",
    [
        ("run_simulation", ["simulate", "--config", "{cfg}"]),
        ("convergence_diagnostic", ["asymptotics", "--alpha", "3.5", "--grid", "500"]),
    ],
    ids=["simulate", "asymptotics"],
)
def test_out_of_memory_exits_2(config_file, capsys, monkeypatch, target, argv):
    # raised, not allocated: with memory overcommit a huge array can succeed
    message = "Unable to allocate 72.8 TiB for an array with shape (10000000000000,)"

    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(f"corrlogdet.cli.{target}", no_memory)
    assert main([a.format(cfg=config_file) for a in argv]) == 2
    assert capsys.readouterr().err == f"error: out of memory: {message}\n"


def test_config_output_replaced_by_an_override_is_not_checked(tmp_path, config_file, capsys):
    # the config names a directory that does not exist here, but --out-csv
    # replaces that path, so it is never written and must not stop the run
    raw = json.loads(config_file.read_text())
    raw["outputs"] = {"csv_path": str(tmp_path / "missing" / "stats.csv")}
    config_file.write_text(json.dumps(raw))
    csv_path = tmp_path / "stats.csv"
    argv = ["simulate", "--config", str(config_file), "--reps", "40", "--out-csv", str(csv_path)]
    assert main(argv) == 0
    assert csv_path.read_text().startswith("rep_index,")
    assert main(["simulate", "--config", str(config_file), "--reps", "40"]) == 2
    assert "missing/stats.csv" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--grid", "2000,2"],
        ["--grid", "500", "--reps", "15"],
        ["--grid", "500", "--out-csv", "{tmp}/missing/diag.csv"],
    ],
    ids=["grid-below-4", "reps-below-batches", "missing-dir"],
)
def test_asymptotics_bad_arguments_exit_2_before_sampling(tmp_path, capsys, monkeypatch, argv):
    def must_not_run(*args, **kwargs):
        raise AssertionError("a grid point was estimated before every argument was checked")

    monkeypatch.setattr("corrlogdet.tail_limits.mc_moment_batches", must_not_run)
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert main(["asymptotics", "--alpha", "3.5", "--k", "2", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_asymptotics_csv_that_is_a_directory_exits_2_before_running(tmp_path, capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the diagnostic ran before its output was checked")

    monkeypatch.setattr("corrlogdet.cli.convergence_diagnostic", must_not_run)
    assert main(["asymptotics", "--alpha", "3.5", "--grid", "500", "--out-csv", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {tmp_path}: {tmp_path} is a directory\n"


def test_rerun_into_the_same_paths_gives_the_same_bytes(tmp_path, config_file, capsys):
    paths = {opt: tmp_path / name for opt, name in [("--out-csv", "s.csv"), ("--out-svg", "f.svg")]}
    argv = ["simulate", "--config", str(config_file), "--reps", "40"]
    for opt, path in paths.items():
        argv += [opt, str(path)]
        path.write_text("stale\n" * 10000)  # longer than the output
    assert main(argv) == 0
    first = {opt: path.read_bytes() for opt, path in paths.items()}
    assert main(argv) == 0
    assert {opt: path.read_bytes() for opt, path in paths.items()} == first
    assert b"stale" not in b"".join(first.values())


def test_outputs_are_never_truncated_to_zero(tmp_path, config_file, capsys, monkeypatch):
    # truncating a file to zero, as open(path, "w") does with O_TRUNC, frees
    # every block of an existing output, and on ext4 that waited about 40 ms
    opened, lengths = {}, []
    real_open, real_ftruncate = os.open, os.ftruncate

    def recording_open(path, flags, *args, **kwargs):
        opened[os.fspath(path)] = flags
        return real_open(path, flags, *args, **kwargs)

    def recording_ftruncate(fd, length):
        lengths.append(length)
        return real_ftruncate(fd, length)

    monkeypatch.setattr(os, "open", recording_open)
    monkeypatch.setattr(os, "ftruncate", recording_ftruncate)
    out = {name: str(tmp_path / name) for name in ("s.csv", "r.json", "f.svg", "d.csv", "p.svg")}
    for _ in range(2):  # the second round rewrites existing files
        argv = ["simulate", "--config", str(config_file), "--reps", "40", "--out-csv", out["s.csv"]]
        assert main([*argv, "--out-json", out["r.json"], "--out-svg", out["f.svg"]]) == 0
        argv = ["asymptotics", "--alpha", "3.5", "--k", "1", "--grid", "64", "--out-csv", out["d.csv"]]
        assert main(argv) == 0
        assert main(["plot", "--in", out["r.json"], "--out", out["p.svg"]]) == 0
    assert sorted(opened) == sorted(out.values())
    assert all(flags & os.O_WRONLY and not flags & os.O_TRUNC for flags in opened.values())
    assert len(lengths) == 10 and min(lengths) > 0


def test_read_only_output_fails_as_open_for_writing_does(tmp_path, config_file, capsys):
    csv_path = tmp_path / "stats.csv"
    csv_path.write_text("kept\n")
    csv_path.chmod(0o444)
    inode = csv_path.stat().st_ino
    code = main(["simulate", "--config", str(config_file), "--reps", "40", "--out-csv", str(csv_path)])
    if os.access(csv_path, os.W_OK):
        # a superuser writes through file modes, with open(path, "w") too;
        # the file is rewritten in place and stays read-only
        assert code == 0
        assert csv_path.read_text().startswith("rep_index,")
    else:
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {csv_path}: ")
        assert csv_path.read_text() == "kept\n"
    assert csv_path.stat().st_ino == inode
    assert csv_path.stat().st_mode & 0o777 == 0o444


@pytest.mark.parametrize("out_name", ["r.json", "link/r.json"])
def test_plot_over_its_own_input_exits_2(tmp_path, config_file, capsys, out_name):
    report = tmp_path / "r.json"
    assert main(["simulate", "--config", str(config_file), "--reps", "40", "--out-json", str(report)]) == 0
    saved = report.read_bytes()
    (tmp_path / "link").symlink_to(tmp_path)
    capsys.readouterr()
    assert main(["plot", "--in", str(report), "--out", str(tmp_path / out_name)]) == 2
    assert "--in and --out name the same file" in capsys.readouterr().err
    assert report.read_bytes() == saved


def test_output_path_that_is_a_directory_exits_2(tmp_path, config_file, capsys):
    code = main(["simulate", "--config", str(config_file), "--reps", "40", "--out-json", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path}: ")


def _inverse_gamma_logdets(tmp_path, scale):
    """``logdet_raw`` of a 30x40 inverse-gamma correlation run at ``scale``."""
    out = tmp_path / str(scale)
    out.mkdir()
    cfg = {
        "law": {"family": "inverse_gamma", "shape": 2.5, "scale": scale, "centered": True},
        "p": 30, "n": 40, "reps": 8, "seed": 1, "statistic": "corr_logdet", "parallelism": 1,
        "outputs": {"csv_path": str(out / "stats.csv")},
    }
    path = out / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path)]) == 0
    return [float(line.split(",")[1]) for line in (out / "stats.csv").read_text().splitlines()[1:]]


@pytest.mark.parametrize("scale", [1e300, 1e-200, 2.0**600], ids=["1e300", "1e-200", "2^600"])
def test_inverse_gamma_at_extreme_scale_matches_scale_one(tmp_path, scale):
    # the correlation path never divides by the law's scale: unscaled, the
    # squared row norms overflow at 1e300 and underflow to 0 at 1e-200; the
    # power-of-two row scaling gives the scale-1 log-determinants, to the
    # bit where the law's scale is itself a power of two
    expected = _inverse_gamma_logdets(tmp_path, 1.0)
    got = _inverse_gamma_logdets(tmp_path, scale)
    if scale == 2.0**600:
        assert got == expected
    else:
        assert got == pytest.approx(expected, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("command", ["simulate", "verify-moments"])
def test_closed_stdout_exits_141_quietly(config_file, command):
    # the reader of stdout is gone before the first byte (``| head -0``):
    # SIGPIPE's exit code, and no traceback or "Exception ignored" line
    argv = {
        "simulate": ["simulate", "--config", str(config_file), "--reps", "40"],
        "verify-moments": ["verify-moments", "--nmax", "3", "--vectors", "2", "--trials", "1"],
    }[command]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "corrlogdet.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=300,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")


def test_verify_moments_small(capsys):
    code = main(["verify-moments", "--nmax", "3", "--vectors", "2", "--trials", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "FAIL" not in out


def test_verify_moments_stdout_pinned(capsys):
    # integer, Fraction and pure-Python float arithmetic only: no BLAS, so
    # the bytes are the same on every machine
    assert main(["verify-moments", "--nmax", "4", "--vectors", "6", "--trials", "3"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "448cda460a8452a79ea779e9041086878dd3ecec17cbc0b3a5436d8de019b532"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_asymptotics_csv_pinned(tmp_path, monkeypatch, threads):
    # pins each grid point's derived stream, the batch count in mom_blocks and
    # the thread-count invariance; like test_symmetric_law_bits_pinned, these
    # bytes depend on libm's pow
    monkeypatch.setenv("THREADS", threads)
    out_csv = tmp_path / "diag.csv"
    args = ["--alpha", "3.5", "--k", "2,1", "--grid", "64,256", "--reps", "2000", "--seed", "3"]
    assert main(["asymptotics", *args, "--out-csv", str(out_csv)]) == 0
    digest = hashlib.sha256(out_csv.read_bytes()).hexdigest()
    assert digest == "c49bbade8b37b90f802617f9f33ec0340e840a83c0b9232938d253a1c6b20226"


def test_verify_girko_small(capsys):
    code = main(["verify-girko", "--cases", "4", "--seed", "3"])
    assert code == 0
    assert "log-det agreement" in capsys.readouterr().out


def test_asymptotics_unit_exponent(tmp_path, capsys):
    out_csv = tmp_path / "diag.csv"
    code = main(
        [
            "asymptotics",
            "--alpha",
            "3.5",
            "--k",
            "1",
            "--grid",
            "64,128",
            "--reps",
            "2000",
            "--out-csv",
            str(out_csv),
        ]
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "n,estimate,limit,ratio,mom_blocks"
    assert len(lines) == 3
    assert all(line.split(",")[3] == "1.0" for line in lines[1:])


def test_asymptotics_bad_alpha():
    assert main(["asymptotics", "--alpha", "4.5", "--k", "2", "--grid", "64", "--reps", "2000"]) == 2


def test_asymptotics_huge_total_half_degree_exits_2(capsys):
    # the limit's Gamma function would overflow; the degree guard runs first
    argv = ["asymptotics", "--alpha", "3.5", "--k", "200", "--grid", "500", "--reps", "100"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: diagnostics support total half-degree <= 4\n"


# --k 1 is the sphere constraint and draws nothing, yet THREADS is checked
@pytest.mark.parametrize(
    "threads, k",
    [("0", "2"), ("zero", "2"), ("0", "1"), ("zero", "1")],
    ids=["0", "zero", "0-k1", "zero-k1"],
)
def test_asymptotics_bad_threads_exit_2(monkeypatch, capsys, threads, k):
    monkeypatch.setenv("THREADS", threads)
    argv = ["asymptotics", "--alpha", "3.5", "--k", k, "--grid", "64", "--reps", "2000"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: THREADS must be")
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["asymptotics", "--alpha", "3.5", "--k", "x"],
        ["asymptotics", "--alpha", "3.5", "--grid", "50,x"],
        ["asymptotics", "--alpha", "3.5", "--grid", ","],
        ["verify-girko", "--cases", "0"],
        ["verify-girko", "--cases", "-3"],
        ["verify-moments", "--nmax", "2"],
        ["verify-moments", "--vectors", "0"],
        ["verify-moments", "--trials", "0"],
        ["verify-girko", "--seed", "-1"],
        ["verify-moments", "--seed", "-1"],
        # the unit-exponent path draws nothing, yet its grid is checked
        ["asymptotics", "--alpha", "3.5", "--k", "1", "--grid", "-5"],
        ["asymptotics", "--alpha", "3.5", "--k", "1", "--grid", "64,0"],
        # an empty entry is not skipped
        ["asymptotics", "--alpha", "3.5", "--k", "2,,1", "--grid", "64"],
        ["asymptotics", "--alpha", "3.5", "--k", "2", "--grid", "500,"],
    ],
)
def test_bad_counts_and_lists_exit_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "all checks passed" not in captured.out


def test_verify_moments_nmax_beyond_oracle_exits_2_before_running(capsys, monkeypatch):
    def must_not_run(z):
        raise AssertionError("an oracle ran before the nmax check")

    monkeypatch.setattr("corrlogdet.verify.permutation_oracle", must_not_run)
    assert main(["verify-moments", "--nmax", "9", "--vectors", "1", "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_plot_round_trip(tmp_path, config_file):
    json_path = tmp_path / "report.json"
    svg_path = tmp_path / "fig.svg"
    assert main(["simulate", "--config", str(config_file), "--out-json", str(json_path)]) == 0
    assert main(["plot", "--in", str(json_path), "--out", str(svg_path)]) == 0
    assert svg_path.read_text().startswith("<svg ")


def test_plot_missing_report(tmp_path):
    assert main(["plot", "--in", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x.svg")]) == 2


@pytest.mark.parametrize("mangle", ["not_a_report", "unknown_summary_key"])
def test_plot_malformed_report_exits_2(tmp_path, config_file, capsys, mangle):
    json_path = tmp_path / "report.json"
    assert main(["simulate", "--config", str(config_file), "--out-json", str(json_path)]) == 0
    if mangle == "not_a_report":
        json_path.write_text("[]")
    else:
        raw = json.loads(json_path.read_text())
        raw["summary"]["median"] = 0.0
        json_path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert main(["plot", "--in", str(json_path), "--out", str(tmp_path / "x.svg")]) == 2
    assert capsys.readouterr().err.startswith("error: cannot load report")


# The input-domain fuzz: tiny configs and argv with every law, extreme
# parameter magnitudes and out-of-range counts.  Any exit code but 0, 2 or 3
# and any exception out of ``main`` (a traceback at the command line) fails.
# ``one_of`` and ``sampled_from`` pick each entry alike, so repeated entries
# weight the valid values.
_MAGNITUDE = st.one_of(
    st.floats(min_value=0.5, max_value=12.0),
    st.floats(min_value=-1.0, max_value=0.5),
    st.integers(min_value=-300, max_value=300).map(lambda e: 10.0**e),
)
_LAW = st.one_of(
    st.just({"family": "gaussian"}),
    st.builds(lambda df: {"family": "student_t", "df": df}, _MAGNITUDE),
    st.builds(lambda a: {"family": "symmetric_pareto", "alpha": a}, _MAGNITUDE),
    st.builds(
        lambda a, s, c: {"family": "inverse_gamma", "shape": a, "scale": s, "centered": c},
        _MAGNITUDE, _MAGNITUDE, st.booleans(),
    ),
)
_CONFIG = st.builds(
    lambda law, p, extra, reps, seed, statistic, parallelism: {
        "law": law, "p": p, "n": p + extra, "reps": reps, "seed": seed,
        "statistic": statistic, "parallelism": parallelism,
    },
    _LAW,
    st.integers(1, 6),
    st.integers(-1, 6),
    st.sampled_from([8, 16, 7]),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["corr_logdet", "cov_logdet"]),
    st.sampled_from([1, 2, "auto"]),
)
_COUNT = st.sampled_from(["1", "2", "1", "2", "0", "-1"])
_ARGV = st.one_of(
    st.builds(lambda cfg: ["simulate", cfg], _CONFIG),
    st.builds(
        lambda alpha, law, k, grid, reps, seed: [
            "asymptotics", "--alpha", repr(alpha), "--law", law, "--k", k,
            "--grid", grid, "--reps", reps, "--seed", seed, "--out-csv", "{out}",
        ],
        st.one_of(st.floats(2.05, 3.95), st.floats(2.05, 3.95), _MAGNITUDE),
        st.sampled_from(["symmetric_pareto", "student_t"]),
        st.sampled_from(["2", "1", "1,1", "2,1", "3", "4", "2,2,1", "0"]),
        st.lists(st.integers(4, 40).map(str), min_size=1, max_size=2).map(",".join),
        st.sampled_from(["16", "40", "8"]),
        st.integers(0, 9).map(str),
    ),
    st.builds(
        lambda nmax, vectors, trials, seed: [
            "verify-moments", "--nmax", nmax, "--vectors", vectors, "--trials", trials,
            "--seed", seed,
        ],
        st.sampled_from(["3", "4", "3", "4", "2"]), _COUNT, _COUNT, _COUNT,
    ),
    st.builds(lambda cases, seed: ["verify-girko", "--cases", cases, "--seed", seed], _COUNT, _COUNT),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_ARGV)
def test_cli_input_domain_exits_0_2_or_3_and_exit_2_writes_nothing(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.csv")
        if argv[0] == "simulate":
            config = os.path.join(tmp, "cfg.json")
            with open(config, "w", encoding="utf-8") as fh:
                json.dump(argv[1], fh)
            argv = ["simulate", "--config", config, "--out-csv", out]
        argv = [a.format(out=out) for a in argv]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage error, e.g. --alpha -1e-64
                code = exc.code
        assert code in (0, 2, 3), argv
        if code == 2:
            assert stdout.getvalue() == "" and not os.path.exists(out), argv
