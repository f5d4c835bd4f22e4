"""Configuration-driven Monte Carlo harness for the log-determinant laws.

Each replication derives its own random substream from ``(seed, rep)``,
fills a data matrix, forms the correlation (or covariance) matrix, takes
the Cholesky log-determinant and standardizes it.  Replications are
embarrassingly parallel and scheduling never affects values, so the
statistics CSV is byte-identical across thread counts.
"""

from __future__ import annotations

import functools
import json
import math
import os
import stat
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .blas import single_blas_thread
from .cltstats import KsResult, SummaryMoments, ks_test, standardize_cov, summary_moments
from .errors import ConfigError, DegenerateInputError, NotPositiveDefiniteError, NumericalFailure
from .matrices import log_det_spd, sample_correlation, sample_covariance
from .sampling import RngStream, TailLaw, fill_matrix, resolve_parallelism

_STATISTICS = ("corr_logdet", "cov_logdet")
# config fields under the JSON "outputs" key, in the order they are written
_OUTPUTS = ("csv_path", "json_path", "svg_path")
_FLAG_BUDGET = 0.001
_KDE_POINTS = 256
_KDE_BLOCK = 16


def _json_int(key: str, value) -> int:
    # bool is an int subclass, but true/false is no count
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo experiment: law, shape, replication count, outputs."""

    law: TailLaw
    p: int
    n: int
    reps: int
    seed: int
    statistic: str = "corr_logdet"
    parallelism: int | None = None
    csv_path: str | None = None
    json_path: str | None = None
    svg_path: str | None = None

    def __post_init__(self):
        if not isinstance(self.law, TailLaw):
            raise ConfigError("law must be a TailLaw")
        if not 0 < self.p < self.n:
            raise ConfigError(f"need 0 < p < n, got p={self.p}, n={self.n}")
        if self.reps < 8:
            # the KS test and the summary moments need at least 8 values
            raise ConfigError("reps must be >= 8")
        if self.statistic not in _STATISTICS:
            raise ConfigError(f"statistic must be one of {_STATISTICS}")
        if self.parallelism is not None and self.parallelism < 1:
            raise ConfigError("parallelism must be >= 1")
        for key in _OUTPUTS:
            path = getattr(self, key)
            if path is not None and not isinstance(path, str):
                raise ConfigError(f"outputs.{key} must be a path string, got {path!r}")

    def check_outputs(self, config_path: str) -> None:
        """Check the output paths against the file system and against the
        config file at ``config_path``, which they must not overwrite, as
        :func:`check_output_paths` does, before the run starts."""
        outputs = {f"outputs.{key}": getattr(self, key) for key in _OUTPUTS}
        check_output_paths({"--config": config_path, **outputs})

    def to_dict(self) -> dict:
        out: dict[str, Any] = {
            "law": self.law.to_config(),
            "p": self.p,
            "n": self.n,
            "reps": self.reps,
            "seed": self.seed,
            "statistic": self.statistic,
            "parallelism": self.parallelism if self.parallelism is not None else "auto",
        }
        outputs = {key: getattr(self, key) for key in _OUTPUTS if getattr(self, key)}
        if outputs:
            out["outputs"] = outputs
        return out

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        try:
            data = dict(raw)
            law = TailLaw.from_config(data.pop("law"))
            outputs = dict(data.pop("outputs", {}) or {})
            parallelism = data.pop("parallelism", None)
            config = cls(
                law=law,
                p=_json_int("p", data.pop("p")),
                n=_json_int("n", data.pop("n")),
                reps=_json_int("reps", data.pop("reps")),
                seed=_json_int("seed", data.pop("seed", 0)),
                statistic=str(data.pop("statistic", "corr_logdet")),
                parallelism=(
                    None if parallelism in ("auto", None) else _json_int("parallelism", parallelism)
                ),
                **{key: outputs.pop(key, None) for key in _OUTPUTS},
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid experiment config: {exc}") from exc
        unknown = sorted(data) + [f"outputs.{key}" for key in sorted(outputs)]
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}")
        return config

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(raw)


@dataclass
class ExperimentReport:
    """Aggregated simulation output, JSON-serializable.

    ``statistics`` holds the standardized values in replication order with
    NaN at flagged replications; ``flags`` gives each flagged replication's
    index and failing Cholesky pivot.  Summary statistics, the KS test, the
    histogram and the KDE curve are computed from the unflagged values.
    """

    config: dict
    statistics: np.ndarray
    logdet_raw: np.ndarray
    flagged: np.ndarray
    summary: SummaryMoments
    ks: KsResult
    histogram: dict
    kde: dict
    flags: list[dict] = field(default_factory=list)
    timing: dict = field(default_factory=dict)

    @property
    def n_flagged(self) -> int:
        return int(np.sum(self.flagged))

    def to_json(self) -> str:
        payload = {
            "config": self.config,
            "statistics": [None if f else float(s) for s, f in zip(self.statistics, self.flagged)],
            "logdet_raw": [None if f else float(x) for x, f in zip(self.logdet_raw, self.flagged)],
            "flagged": [bool(f) for f in self.flagged],
            "summary": self.summary._asdict(),
            "ks": self.ks._asdict(),
            "histogram": self.histogram,
            "kde": self.kde,
            "flags": self.flags,
            "timing": self.timing,
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentReport":
        raw = json.loads(text)
        flagged = np.array(raw["flagged"], dtype=bool)
        stats = np.array([math.nan if s is None else s for s in raw["statistics"]])
        logdets = np.array([math.nan if s is None else s for s in raw["logdet_raw"]])
        return cls(
            config=raw["config"],
            statistics=stats,
            logdet_raw=logdets,
            flagged=flagged,
            summary=SummaryMoments(**raw["summary"]),
            ks=KsResult(**raw["ks"]),
            histogram=raw["histogram"],
            kde=raw["kde"],
            flags=raw.get("flags", []),
            timing=raw.get("timing", {}),
        )


def freedman_diaconis_histogram(x: np.ndarray) -> dict:
    """numpy's Freedman-Diaconis bins; one bin when the IQR is zero."""
    counts, edges = np.histogram(x, bins="fd")
    return {"edges": [float(e) for e in edges], "counts": [int(c) for c in counts]}


def silverman_bandwidth(x: np.ndarray) -> float:
    m = x.size
    sd = float(np.std(x, ddof=1)) if m > 1 else 0.0
    q75, q25 = np.percentile(x, [75.0, 25.0])
    iqr = float(q75 - q25)
    scale = min(sd, iqr / 1.34) if iqr > 0 else sd
    if scale <= 0.0:
        scale = max(abs(float(x[0])), 1.0) * 1e-3
    return 0.9 * scale * m ** (-0.2)


def kde_curve(x: np.ndarray) -> dict:
    bw = silverman_bandwidth(x)
    lo = float(np.min(x)) - 3.0 * bw
    hi = float(np.max(x)) + 3.0 * bw
    grid = np.linspace(lo, hi, _KDE_POINTS)
    # blocks of grid columns bound the temporaries to reps x _KDE_BLOCK
    sums = np.empty(_KDE_POINTS)
    for j in range(0, _KDE_POINTS, _KDE_BLOCK):
        z = (grid[None, j : j + _KDE_BLOCK] - x[:, None]) / bw
        sums[j : j + _KDE_BLOCK] = np.exp(-0.5 * z * z).sum(axis=0)
    density = sums / (x.size * bw * math.sqrt(2.0 * math.pi))
    return {
        "grid": [float(g) for g in grid],
        "density": [float(d) for d in density],
        "bandwidth": bw,
    }


def _replicate(config: ExperimentConfig, scale: float, rep: int) -> tuple[float, int | None]:
    """One replication's log det and, on a failed Cholesky, its pivot."""
    x = fill_matrix(config.law, config.p, config.n, RngStream(config.seed, rep))
    try:
        if config.statistic == "corr_logdet":
            return log_det_spd(sample_correlation(x)), None
        np.divide(x.values, scale, out=x.values)
        return log_det_spd(sample_covariance(x)), None
    except NotPositiveDefiniteError as exc:
        return math.nan, exc.pivot
    except DegenerateInputError as exc:
        raise DegenerateInputError(f"replication {rep}: {exc}") from None


def run_simulation(config: ExperimentConfig) -> ExperimentReport:
    """Run all replications and aggregate; raises
    :class:`NumericalFailure` if more than 0.1% of them flag."""
    scale = 1.0
    fourth_moment = 1.0  # the correlation law is the covariance law at E X^4 = 1
    if config.statistic == "cov_logdet":
        variance = config.law.variance()
        if not 0.0 < variance < math.inf:  # 0 or inf also where it under- or overflows
            raise ConfigError(f"cov_logdet needs a finite, nonzero variance, got {variance}")
        scale = math.sqrt(variance)
        fourth_moment = config.law.standardized_fourth_moment()
        if not math.isfinite(fourth_moment):
            raise ConfigError("cov_logdet needs a finite fourth moment")

    workers = resolve_parallelism(config.parallelism, config.p * config.n)
    replicate = functools.partial(_replicate, config, scale)
    logdets = np.empty(config.reps)
    flagged = np.zeros(config.reps, dtype=bool)
    flags = []

    # Parallelism lives at the replication level; pinning the BLAS pool to
    # one thread avoids oversubscription and keeps every value bitwise
    # independent of the scheduler.  The pool's exit waits for running
    # replications, also when one raises, so none outlives the pin.
    start = time.perf_counter()
    with single_blas_thread() as blas_threads, ThreadPoolExecutor(max_workers=workers) as pool:
        reps = range(config.reps)
        results = pool.map(replicate, reps) if workers > 1 else map(replicate, reps)
        for rep, (logdet, pivot) in enumerate(results):
            logdets[rep] = logdet
            if pivot is not None:
                flagged[rep] = True
                flags.append({"rep": rep, "pivot": pivot})
    wall = time.perf_counter() - start
    stats = standardize_cov(logdets, config.p, config.n, fourth_moment)

    if np.mean(flagged) > _FLAG_BUDGET:
        raise NumericalFailure(
            f"{int(flagged.sum())} of {config.reps} replications failed Cholesky"
        )
    # reps >= 8 and at most 0.1% flagged leave at least 8 good values
    good = stats[~flagged]

    report = ExperimentReport(
        config=config.to_dict(),
        statistics=stats,
        logdet_raw=logdets,
        flagged=flagged,
        summary=summary_moments(good),
        ks=ks_test(good),
        histogram=freedman_diaconis_histogram(good),
        kde=kde_curve(good),
        flags=flags,
        timing={
            "wall_seconds": wall,
            "per_replication_seconds": wall / config.reps,
            "threads": workers,
            "blas_threads": blas_threads,
        },
    )
    return report


def statistics_csv(report: ExperimentReport) -> str:
    """Deterministic per-replication CSV (independent of thread count)."""
    lines = ["rep_index,logdet_raw,standardized,flagged"]
    for rep in range(len(report.statistics)):
        if report.flagged[rep]:
            lines.append(f"{rep},nan,nan,1")
        else:
            lines.append(
                f"{rep},{float(report.logdet_raw[rep])!r},{float(report.statistics[rep])!r},0"
            )
    return "\n".join(lines) + "\n"


def check_output_paths(paths: dict[str, str | None]) -> None:
    """Reject, before any work is done, an output whose directory does not
    exist, an output that is a directory, and two outputs that are one
    regular file: one path once symlinks are resolved, or one device and
    inode (hard links).  ``paths`` maps each output's name in messages to
    its path or ``None``."""
    names: dict[object, str] = {}
    for name, path in paths.items():
        if not path:
            continue
        directory = os.path.dirname(path) or "."
        if not os.path.isdir(directory):
            raise ConfigError(f"cannot write {path}: {directory} is not a directory")
        real = os.path.realpath(path)
        info = os.stat(real) if os.path.exists(real) else None
        if info and stat.S_ISDIR(info.st_mode):
            raise ConfigError(f"cannot write {path}: {real} is a directory")
        if info and not stat.S_ISREG(info.st_mode):
            continue  # a device such as /dev/null takes any number of outputs
        key = (info.st_dev, info.st_ino) if info else real
        if key in names:
            raise ConfigError(f"{names[key]} and {name} name the same file {real}")
        names[key] = name


def write_text(path: str, text: str) -> None:
    """Replace the contents of ``path`` with ``text`` in UTF-8.

    The file is opened without ``O_TRUNC``, set to the length of the new
    bytes and written over from its start.  On ext4 a truncate that frees
    blocks already written to disk waited about 40 ms, and
    ``open(path, "w")`` frees them all on a re-run into existing outputs.
    Here blocks are freed only when the new text needs fewer 4 kB blocks
    than the old: re-running a config, also with another seed at the same
    ``reps``, frees none.  Otherwise this acts as ``open(path, "w")``:
    permissions and the umask apply, symlinks are written through, hard
    links keep sharing the file, and nothing is fsynced.  A write that
    raises leaves an empty file; a process killed in the middle of the
    write, or a power loss, can leave the new length with old bytes after
    the part written.  Only a regular file is resized, not a device such
    as ``/dev/null``.  An ``OSError`` becomes a :class:`ConfigError`
    naming the path.
    """
    data = memoryview(text.encode("utf-8"))
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            regular = stat.S_ISREG(os.fstat(fd).st_mode)
            try:
                if regular:
                    os.ftruncate(fd, len(data))
                while data:
                    data = data[os.write(fd, data):]
            except BaseException:
                if regular:
                    os.ftruncate(fd, 0)
                raise
        finally:
            os.close(fd)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def write_outputs(report: ExperimentReport, config: ExperimentConfig) -> list[str]:
    """Write whichever of csv/json/svg outputs the config requests."""
    from .svgplot import emit_plot

    render = {"csv_path": statistics_csv, "json_path": ExperimentReport.to_json, "svg_path": emit_plot}
    written = []
    for key in _OUTPUTS:
        path = getattr(config, key)
        if path:
            write_text(path, render[key](report))
            written.append(path)
    return written
