"""Span recorders around the public functions of each corrlogdet layer.

Every wrapped function is replaced, in the module that calls it, by a
wrapper that records a span: name, parent span, start and end, and an
optional work count taken from the arguments or the result.  Spans stay
in memory and are reduced to the per-layer metrics after the run.  The
wrappers exist only while a traced round runs; untraced rounds call the
program untouched.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import threading
import time


def _rows_cols(x) -> tuple[int, int]:
    shape = getattr(x, "values", x).shape
    return int(shape[0]), int(shape[1])


def _gram_flops(args, _result) -> float:
    p, n = _rows_cols(args[0])
    return float(p) * p * n


def _cholesky_flops(args, _result) -> float:
    p = _rows_cols(args[0])[0]
    return p**3 / 3.0


def _fill_entries(args, _result) -> float:
    return float(args[1]) * float(args[2])


def _check_count(_args, result) -> float:
    return float(len(result.checks))


def _value(_args, result) -> float:
    return float(result)


# (module, attribute, span name, work count).  The module is the one that
# calls the function, so a wrapper sees exactly the calls the program makes.
TARGETS = [
    ("corrlogdet.cli", "main", "cli.main", None),
    ("corrlogdet.cli", "run_simulation", "simulate.run_simulation", None),
    ("corrlogdet.cli", "write_outputs", "simulate.write_outputs", None),
    ("corrlogdet.cli", "verify_girko", "verify.verify_girko", _check_count),
    ("corrlogdet.cli", "verify_moments", "verify.verify_moments", _check_count),
    ("corrlogdet.cli", "convergence_diagnostic", "tail_limits.convergence_diagnostic", None),
    ("corrlogdet.simulate", "resolve_parallelism", "simulate.resolve_parallelism", _value),
    ("corrlogdet.simulate", "fill_matrix", "sampling.fill_matrix", _fill_entries),
    ("corrlogdet.sampling.RngStream", "spawn_generators", "sampling.spawn_generators", None),
    ("corrlogdet.simulate", "sample_correlation", "matrices.sample_correlation", _gram_flops),
    ("corrlogdet.simulate", "sample_covariance", "matrices.sample_covariance", _gram_flops),
    ("corrlogdet.simulate", "log_det_spd", "matrices.log_det_spd", _cholesky_flops),
    ("corrlogdet.simulate", "standardize_corr", "cltstats.standardize", None),
    ("corrlogdet.simulate", "standardize_cov", "cltstats.standardize", None),
    ("corrlogdet.simulate", "summary_moments", "cltstats.summary_moments", None),
    ("corrlogdet.simulate", "ks_test", "cltstats.ks_test", None),
    ("corrlogdet.simulate", "freedman_diaconis_histogram", "simulate.histogram", None),
    ("corrlogdet.simulate", "kde_curve", "simulate.kde_curve", None),
    ("corrlogdet.simulate", "statistics_csv", "simulate.statistics_csv", None),
    ("corrlogdet.svgplot", "emit_plot", "svgplot.emit_plot", None),
    ("corrlogdet.tail_limits", "mc_moment_batches", "sampling.mc_moment_batches", None),
    ("corrlogdet.verify", "girko_log_det", "girko.girko_log_det", None),
    ("corrlogdet.verify", "permutation_oracle", "moments.permutation_oracle", None),
    (
        "corrlogdet.verify",
        "enumerated_quadratic_form_moments",
        "moments.enumerated_quadratic_form_moments",
        None,
    ),
]

def _resolve(dotted: str):
    """Import ``a.b.C`` as module ``a.b`` and attribute ``C`` when needed."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        module, _, attr = dotted.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Span:
    __slots__ = ("name", "parent", "start", "end", "work", "thread")

    def __init__(self, name, parent, thread):
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = self.end = 0
        self.work = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6


class Tracer:
    """Installs span wrappers and collects the spans of one round."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, work):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else None
            span = Span(name, parent, threading.get_ident())
            idx = len(tracer.spans)
            tracer.spans.append(span)
            stack.append(idx)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
            if work is not None:
                span.work = work(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target that exists; a renamed or removed one is skipped
        and its metrics are then reported as not observed."""
        for owner_name, attr, name, work in TARGETS:
            try:
                owner = _resolve(owner_name)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, work))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def _quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _children(spans: list[Span]) -> dict[int, list[Span]]:
    kids: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    return kids


def _self_ms(span: Span, kids: list[Span], workers: int) -> float:
    """Span time not covered by its children.  Children that ran on other
    threads (replication workers) overlap each other, so their time is
    divided among the workers."""
    same = sum(c.ms for c in kids if c.thread == span.thread)
    other = sum(c.ms for c in kids if c.thread != span.thread)
    return span.ms - same - other / max(workers, 1)


# name -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "sampling.fill_matrix.ms_p50": "ms",
    "sampling.fill_matrix.ms_p95": "ms",
    "sampling.spawn_generators.ms_p50": "ms",
    "sampling.transform.ms_p50": "ms",
    "sampling.entries_per_s": "1/s",
    "sampling.mc_moment_batches.s": "s",
    "matrices.sample_correlation.ms_p50": "ms",
    "matrices.sample_covariance.ms_p50": "ms",
    "matrices.log_det_spd.ms_p50": "ms",
    "matrices.log_det_spd.ms_p95": "ms",
    "matrices.gflops_computed": "GFLOP/s",
    "cltstats.standardize.us_p50": "us",
    "cltstats.summary_ks.ms": "ms",
    "simulate.loop_self_ms_per_rep": "ms",
    "simulate.aggregate.ms": "ms",
    "simulate.statistics_csv.ms": "ms",
    "simulate.write_outputs.ms": "ms",
    "simulate.output_bytes": "bytes",
    "simulate.workers": "count",
    "simulate.blas_threads": "count",
    "svgplot.emit_plot.ms": "ms",
    "cli.self_ms": "ms",
    "girko.girko_log_det.ms_p50": "ms",
    "moments.permutation_oracle.s": "s",
    "moments.enumerated_quadratic_form_moments.s": "s",
    "tail_limits.convergence_diagnostic.s": "s",
    "verify.verify_girko.s": "s",
    "verify.verify_moments.s": "s",
    "verify.checks": "count",
    "trace.overhead_s": "s",
}


# metric -> (span name, quantile over all calls in the run, scale from ms)
_PERCENTILES = {
    "sampling.fill_matrix.ms_p50": ("sampling.fill_matrix", 0.50, 1.0),
    "sampling.fill_matrix.ms_p95": ("sampling.fill_matrix", 0.95, 1.0),
    "sampling.spawn_generators.ms_p50": ("sampling.spawn_generators", 0.50, 1.0),
    "matrices.sample_correlation.ms_p50": ("matrices.sample_correlation", 0.50, 1.0),
    "matrices.sample_covariance.ms_p50": ("matrices.sample_covariance", 0.50, 1.0),
    "matrices.log_det_spd.ms_p50": ("matrices.log_det_spd", 0.50, 1.0),
    "matrices.log_det_spd.ms_p95": ("matrices.log_det_spd", 0.95, 1.0),
    "cltstats.standardize.us_p50": ("cltstats.standardize", 0.50, 1e3),
    "girko.girko_log_det.ms_p50": ("girko.girko_log_det", 0.50, 1.0),
}

# metric -> (span names whose time adds up within a round, scale from ms)
_PER_ROUND = {
    "sampling.mc_moment_batches.s": ({"sampling.mc_moment_batches"}, 1e-3),
    "cltstats.summary_ks.ms": ({"cltstats.summary_moments", "cltstats.ks_test"}, 1.0),
    "simulate.aggregate.ms": ({"simulate.histogram", "simulate.kde_curve"}, 1.0),
    "simulate.statistics_csv.ms": ({"simulate.statistics_csv"}, 1.0),
    "simulate.write_outputs.ms": ({"simulate.write_outputs"}, 1.0),
    "svgplot.emit_plot.ms": ({"svgplot.emit_plot"}, 1.0),
    "moments.permutation_oracle.s": ({"moments.permutation_oracle"}, 1e-3),
    "moments.enumerated_quadratic_form_moments.s": (
        {"moments.enumerated_quadratic_form_moments"},
        1e-3,
    ),
    "tail_limits.convergence_diagnostic.s": ({"tail_limits.convergence_diagnostic"}, 1e-3),
    "verify.verify_girko.s": ({"verify.verify_girko"}, 1e-3),
    "verify.verify_moments.s": ({"verify.verify_moments"}, 1e-3),
}

_KERNELS = ("matrices.sample_correlation", "matrices.sample_covariance", "matrices.log_det_spd")
_VERIFY = {"verify.verify_girko", "verify.verify_moments"}


def layer_metrics(
    rounds: list[list[Span]],
    reps_per_round: int,
    output_bytes: int | None,
    blas_threads: int | None,
    overhead_s: float,
) -> tuple[dict[str, float], list[str]]:
    """Reduce the spans of the traced rounds to the per-layer metrics.

    ``_p50``/``_p95`` metrics are over all calls in the run; per-round
    totals are medians over the traced rounds.  Returns the metrics that
    were observed and the names of those that were not.
    """
    calls: dict[str, list[Span]] = {}
    for spans in rounds:
        for s in spans:
            calls.setdefault(s.name, []).append(s)
    kids = [_children(spans) for spans in rounds]

    def per_round(names, value=lambda s: s.ms):
        if not any(name in calls for name in names):
            return None
        return statistics.median(
            sum(value(s) for s in spans if s.name in names) for spans in rounds
        )

    def self_times(name):
        return [
            (s, _self_ms(s, round_kids.get(idx, []), workers))
            for spans, round_kids in zip(rounds, kids)
            for idx, s in enumerate(spans)
            if s.name == name
        ]

    workers_seen = [s.work for s in calls.get("simulate.resolve_parallelism", [])]
    workers = int(workers_seen[-1]) if workers_seen else 1

    out: dict[str, float | None] = {}
    for metric, (name, q, scale) in _PERCENTILES.items():
        if name in calls:
            out[metric] = _quantile([s.ms for s in calls[name]], q) * scale
    for metric, (names, scale) in _PER_ROUND.items():
        total = per_round(names)
        out[metric] = None if total is None else total * scale

    fills = calls.get("sampling.fill_matrix", [])
    if fills:
        out["sampling.entries_per_s"] = sum(s.work for s in fills) / (sum(s.ms for s in fills) / 1e3)
        # fill_matrix's only child is spawn_generators, so its self time is the transform
        out["sampling.transform.ms_p50"] = _quantile(
            [t for _, t in self_times("sampling.fill_matrix")], 0.50
        )
    kernel = [s for name in _KERNELS for s in calls.get(name, [])]
    if kernel:
        flops = sum(s.work for s in kernel)
        out["matrices.gflops_computed"] = flops / (sum(s.ms for s in kernel) / 1e3) / 1e9
    loop_self = [t / reps_per_round for _, t in self_times("simulate.run_simulation")]
    if loop_self:
        out["simulate.loop_self_ms_per_rep"] = statistics.median(loop_self)
    if "cli.main" in calls:
        out["cli.self_ms"] = statistics.median(
            sum(_self_ms(s, round_kids.get(idx, []), workers)
                for idx, s in enumerate(spans) if s.name == "cli.main")
            for spans, round_kids in zip(rounds, kids)
        )
    out["simulate.output_bytes"] = float(output_bytes) if output_bytes else None
    out["simulate.workers"] = float(workers) if workers_seen else None
    out["simulate.blas_threads"] = float(blas_threads) if blas_threads else None
    out["verify.checks"] = per_round(_VERIFY, value=lambda s: s.work)
    out["trace.overhead_s"] = overhead_s

    observed = {k: v for k, v in out.items() if v is not None}
    missing = [k for k in LAYER_METRICS if k not in observed]
    return observed, missing
