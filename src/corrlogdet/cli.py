"""Command-line interface.

Subcommands: ``simulate`` (config-driven Monte Carlo run), ``verify-moments``
(exact-rational identity certification), ``verify-girko`` (recursion vs
Cholesky audit), ``asymptotics`` (scaled-moment convergence diagnostic),
``plot`` (re-render an SVG from a saved report).

Exit codes: 0 success, 1 verification failure, 2 invalid configuration or
arguments, a degenerate data row or out of memory, 3 numerical failure
beyond the flag budget, 141 a closed stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .errors import (
    ConfigError,
    DegenerateInputError,
    NumericalFailure,
    ParameterDomainError,
    ResourceError,
)
from .sampling import RngStream, TailLaw
from .simulate import (
    ExperimentConfig,
    ExperimentReport,
    check_output_paths,
    run_simulation,
    write_outputs,
    write_text,
)
from .svgplot import emit_plot
from .tail_limits import convergence_diagnostic, diagnostic_csv
from .verify import verify_girko, verify_moments


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrlogdet",
        description="Monte Carlo and exact verification tools for the "
        "log-determinant laws of large correlation matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo experiment from a JSON config")
    sim.add_argument("--config", required=True, help="path to the JSON experiment config")
    sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    sim.add_argument("--reps", type=int, default=None, help="override the replication count")
    sim.add_argument("--out-csv", dest="csv_path", help="override the statistics CSV path")
    sim.add_argument("--out-json", dest="json_path", help="override the report JSON path")
    sim.add_argument("--out-svg", dest="svg_path", help="override the SVG figure path")

    vm = sub.add_parser("verify-moments", help="exact-rational certification of the identities")
    vm.add_argument("--nmax", type=int, default=6, help="largest coordinate count, 3 to 8")
    vm.add_argument("--vectors", type=int, default=50, help="random unit vectors per n")
    vm.add_argument("--trials", type=int, default=20, help="enumeration-equivalence trials per n")
    vm.add_argument("--seed", type=int, default=20243)

    vg = sub.add_parser("verify-girko", help="recursion vs Cholesky log-det audit")
    vg.add_argument("--cases", type=int, default=200)
    vg.add_argument("--seed", type=int, default=20244)

    asym = sub.add_parser("asymptotics", help="scaled-moment convergence diagnostic")
    asym.add_argument("--alpha", type=float, required=True, help="tail index in (2, 4)")
    asym.add_argument("--k", default="2", help="comma-separated half-exponents, e.g. 2 or 2,1")
    asym.add_argument("--grid", default="500,2000,8000", help="comma-separated row lengths")
    asym.add_argument("--reps", type=int, default=100000, help="rows per grid point")
    asym.add_argument(
        "--law",
        choices=("symmetric_pareto", "student_t"),
        default="symmetric_pareto",
        help="entry distribution (tail index taken from --alpha)",
    )
    asym.add_argument("--seed", type=int, default=0)
    asym.add_argument("--out-csv", default=None)

    plot = sub.add_parser("plot", help="render the SVG figure from a saved report")
    plot.add_argument("--in", dest="in_path", required=True, help="report JSON path")
    plot.add_argument("--out", dest="out_path", required=True, help="SVG output path")

    return parser


def _cmd_simulate(args) -> int:
    config = ExperimentConfig.from_json_file(args.config)
    fields = ("seed", "reps", "csv_path", "json_path", "svg_path")
    overrides = {f: getattr(args, f) for f in fields if getattr(args, f) is not None}
    config = dataclasses.replace(config, **overrides)
    config.check_outputs(args.config)
    report = run_simulation(config)
    written = write_outputs(report, config)
    s = report.summary
    print(
        f"{config.law.label()} p={config.p} n={config.n} reps={config.reps} "
        f"[{config.statistic}]"
    )
    print(
        f"  mean={s.mean:+.4f} variance={s.variance:.4f} "
        f"skewness={s.skewness:+.4f} excess_kurtosis={s.excess_kurtosis:+.4f}"
    )
    print(f"  KS statistic={report.ks.statistic:.5f} p-value={report.ks.p_value:.4g}")
    print(f"  flagged={report.n_flagged} wall={report.timing['wall_seconds']:.2f}s")
    for path in written:
        print(f"  wrote {path}")
    return 0


def _print_report(report) -> int:
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def _int_list(option: str, text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ConfigError(f"{option} takes comma-separated integers, got {text!r}") from None


def _cmd_asymptotics(args) -> int:
    exponents = tuple(_int_list("--k", args.k))
    grid = _int_list("--grid", args.grid)
    if args.law == "symmetric_pareto":
        law = TailLaw.symmetric_pareto(args.alpha)
    else:
        law = TailLaw.student_t(args.alpha)
    check_output_paths({"--out-csv": args.out_csv})
    rows = convergence_diagnostic(law, exponents, grid, reps=args.reps, rng=RngStream(args.seed))
    csv_text = diagnostic_csv(rows)
    if args.out_csv:
        write_text(args.out_csv, csv_text)
        print(f"wrote {args.out_csv}")
    else:
        sys.stdout.write(csv_text)
    return 0


def _cmd_plot(args) -> int:
    try:
        with open(args.in_path, "r", encoding="utf-8") as fh:
            report = ExperimentReport.from_json(fh.read())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot load report {args.in_path}: {exc}") from exc
    check_output_paths({"--in": args.in_path, "--out": args.out_path})
    write_text(args.out_path, emit_plot(report))
    print(f"wrote {args.out_path}")
    return 0


_DISPATCH = {
    "simulate": _cmd_simulate,
    # the lambdas look the verifiers up at call time, so a wrapper that
    # replaces this module's ``verify_moments`` or ``verify_girko`` sees the call
    "verify-moments": lambda args: _print_report(
        verify_moments(nmax=args.nmax, vectors=args.vectors, trials=args.trials, seed=args.seed)
    ),
    "verify-girko": lambda args: _print_report(verify_girko(cases=args.cases, seed=args.seed)),
    "asymptotics": _cmd_asymptotics,
    "plot": _cmd_plot,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = _DISPATCH[args.command](args)
        sys.stdout.flush()  # so that a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # stdout's reader is gone (``| head``): exit as SIGPIPE would, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ConfigError, DegenerateInputError, ParameterDomainError, ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
