"""Run a fixed list of one-edit mutants of ``src/`` against their tests.

Each mutant replaces one exact text in one file by another.  For each
mutant the script copies ``src/``, ``tests/``, ``configs/`` and
``pyproject.toml`` of the checkout it sits in to a fresh temporary
directory, applies the mutant there and runs the mutant's test subset with
``pytest -x``.  It prints one line per mutant, ``name killed <first
failing test>`` or ``name survived``, and then the score::

    python tools/mutants.py

A mutant is recorded as ``killed`` (some test must fail or error) or
``equivalent`` (it keeps the law of every output, so its subset, which
leaves out the pinned digests, must pass).  The subsets are first run on
an unmutated copy.  Exits 1 when a mutant's old text is not found exactly
once, when that baseline fails, when a mutant's result differs from the
recorded one in either direction or when pytest cannot run a subset.  The
score counts only mutants recorded as killed that were killed.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "configs", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]
    expect: str


MUTANTS = [
    # the KDE bandwidth constant (Silverman's 0.9 becomes Scott's 1.06)
    Mutant("m1", "src/corrlogdet/simulate.py", "0.9 * scale", "1.06 * scale",
           ("tests/test_simulate.py::test_kde_silverman_bandwidth",), "killed"),
    # the batch count behind the summary's standard errors
    Mutant("m2", "src/corrlogdet/cltstats.py", "min(16, x.size", "min(8, x.size",
           ("tests/test_cltstats.py",), "killed"),
    # the unbiased excess-kurtosis constant
    Mutant("m3", "src/corrlogdet/cltstats.py", "+ 6.0)", "+ 5.0)",
           ("tests/test_cltstats.py",), "killed"),
    # the fourth-moment term of the covariance centering, doubled
    Mutant("m4", "src/corrlogdet/cltstats.py", "- 0.5 * excess * ratio", "- excess * ratio",
           ("tests/test_cltstats.py",), "killed"),
    # the exponent of the Student-t tail constant
    Mutant("m5", "src/corrlogdet/sampling.py", "(v - 1.0) / 2.0", "(v - 1.0) / 2.2",
           ("tests/test_sampling.py",), "killed"),
    # the inverse-gamma variance
    Mutant("m6", "src/corrlogdet/sampling.py", "(a - 1.0) * (a - 2.0))", "(a - 1.0) * (a - 2.5))",
           ("tests/test_sampling.py",), "killed"),
    # row blocks of two rows where one row passes the block bound; no bit
    # changes, so only the direct test of the blocks sees it
    Mutant("row-blocks-min-2", "src/corrlogdet/sampling.py",
           "max(1, _BLOCK_DRAWS", "max(2, _BLOCK_DRAWS", ("tests/test_sampling.py",), "killed"),
    # an output that is a directory passes the pre-run check
    Mutant("output-directory-check", "src/corrlogdet/simulate.py",
           "        if info and stat.S_ISDIR(info.st_mode):\n"
           '            raise ConfigError(f"cannot write {path}: {real} is a directory")\n',
           "", ("tests/test_cli.py",), "killed"),
    # the correlation law read at the Gaussian fourth moment, not at 1
    Mutant("corr-fourth-moment-3", "src/corrlogdet/simulate.py",
           "fourth_moment = 1.0", "fourth_moment = 3.0",
           ("tests/test_simulate.py", "-k", "small_gaussian"), "killed"),
    # the sign of the fourth-moment term of the limit variance
    Mutant("cov-variance-excess-sign", "src/corrlogdet/cltstats.py",
           "+ excess * ratio", "- excess * ratio", ("tests/test_cltstats.py",), "killed"),
    # the half in the centering's log coefficient
    Mutant("centering-half", "src/corrlogdet/cltstats.py",
           "(p - n + 0.5)", "(p - n + 1.5)", ("tests/test_cltstats.py",), "killed"),
    # the symmetric-Pareto fourth moment
    Mutant("pareto-fourth-moment", "src/corrlogdet/sampling.py",
           "a / (a - 4.0)", "a / (a - 3.0)", ("tests/test_sampling.py",), "killed"),
    # the audit's off-diagonal bound forgets the negative entries
    Mutant("audit-offdiag-min-sign", "src/corrlogdet/girko.py",
           "-block.min()", "block.min()",
           ("tests/test_girko.py", "-k", "audit or offdiag or invariants"), "killed"),
    # the audit's block diagonal is not reset, so it counts as off-diagonal
    Mutant("audit-diag-reset", "src/corrlogdet/girko.py", "diag[:] = 0.0", "pass",
           ("tests/test_girko.py", "-k", "audit or offdiag or invariants"), "killed"),
    # the KS statistic's lower side without its 1/m offset
    Mutant("ks-lower-offset", "src/corrlogdet/cltstats.py",
           "(grid - 1.0 / m)", "grid", ("tests/test_cltstats.py",), "killed"),
    # the constant term of the sphere fourth-moment coefficients
    Mutant("k-constant", "src/corrlogdet/moments.py", "- 3 * one\n", "- 2 * one\n",
           ("tests/test_moments.py", "-k", "k_coefficients"), "killed"),
    # the trace's projector diagonal as 1 minus an exclusive cumsum, which
    # differs from the running subtraction in the last bits
    Mutant("trace-diagonal-cumsum", "src/corrlogdet/girko.py",
           "    diag[0] = 1.0\n"
           "    np.square(ut[:-1], out=diag[1:])\n"
           "    np.subtract.accumulate(diag, axis=0, out=diag)\n",
           "    diag[0] = 0.0\n"
           "    np.square(ut[:-1], out=diag[1:])\n"
           "    np.cumsum(diag, axis=0, out=diag)\n"
           "    np.subtract(1.0, diag, out=diag)\n",
           ("tests/test_girko.py", "-k", "blocked_audit_is_bit_identical"), "killed"),
    # rows squared without their power-of-two scaling: at 2^600 the squares
    # overflow and at 2^-600 they underflow to 0
    Mutant("row-norm-no-scaling", "src/corrlogdet/matrices.py",
           "        np.ldexp(b, shift[a : a + _NORM_ROWS, None], out=b)\n", "",
           ("tests/test_matrices.py", "-k", "2_to_600"), "killed"),
    # the number of distinct index tuples counted from n - 1 coordinates
    Mutant("row-estimates-perm", "src/corrlogdet/moments.py",
           "(p) / math.perm(n, len(key))", "(p) / math.perm(n - 1, len(key))",
           ("tests/test_moments.py", "-k", "mc_table_satisfies_identities_structurally"),
           "killed"),
    # a missing moment key reads as 0 instead of raising
    Mutant("table-get-missing-zero", "src/corrlogdet/moments.py",
           'raise IncompleteTableError(f"moment table is missing {key}") from None', "return 0",
           ("tests/test_moments.py", "-k", "missing_key"), "killed"),
    # the law label's fields in the config's order, not sorted
    Mutant("law-label-unsorted", "src/corrlogdet/svgplot.py",
           "sorted(law.items())", "law.items()",
           ("tests/test_simulate.py::test_svg_plot_golden_bytes",
            "tests/test_cli.py::test_simulate_first_line_has_the_figure_law_label"), "killed"),
    # the Monte Carlo row check lets an infinite squared norm through, so
    # the batch means turn NaN
    Mutant("mc-norm-inf-check", "src/corrlogdet/moments.py",
           "(norms_sq > 0.0) & (norms_sq < np.inf)", "(norms_sq > 0.0)",
           ("tests/test_moments.py", "-k", "extreme_scales"), "killed"),
    # the Student-t angle through sin: the angle is uniform on a full turn,
    # so the law is the same and only the pinned digests see the change
    Mutant("t-angle-sin", "src/corrlogdet/sampling.py",
           "np.cos(2.0 * np.pi", "np.sin(2.0 * np.pi",
           ("tests/test_sampling.py", "-k", "not bits_pinned"), "equivalent"),
]


def _run(tests: tuple[str, ...], mutant: Mutant | None = None) -> tuple[int, str]:
    """Run ``tests`` in a fresh copy of the checkout with ``mutant`` applied;
    pytest's exit code and the first failing test."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, work / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, work / name)
        if mutant:
            target = work / mutant.path
            target.write_text(target.read_text().replace(mutant.old, mutant.new))
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
            cwd=work, env=dict(os.environ, PYTHONPATH=str(work / "src")),
            capture_output=True, text=True, check=False,
        )
    first = re.search(r"^(?:FAILED|ERROR) (\S+)", run.stdout, re.MULTILINE)
    return run.returncode, first.group(1) if first else run.stdout.strip()[-200:]


def main() -> int:
    for m in MUTANTS:
        found = (ROOT / m.path).read_text().count(m.old)
        if found != 1:
            print(f"{m.name}: old text found {found} times in {m.path}")
            return 1
    for tests in dict.fromkeys(m.tests for m in MUTANTS):
        code, first = _run(tests)
        if code != 0:
            print(f"baseline fails: {' '.join(tests)}: {first}")
            return 1
    status, killed = 0, 0
    for m in MUTANTS:
        code, first = _run(m.tests, m)
        # 1: a test failed; 2: collection failed, e.g. the mutant breaks an
        # import (the unmutated baseline passed, so the mutant is the cause)
        if code in (1, 2):
            print(f"{m.name} killed ({m.expect}) {first}", flush=True)
            killed += m.expect == "killed"
            status |= m.expect != "killed"
        elif code == 0:
            print(f"{m.name} survived ({m.expect})", flush=True)
            status |= m.expect != "equivalent"
        else:
            print(f"{m.name} error: pytest exit {code}: {first}", flush=True)
            status = 1
    equivalent = sum(m.expect == "equivalent" for m in MUTANTS)
    print(f"score: {killed}/{len(MUTANTS)} killed, {equivalent} recorded equivalent")
    return status


if __name__ == "__main__":
    sys.exit(main())
