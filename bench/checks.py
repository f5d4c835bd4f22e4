"""Output checks made apart from the program.

Each check recomputes something with the benchmark's own code, or tests
a property the method must have; none compares against a stored copy of
earlier output.  A check is one operation of the run: it passes or it
fails, and a failure makes the run incorrect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special, stats

# Statistical checks allow k standard errors.  With k = 5 a correct
# program fails one in about 1.7 million runs; the N(0, 1) check of the
# paper's theorem is looser (k = 6) because it also absorbs the
# finite-(p, n) bias at the benchmark's shape.
K_EXACT = 5.0
K_CLT = 6.0
KS_MIN_P = 1e-6
LOGDET_REL_TOL = 1e-8
STANDARDIZED_ABS_TOL = 1e-9


@dataclass
class Check:
    name: str
    passed: bool
    detail: str

    def __post_init__(self):
        self.passed = bool(self.passed)  # numpy comparisons give numpy bools


def parse_statistics_csv(text: str):
    """Columns of the statistics CSV as arrays (NaN at flagged rows)."""
    lines = text.splitlines()
    if not lines or lines[0] != "rep_index,logdet_raw,standardized,flagged":
        raise ValueError("unexpected statistics CSV header")
    body = [line.split(",") for line in lines[1:]]
    rep = np.array([int(r[0]) for r in body])
    logdet = np.array([float(r[1]) for r in body])
    std = np.array([float(r[2]) for r in body])
    flagged = np.array([r[3] == "1" for r in body])
    return rep, logdet, std, flagged


def scipy_law(law: dict):
    """The entry law as a ``scipy.stats`` distribution."""
    family = law["family"]
    if family == "gaussian":
        return stats.norm()
    if family == "student_t":
        return stats.t(law["df"])
    if family == "inverse_gamma":
        a, b = law["shape"], law["scale"]
        loc = -b / (a - 1.0) if law.get("centered", True) else 0.0
        return stats.invgamma(a, loc=loc, scale=b)
    raise ValueError(f"no reference law for family {family!r}")


def own_log_det(x: np.ndarray, statistic: str, variance: float) -> float:
    """log det of R = Y Yᵀ (rows of X scaled to unit norm) or of
    S = Z Zᵀ / n (Z = X over its population standard deviation), by LU."""
    if statistic == "corr_logdet":
        y = x / np.sqrt((x * x).sum(axis=1))[:, None]
        m = y @ y.T
    else:
        z = x / math.sqrt(variance)
        m = z @ z.T / x.shape[1]
    sign, logdet = np.linalg.slogdet(m)
    return float(logdet) if sign > 0 else math.nan


def own_standardize(logdet: np.ndarray, p: int, n: int, statistic: str, kurtosis: float):
    """The paper's centering and scaling.  Correlation:
    mu = (p-n+1/2) log(1-p/n) - p + p/n, sigma^2 = -2 log(1-p/n) - 2p/n.
    Covariance of unit-variance entries with fourth moment kurtosis:
    mu = (p-n+1/2) log(1-p/n) - p + (kurtosis-3) p/(2n),
    sigma^2 = -2 log(1-p/n) + (kurtosis-3) p/n."""
    g = p / n
    log_gap = math.log(1.0 - g)
    if statistic == "corr_logdet":
        mu = (p - n + 0.5) * log_gap - p + g
        var = -2.0 * log_gap - 2.0 * g
    else:
        excess = kurtosis - 3.0
        mu = (p - n + 0.5) * log_gap - p + 0.5 * excess * g
        var = -2.0 * log_gap + excess * g
    return (logdet - mu) / math.sqrt(var)


def gaussian_cov_logdet_moments(p: int, n: int) -> tuple[float, float]:
    """Exact mean and variance of log det S for Gaussian entries.

    n^p det S is a product of independent chi-square variables with
    n, n-1, ..., n-p+1 degrees of freedom (Bartlett decomposition), and
    log chi2_k has mean psi(k/2) + log 2 and variance psi'(k/2).
    """
    half = (n - np.arange(p)) / 2.0
    mean = float(np.sum(special.digamma(half) + math.log(2.0)) - p * math.log(n))
    var = float(np.sum(special.polygamma(1, half)))
    return mean, var


def _moment_checks(values: np.ndarray, mean: float, var: float, k: float, label: str):
    m = values.size
    d = values - values.mean()
    sample_var = float(d @ d) / (m - 1)
    se_mean = math.sqrt(var / m)
    # standard error of the sample variance from the sample fourth moment
    se_var = math.sqrt(max(float(np.mean(d**4)) - float(np.mean(d**2)) ** 2, 0.0) / m)
    z_mean = (float(values.mean()) - mean) / se_mean
    z_var = (sample_var - var) / se_var if se_var > 0 else math.inf
    return [
        Check(
            f"{label} mean",
            abs(z_mean) <= k,
            f"mean {values.mean():.5f} vs {mean:.5f}: {z_mean:+.2f} SE over {m} reps",
        ),
        Check(
            f"{label} variance",
            abs(z_var) <= k,
            f"variance {sample_var:.5f} vs {var:.5f}: {z_var:+.2f} SE over {m} reps",
        ),
    ]


def check_simulation(config: dict, csv_text: str, round_digests: list[str]) -> list[Check]:
    """Every check of a simulation workload, on the last round's CSV."""
    from corrlogdet.sampling import RngStream, TailLaw, fill_matrix

    law_cfg, p, n = config["law"], config["p"], config["n"]
    statistic, reps, seed = config["statistic"], config["reps"], config["seed"]
    ref = scipy_law(law_cfg)
    variance = float(ref.var())
    kurtosis = float(ref.stats(moments="k")) + 3.0 if statistic == "cov_logdet" else 3.0

    checks = [
        Check(
            "rounds byte-identical",
            len(set(round_digests)) == 1,
            f"{len(round_digests)} rounds, {len(set(round_digests))} distinct statistics CSVs",
        )
    ]
    rep, logdet, std, flagged = parse_statistics_csv(csv_text)
    checks.append(
        Check(
            "csv rows",
            rep.tolist() == list(range(reps)),
            f"{rep.size} rows for {reps} replications",
        )
    )

    law = TailLaw.from_config(law_cfg)
    entries = None
    for r in sorted({0, reps // 2, reps - 1}):
        x = fill_matrix(law, p, n, RngStream(seed, r)).values
        if entries is None:
            entries = x.ravel()
        expect = own_log_det(x, statistic, variance)
        got = logdet[r] if r < logdet.size else math.nan
        err = abs(got - expect)
        checks.append(
            Check(
                f"logdet_raw rep {r}",
                err <= LOGDET_REL_TOL * max(1.0, abs(expect)),
                f"CSV {float(got)!r} vs slogdet {expect!r}",
            )
        )

    good = ~flagged
    expect_std = own_standardize(logdet[good], p, n, statistic, kurtosis)
    worst = float(np.max(np.abs(std[good] - expect_std))) if good.any() else math.inf
    checks.append(
        Check(
            "standardized column",
            worst <= STANDARDIZED_ABS_TOL,
            f"max |CSV - paper formula| = {worst:.3e}",
        )
    )

    ks = stats.kstest(entries, ref.cdf)
    checks.append(
        Check(
            "entry law KS",
            ks.pvalue >= KS_MIN_P,
            f"{entries.size} entries vs scipy.stats {ref.dist.name}: "
            f"D={ks.statistic:.2e}, p={ks.pvalue:.3g}",
        )
    )

    if statistic == "cov_logdet" and law_cfg["family"] == "gaussian":
        mean, var = gaussian_cov_logdet_moments(p, n)
        checks += _moment_checks(logdet[good], mean, var, K_EXACT, "exact Gaussian log det S")
    elif statistic == "corr_logdet" and law_cfg["family"] != "inverse_gamma":
        checks += _moment_checks(std[good], 0.0, 1.0, K_CLT, "N(0,1) standardized")
    return checks


def moment_limit_formula(alpha: float, k: int) -> float:
    """alpha Gamma(alpha/2) Gamma(k - alpha/2) / (2 Gamma(k)) for k >= 2."""
    return alpha * math.gamma(alpha / 2.0) * math.gamma(k - alpha / 2.0) / (2.0 * math.gamma(k))


def _parse_asymptotics(text: str):
    lines = text.splitlines()
    if not lines or lines[0] != "n,estimate,limit,ratio,mom_blocks":
        raise ValueError("unexpected asymptotics CSV header")
    return [
        (int(r[0]), float(r[1]), float(r[2]), float(r[3]))
        for r in (line.split(",") for line in lines[1:])
    ]


def check_certify(plan: dict, round_digests: list[str], asym_text: str, unit_text: str) -> list[Check]:
    """Checks of the certify workload beyond the verify suites' own."""
    from corrlogdet.girko import girko_log_det

    checks = [
        Check(
            "rounds byte-identical",
            len(set(round_digests)) == 1,
            f"{len(round_digests)} rounds, {len(set(round_digests))} distinct outputs",
        )
    ]

    rng = np.random.default_rng(plan["girko_check_seed"])
    for case in range(plan["girko_check_cases"]):
        p = int(rng.integers(5, 41))
        n = max(p + 1, int(round(p / float(rng.uniform(0.1, 0.9)))))
        x = rng.standard_t(3.5, size=(p, n))
        y = x / np.sqrt((x * x).sum(axis=1))[:, None]
        expect = float(np.linalg.slogdet(y @ y.T)[1])
        got = girko_log_det(y).log_det
        checks.append(
            Check(
                f"recursion vs slogdet case {case}",
                abs(got - expect) <= LOGDET_REL_TOL * max(1.0, abs(expect)),
                f"p={p} n={n}: {got!r} vs {expect!r}",
            )
        )

    limit = moment_limit_formula(plan["alpha"], plan["k"])
    rows = _parse_asymptotics(asym_text)
    ok = [r[0] for r in rows] == plan["grid"] and all(
        math.isfinite(est)
        and est > 0.0
        and abs(lim - limit) <= 1e-12 * limit
        and abs(ratio - est / lim) <= 1e-12 * abs(ratio)
        for _, est, lim, ratio in rows
    )
    checks.append(
        Check(
            "asymptotics limit and ratios",
            ok,
            f"grid {[r[0] for r in rows]}, Gamma-formula limit {limit!r}, "
            f"ratios {[round(r[3], 4) for r in rows]}",
        )
    )
    unit = _parse_asymptotics(unit_text)
    checks.append(
        Check(
            "unit-exponent ratio exactly 1",
            len(unit) == len(plan["grid"]) and all(r[3] == 1.0 for r in unit),
            f"ratios {[r[3] for r in unit]}",
        )
    )
    return checks
