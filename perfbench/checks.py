"""Output checks for the benchmark's CLI invocations.

Every check compares an artifact with a value computed here, apart from
the program (the exact iid second moment, an independent pair count, the
exact covariance of the synthesized field), or with a property the method
must have. None compares with a stored copy of earlier output. Each check
function returns a list of failure messages; an empty list is a pass.

Statistical checks measure an estimate's distance from its exact value in
exact standard errors, computed here from the same spectrum, and check
the artifact's own `stderr` against that exact standard error. With four
realizations (scaling-d3-capped) the artifact's stderr has three degrees
of freedom, so a z-score built on it has tails far too heavy for a check
that must pass on every seed; README.md gives the measured figures.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

from workloads import L_RULE, MU_GRID

Z_MAX = 5.0  # |estimate - exact| in exact standard errors, per entry
# artifact stderr / exact standard error: the 1e-5 tails of a 4-sample estimate
STDERR_RATIO = (0.02, 3.5)
DENSITY_SPREADS = 3.0  # |mean density - exact| in units of the cross-seed spread
MARGIN_TOL = -1e-9
SLOPE_D1 = (-0.6, -0.4)


# ---------------------------------------------------------------- reading


def read_csv(path: str) -> list[dict]:
    """Rows of an incrstat CSV artifact, skipping its `#` config header."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def digest_dir(path: str) -> dict[str, str]:
    """sha256 of every file in an output directory, by file name."""
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


# ---------------------------------------------------------------- scaling


def required_side(mu: float) -> int:
    """Smallest even L >= 4 with L >= 8 / sqrt(mu)."""
    L = max(4, math.ceil(L_RULE / math.sqrt(mu)))
    return L + L % 2


def _iid_spectrum(mu: float, d: int, L: int, axis: int) -> np.ndarray:
    """Eigenvalues of M in Q = zeta^T M zeta = site-avg phi^2.

    lambda_axis(k) / (mu + lambda(k))^2 / L^d with
    lambda_l(k) = 4 sin^2(pi k_l / L) and lambda = sum_l lambda_l.
    """
    line = 4.0 * np.sin(np.pi * np.arange(L) / L) ** 2
    grids = np.meshgrid(*([line] * d), indexing="ij", sparse=True)
    return grids[axis] / (mu + sum(grids)) ** 2 / L**d


def exact_iid_second_moment(mu: float, d: int, L: int, var: float, axis: int = 0) -> float:
    """E[site-avg phi^2] for iid increments of variance var on the L^d torus."""
    return float(var * np.sum(_iid_spectrum(mu, d, L, axis)))


def exact_iid_moment_sd(mu: float, d: int, L: int, var: float, cum4: float, axis: int = 0) -> float:
    """Standard deviation of site-avg phi^2 over realizations.

    For iid entries, Var(zeta^T M zeta) = 2 var^2 tr(M^2) + cum4 sum_i M_ii^2;
    M is circulant, so M_ii = tr(M) / L^d. Centring zeta at generation
    changes nothing: M annihilates constants.
    """
    e = _iid_spectrum(mu, d, L, axis)
    return math.sqrt(2.0 * var**2 * np.sum(e**2) + cum4 * np.sum(e) ** 2 / L**d)


def _z_fails(label: str, est: float, stderr: float, exact: float, sd: float) -> list[str]:
    """|est - exact| <= Z_MAX * sd, and stderr / sd within STDERR_RATIO."""
    fails = []
    if not abs(est - exact) <= Z_MAX * sd:
        fails.append(f"{label}: {est} is {abs(est - exact) / sd:.2f} exact SE from {exact} (> {Z_MAX})")
    lo, hi = STDERR_RATIO
    if not lo * sd <= stderr <= hi * sd:
        fails.append(f"{label}: stderr {stderr} / exact {sd} = {stderr / sd:.3g}, outside [{lo}, {hi}]")
    return fails


def loglog_slope(mus, means) -> float:
    return float(np.polyfit(np.log(mus), np.log(means), 1)[0])


def check_scaling(report: dict, csv_rows: list[dict], params: dict) -> list[str]:
    fails = []
    d, n, l_max = params["d"], params["n"], params["l_max"]
    points = report["points"]
    if [p["mu"] for p in points] != list(MU_GRID):
        return [f"mu grid {[p['mu'] for p in points]} is not the default grid"]
    for p in points:
        mu, L = p["mu"], p["L"]
        need = required_side(mu)
        capped = l_max is not None and need > l_max
        if L != (l_max if capped else need) or bool(p["capped"]) != capped:
            fails.append(f"mu={mu}: L={L} capped={p['capped']}, L rule gives {need}")
        if p["n"] != n:
            fails.append(f"mu={mu}: n={p['n']}, config asks {n}")
        if not p["energy_margin_min"] >= MARGIN_TOL:
            fails.append(f"mu={mu}: energy margin {p['energy_margin_min']} < {MARGIN_TOL}")
        exact = exact_iid_second_moment(mu, d, L, params["var"])
        sd = exact_iid_moment_sd(mu, d, L, params["var"], params["cum4"]) / math.sqrt(n)
        fails += _z_fails(f"mu={mu} mean", p["mean"], p["stderr"], exact, sd)
    rows = [(float(r["mu"]), float(r["mean"]), float(r["stderr"]), int(r["L"])) for r in csv_rows]
    if rows != [(p["mu"], p["mean"], p["stderr"], p["L"]) for p in points]:
        fails.append("scaling.csv rows disagree with scaling_report.json points")
    if report["verdict"] != params["verdict"]:
        fails.append(f"verdict {report['verdict']}, expected {params['verdict']}")
    if params["verdict"] == "diverging-powerlaw":
        slope = loglog_slope([p["mu"] for p in points], [p["mean"] for p in points])
        lo, hi = SLOPE_D1
        if not lo <= slope <= hi:
            fails.append(f"log-log slope {slope:.4f} outside [{lo}, {hi}]")
    return fails


# ---------------------------------------------------------------- energy


def pair_count(x: np.ndarray, cutoff: float) -> int:
    """Number of pairs i < j with |x_i - x_j| <= cutoff, by a sorted sweep."""
    x = np.sort(x)
    ends = np.searchsorted(x, x + cutoff, side="right")
    return int(np.sum(ends - np.arange(1, x.size + 1)))


def renewal_density(lo: float, hi: float, cutoff: float) -> float:
    """Pairs per unit length, sum_k P(S_k <= cutoff), for uniform(lo, hi) intervals.

    Only the case of the benchmark is handled: lo = 0.5, hi = 1.5, cutoff 2,
    where the terms are 1, 1/2 and 1/48 and S_4 >= 2 almost surely.
    """
    if (lo, hi, cutoff) != (0.5, 1.5, 2.0):
        raise ValueError("analytic density implemented only for uniform(0.5, 1.5), cutoff 2")
    return (1.0 + 0.5 + 1.0 / 48.0) / (0.5 * (lo + hi))


def check_energy(summary: dict, energy_rows: list[dict], points: dict, params: dict) -> list[str]:
    """points maps N to the rows of points_N{N}_s0.csv."""
    fails = []
    lo, hi, cutoff = params["lo"], params["hi"], params["cutoff"]
    seed0 = {int(r["N"]): float(r["energy"]) for r in energy_rows if int(r["seed"]) == 0}
    for N in params["sizes"]:
        rows = points.get(N)
        if rows is None:
            fails.append(f"N={N}: no exported points")
            continue
        k = np.array([int(r["k"]) for r in rows])
        x = np.array([float(r["x"]) for r in rows])
        if not np.array_equal(k, np.arange(k[0], k[0] + k.size)):
            fails.append(f"N={N}: labels are not consecutive")
        if 0 not in k or x[k == 0][0] != 0.0:
            fails.append(f"N={N}: point 0 is not at the origin")
        gaps = np.diff(x)
        slack = 4.0 * np.spacing(float(np.max(np.abs(x))))
        if gaps.size and not (gaps.min() >= lo - slack and gaps.max() <= hi + slack):
            fails.append(f"N={N}: interval range [{gaps.min()}, {gaps.max()}] leaves [{lo}, {hi}]")
        if x[0] < -cutoff or x[0] - hi >= -cutoff or x[-1] > N + cutoff or x[-1] + hi <= N + cutoff:
            fails.append(f"N={N}: points [{x[0]}, {x[-1]}] do not cover the window exactly")
        inside = x[(x >= 0.0) & (x <= float(N))]
        count = pair_count(inside, cutoff)
        if seed0.get(N) != float(count):
            fails.append(f"N={N}: energy.csv seed 0 energy {seed0.get(N)}, recount {count}")
    rows = {r["N"]: r for r in summary["rows"]}
    big = rows.get(max(params["sizes"]))
    exact = renewal_density(lo, hi, cutoff)
    if big is None:
        fails.append("energy_summary.json has no row for the largest box")
    elif not abs(big["density_mean"] - exact) <= DENSITY_SPREADS * big["spread"]:
        fails.append(
            f"N={big['N']}: density {big['density_mean']} vs exact {exact:.6f}, "
            f"more than {DENSITY_SPREADS} x spread {big['spread']}"
        )
    return fails


# ---------------------------------------------------------------- covariance


def exact_decay_covariance(alpha: float, d: int, L: int) -> np.ndarray:
    """Covariance of the centred decay_alpha field the program synthesizes.

    The target 1/(1+|k|^alpha) at centred site representatives, taken to
    Fourier space, clamped at zero and stripped of its zero mode (the
    per-sample centring), then transformed back.
    """
    c = np.arange(L)
    rep = np.where(c <= L // 2, c, c - L).astype(float)
    grids = np.meshgrid(*([rep**2] * d), indexing="ij", sparse=True)
    target = 1.0 / (1.0 + np.sqrt(sum(grids)) ** alpha)
    spec = np.maximum(np.fft.fftn(target).real, 0.0)
    spec[(0,) * d] = 0.0
    return np.fft.ifftn(spec).real


def covariance_references(params: dict) -> dict:
    """(lag, l, l') -> (exact mean, exact SD of the mean) for every configured entry.

    For the Gaussian field with covariance C, the per-sample statistic
    T = site-avg v_l(x+m) v_l'(x) has variance (R(0) + R(2m)) / L^d on the
    diagonal and R(0) / L^d off it (independent components), where R is
    the circular autocorrelation of C (Isserlis).
    """
    d, L, n = params["d"], params["L"], params["n_samples"]
    exact = exact_decay_covariance(params["alpha"], d, L)
    R = np.fft.ifftn(np.abs(np.fft.fftn(exact)) ** 2).real
    lags = {(0,) * d} | {
        tuple(m if a == ax else 0 for a in range(d)) for m in params["lags"] if m for ax in range(d)
    }
    refs = {}
    for lag in lags:
        for l in range(d):
            for lp in range(d):
                var = R[(0,) * d] + (R[tuple(2 * c % L for c in lag)] if l == lp else 0.0)
                ref = exact[tuple(c % L for c in lag)] if l == lp else 0.0
                refs[(lag, l, lp)] = (float(ref), math.sqrt(var / L**d / n))
    return refs


def check_covariance(rows: list[dict], params: dict) -> list[str]:
    """Each entry against the exact covariance, in exact standard errors."""
    fails = []
    refs = covariance_references(params)
    keys = [(tuple(int(c) for c in r["lag"].split(";")), int(r["l"]), int(r["lp"])) for r in rows]
    if sorted(keys) != sorted(refs):
        return ["covariance.csv entries are not the configured lags and components"]
    for key, r in zip(keys, rows):
        ref, sd = refs[key]
        fails += _z_fails(f"cov {key}", float(r["cov"]), float(r["stderr"]), ref, sd)
    return fails


# ---------------------------------------------------------------- dispatch


def check_artifacts(workload, out_dir: str) -> list[str]:
    """Run the workload's independent checks on one output directory."""
    p = lambda name: os.path.join(out_dir, name)  # noqa: E731
    if workload.subcommand == "corrector-scaling":
        return check_scaling(read_json(p("scaling_report.json")), read_csv(p("scaling.csv")), workload.params)
    if workload.subcommand == "energy":
        points = {N: read_csv(p(f"points_N{N}_s0.csv")) for N in workload.params["sizes"]}
        return check_energy(read_json(p("energy_summary.json")), read_csv(p("energy.csv")), points, workload.params)
    return check_covariance(read_csv(p("covariance.csv")), workload.params)
