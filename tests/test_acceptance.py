"""End-to-end acceptance runs for the boundedness dichotomy and its tooling.

Twelve numbered checks, each printing one scoreboard line
(`ACCEPTANCE n: PASS/FAIL | detail`) before asserting, so `pytest -s`
yields a readable verdict list. Master seed 0 everywhere, pre-registered
before any measurement; wall-clock budgets are asserted on the heavy
runs. Check 4 compares the d=2 log-log slope with the exact slope of
the same protocol, obtained by fitting `variance_formula_iid` at the
report's own (mu, L) points, within 3 propagated standard errors.
"""

import time

import numpy as np
import pytest

from incrstat import cli
from incrstat.corrector import (
    green_representation_check,
    scaling_study,
    second_moment_mc,
    solve_corrector,
    variance_formula_iid,
)
from incrstat.green import dyadic_gradient_norms, green_1d_exact, green_torus
from incrstat.lattice import TorusGeometry
from incrstat.pointsets import (
    IntervalLaw,
    LatticeMapSpec,
    PairPotential,
    lattice_image_pointset,
    linearity_detector,
    thermodynamic_density,
)
from incrstat.randfields import GeneratorSpec, IncrementLaw

from oracle_utils import line_green_dense

MASTER_SEED = 0
UNIT_LAW = IncrementLaw("uniform_centered", 1.0)
IID = GeneratorSpec("iid", law=UNIT_LAW)
GRADIENT = GeneratorSpec("gradient", law=UNIT_LAW)


def scoreboard(n: int, ok: bool, detail: str, elapsed: float | None = None) -> None:
    suffix = "" if elapsed is None else f" ({elapsed:.1f}s)"
    print(f"\nACCEPTANCE {n:2d}: {'PASS' if ok else 'FAIL'} | {detail}{suffix}")


# ------------------------------------------------- shared heavy runs

@pytest.fixture(scope="session")
def mc_identity_runs():
    """Monte Carlo second moments at d=1, L=1024 for three mu values."""
    t0 = time.monotonic()
    geom = TorusGeometry(1, 1024)
    runs = []
    for mu in (2.0**-2, 2.0**-4, 2.0**-6):
        res = second_moment_mc(mu, IID, geom, 500, master_seed=MASTER_SEED)
        runs.append((mu, res, variance_formula_iid(mu, geom, UNIT_LAW.variance)))
    return runs, time.monotonic() - t0


@pytest.fixture(scope="session")
def study_d1():
    t0 = time.monotonic()
    report = scaling_study(IID, 1, n_per_mu=200, master_seed=MASTER_SEED)
    return report, time.monotonic() - t0


@pytest.fixture(scope="session")
def study_d2():
    t0 = time.monotonic()
    report = scaling_study(IID, 2, n_per_mu=200, master_seed=MASTER_SEED, l_max=1024)
    return report, time.monotonic() - t0


@pytest.fixture(scope="session")
def study_d3():
    t0 = time.monotonic()
    report = scaling_study(IID, 3, n_per_mu=200, master_seed=MASTER_SEED, l_max=96)
    return report, time.monotonic() - t0


# ------------------------------------------------------ the criteria

def test_criterion_01_line_green_vs_dense_solve():
    t0 = time.monotonic()
    radius = 200
    worst = 0.0
    xs = np.arange(-50, 51)
    for mu in (1e-2, 1e-1, 1.0, 3.0):
        dense = line_green_dense(mu, radius)
        exact = green_1d_exact(mu, xs)
        rel = np.max(np.abs(exact - dense[xs + radius]) / dense[xs + radius])
        worst = max(worst, float(rel))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    scoreboard(1, ok, f"closed form vs dense line solve: worst rel {worst:.2e} "
                      f"(tol 1e-10, |x| <= 50, 4 mu values)", elapsed)
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_02_variance_identity(mc_identity_runs):
    runs, elapsed = mc_identity_runs
    worst_z = max(abs(res.mean - target) / res.stderr for _, res, target in runs)
    ok = worst_z <= 3.0 and elapsed < 60.0
    detail = "; ".join(
        f"mu=2^{int(np.log2(mu))}: {res.mean:.5f} vs {target:.5f} "
        f"(z {abs(res.mean - target) / res.stderr:.2f})"
        for mu, res, target in runs
    )
    scoreboard(2, ok, f"E[phi^2] vs Var[a]*sum(dG)^2 within 3 SE: {detail}", elapsed)
    for mu, res, target in runs:
        assert abs(res.mean - target) <= 3.0 * res.stderr, f"mu={mu}"
    assert elapsed < 60.0


def test_criterion_03_d1_powerlaw_divergence(study_d1):
    report, elapsed = study_d1
    slope, r2 = report.fits.loglog_slope, report.fits.loglog_r2
    ok = -0.6 <= slope <= -0.4 and r2 >= 0.9 and elapsed < 300.0
    scoreboard(3, ok, f"d=1 log-log slope {slope:.4f} in [-0.6, -0.4], "
                      f"R^2 {r2:.4f} >= 0.9, verdict {report.verdict}", elapsed)
    assert -0.6 <= slope <= -0.4
    assert r2 >= 0.9
    assert elapsed < 300.0


def test_criterion_04_d2_log_divergence(study_d2):
    report, elapsed = study_d2
    slope = report.fits.loglog_slope
    loglin_r2 = report.fits.loglin_r2
    x = np.log([p.mu for p in report.points])
    exact = [variance_formula_iid(p.mu, TorusGeometry(2, p.L), UNIT_LAW.variance)
             for p in report.points]
    exact_slope = float(np.polyfit(x, np.log(exact), 1)[0])
    # the least-squares slope is sum_i w_i ln(mean_i); propagate each
    # point's relative standard error through those weights
    w = (x - x.mean()) / np.sum((x - x.mean()) ** 2)
    rel_se = np.array([p.stderr / p.mean for p in report.points])
    slope_se = float(np.sqrt(np.sum((w * rel_se) ** 2)))
    z = abs(slope - exact_slope) / slope_se
    ok = loglin_r2 >= 0.95 and z <= 3.0 and elapsed < 900.0
    scoreboard(4, ok, f"d=2 affine-in-|ln mu| R^2 {loglin_r2:.4f} >= 0.95; "
                      f"log-log slope {slope:.5f} vs exact {exact_slope:.5f} "
                      f"(z {z:.2f}, SE {slope_se:.5f})", elapsed)
    assert loglin_r2 >= 0.95
    assert elapsed < 900.0
    assert abs(slope - exact_slope) <= 3.0 * slope_se, (
        f"measured {slope:.5f}, exact {exact_slope:.5f}, z {z:.2f}"
    )


def test_criterion_05_d3_boundedness(study_d3):
    report, elapsed = study_d3
    ratio = report.fits.boundedness_ratio
    ok = ratio <= 1.5 and report.verdict == "bounded" and elapsed < 1200.0
    scoreboard(5, ok, f"d=3 (L capped at 96) ratio {ratio:.4f} <= 1.5, "
                      f"verdict {report.verdict}", elapsed)
    assert ratio <= 1.5
    assert report.verdict == "bounded"
    assert elapsed < 1200.0


def test_criterion_06_energy_estimate_never_violated(
    mc_identity_runs, study_d1, study_d2, study_d3
):
    runs, _ = mc_identity_runs
    margins = [res.energy_margin_min for _, res, _ in runs]
    n_real = sum(res.n for _, res, _ in runs)
    for report, _ in (study_d1, study_d2, study_d3):
        margins.extend(p.energy_margin_min for p in report.points)
        n_real += sum(p.n for p in report.points)
    worst = min(margins)
    ok = worst >= -1e-9
    scoreboard(6, ok, f"mu E[phi^2] + E[|dphi|^2] <= E[|zeta|^2] + 1e-9: "
                      f"worst margin {worst:.2e} over {n_real} realizations, "
                      f"0 violations" if ok else
                      f"energy estimate violated: worst margin {worst:.2e}")
    assert worst >= -1e-9


def test_criterion_07_gradient_rhs_bounded_all_d():
    t0 = time.monotonic()
    grid = tuple(2.0**-k for k in range(4, 13, 2))
    details = []
    all_ok = True
    for d, l_max in ((1, None), (2, None), (3, 64)):
        report = scaling_study(
            GRADIENT, d, mu_grid=grid, n_per_mu=100,
            master_seed=MASTER_SEED, l_max=l_max,
        )
        gap = max(p.mean - p.psi_mean for p in report.points)
        ok = gap <= 1e-12 and report.verdict == "bounded"
        all_ok = all_ok and ok
        details.append(f"d={d}: ratio {report.fits.boundedness_ratio:.4f}, "
                       f"max E[phi^2]-E[psi^2] {gap:.1e}, {report.verdict}")
    elapsed = time.monotonic() - t0
    scoreboard(7, all_ok, "; ".join(details), elapsed)
    assert all_ok


def test_criterion_08_dyadic_gradient_slopes():
    t0 = time.monotonic()
    table = green_torus(1e-4, TorusGeometry(3, 128))
    fits = {p: dyadic_gradient_norms(table, p) for p in (1.0, 2.0)}
    elapsed = time.monotonic() - t0
    worst = max(abs(dn.slope - dn.expected_slope) for dn in fits.values())
    ok = worst <= 0.3 and elapsed < 60.0
    detail = "; ".join(
        f"p={p:g}: slope {dn.slope:.3f} vs {dn.expected_slope:g}"
        for p, dn in fits.items()
    )
    scoreboard(8, ok, f"d=3 annulus slopes within 0.3: {detail}", elapsed)
    for p, dn in fits.items():
        assert abs(dn.slope - dn.expected_slope) <= 0.3, f"p={p}"
    assert elapsed < 60.0


def test_criterion_09_representation_agreement():
    combos = (
        (1, 1.0, 0), (1, 0.1, 1), (1, 0.01, 2),
        (2, 1.0, 3), (2, 0.25, 4), (2, 0.01, 5),
        (3, 0.5, 6), (3, 0.05, 7), (3, 1e-3, 8), (2, 1e-3, 9),
    )
    sides = {1: 256, 2: 64, 3: 32}
    worst = 0.0
    for d, mu, seed in combos:
        geom = TorusGeometry(d, sides[d])
        zeta = IID.realize(geom, seed, 0)
        dev = green_representation_check(mu, zeta)
        sup = float(np.max(np.abs(solve_corrector(mu, zeta).phi)))
        worst = max(worst, dev / sup)
    ok = worst <= 1e-8
    scoreboard(9, ok, f"convolution path vs solver path on 10 (d, mu, seed) "
                      f"combos: worst rel deviation {worst:.2e} (tol 1e-8)")
    assert worst <= 1e-8


def test_criterion_10_density_self_averaging():
    t0 = time.monotonic()
    study = thermodynamic_density(
        IntervalLaw("uniform", 0.5, 1.5),
        PairPotential("indicator", 2.0),
        (256, 1024, 4096),
        n_seeds=8,
        master_seed=MASTER_SEED,
        shift=8,
    )
    elapsed = time.monotonic() - t0
    spreads = [s for _, _, s in study.rows()]
    ok = study.spread_decreases and bool(study.shift_agrees)
    scoreboard(10, ok, f"density spread N=256..4096: "
                       + " -> ".join(f"{s:.4f}" for s in spreads)
                       + f"; shifted realizations within 2x spread: "
                       f"{study.shift_agrees}", elapsed)
    assert study.spread_decreases
    assert study.shift_agrees


def test_criterion_11_affine_detector_exactness():
    t0 = time.monotonic()
    ranges = {1: ((-6, 6),), 2: ((-3, 3),) * 2, 3: ((-2, 2),) * 3}
    affine_ok = perturbed_ok = 0
    n_cases = 50
    for case in range(n_cases):
        d = case % 3 + 1
        rng = np.random.default_rng((11, case))
        while True:
            M = rng.integers(-512, 513, size=(d, d))
            if round(float(np.linalg.det(M))) != 0:  # integer det, exact test
                break
        A = M / 256.0  # dyadic entries make the increment read-off exact
        b = int(rng.integers(-512, 513)) / 256.0
        spec = LatticeMapSpec("affine", d, matrix=tuple(map(tuple, A)),
                              b_law=IncrementLaw("constant", b))
        _, field = lattice_image_pointset(spec, ranges[d], seed=case)
        v = linearity_detector(field)
        if v.affine and v.A is not None and np.array_equal(v.A, A):
            affine_ok += 1
        amp = 0.1 + 0.35 * float(rng.random())
        pspec = LatticeMapSpec("perturbed_identity", d, amplitude=amp)
        _, pfield = lattice_image_pointset(pspec, ranges[d], seed=case)
        if not linearity_detector(pfield).affine:
            perturbed_ok += 1
    elapsed = time.monotonic() - t0
    ok = affine_ok == n_cases and perturbed_ok == n_cases
    scoreboard(11, ok, f"affine classified with exact A: {affine_ok}/{n_cases}; "
                       f"perturbed (amp in [0.1, 0.45]) classified non-affine: "
                       f"{perturbed_ok}/{n_cases}", elapsed)
    assert affine_ok == n_cases
    assert perturbed_ok == n_cases


THREAD_CONFIGS = {
    "scaling_d1": ("corrector-scaling", "d = 1\ngenerator = iid\nn = 30\n"),
    "scaling_d3": ("corrector-scaling",
                   "d = 3\ngenerator = gradient\nn = 8\nl_max = 32\n"),
    "green": ("green", "d = 3\nL = 64\nmu = 0.0001\np = 1.0,2.0\n"),
    "covariance": ("covariance",
                   "d = 1\nL = 64\ngenerator = iid\nn_samples = 16\n"
                   "lag_list = 0,1,2\n"),
    "energy": ("energy",
               "law = uniform\nlaw_a = 0.5\nlaw_b = 1.5\npotential = indicator\n"
               "cutoff = 2.0\nsizes = 128,256,512\nn_seeds = 8\nshift = 8\n"),
}


def test_criterion_12_thread_count_invariance(tmp_path):
    t0 = time.monotonic()
    mismatched = []
    for name, (sub, text) in THREAD_CONFIGS.items():
        cfg_path = tmp_path / f"{name}.cfg"
        cfg_path.write_text(text)
        out = {}
        for threads in ("1", "2"):
            od = tmp_path / f"{name}_t{threads}"
            rc = cli.main([sub, "--config", str(cfg_path),
                           "--out", str(od), "--threads", threads])
            assert rc == 0, f"{name} at --threads {threads} exited {rc}"
            out[threads] = od
        for f in sorted(out["1"].iterdir()):
            if (out["2"] / f.name).read_bytes() != f.read_bytes():
                mismatched.append(f"{name}/{f.name}")
    elapsed = time.monotonic() - t0
    ok = not mismatched
    scoreboard(12, ok, "--threads 1 vs 2 byte-identical artifacts for "
                       f"{len(THREAD_CONFIGS)} configs"
                       + ("" if ok else f"; mismatched: {mismatched}"), elapsed)
    assert not mismatched
