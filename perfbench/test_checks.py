"""Tests for the benchmark's own checks and tracer.

Each check is first shown to pass on a real (small) CLI output, then fed
a perturbed copy of that output and shown to fail. Run from the checkout
root with:  python3 -m pytest -q perfbench
"""

import copy
import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from spans import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from incrstat import cli  # noqa: E402


def run_cli(tmp_path, subcommand, config_text, seed=0):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(config_text)
    out = tmp_path / "out"
    assert cli.main([subcommand, "--config", str(cfg), "--out", str(out), "--threads", "1",
                     "--seed", str(seed)]) == 0
    return str(out)


# ------------------------------------------------------------ exact moment


@pytest.mark.parametrize("mu", [2.0**-2, 2.0**-6, 2.0**-10])
def test_exact_moment_matches_1d_closed_form(mu):
    # infinite line: sum_x (grad G)^2 = 2 C^2 (1 - lam) / (1 + lam), with
    # G(x) = C lam^|x|, lam + 1/lam = 2 + mu, C = 1 / sqrt(mu (mu + 4))
    lam = (2.0 + mu - math.sqrt(mu * mu + 4.0 * mu)) / 2.0
    C = 1.0 / math.sqrt(mu * (mu + 4.0))
    closed = 2.0 * C * C * (1.0 - lam) / (1.0 + lam)
    L = 4 * checks.required_side(mu)
    torus = checks.exact_iid_second_moment(mu, 1, L, var=1.0)
    wrap = lam ** (L / 2)  # size of the wrap-around images
    assert abs(torus - closed) <= 10 * wrap * closed + 1e-12 * closed


def test_exact_moment_sd_matches_monte_carlo():
    # direct draws, solved spectrally here: the SD formula, including its
    # fourth-cumulant term for uniform increments, against 20000 samples
    mu, L, n = 2.0**-4, 64, 20000
    z = np.random.default_rng(7).uniform(-0.5, 0.5, (n, L))
    lam = 4.0 * np.sin(np.pi * np.arange(L) / L) ** 2
    phi = np.fft.ifft(np.fft.fft(np.roll(z, 1, axis=1) - z, axis=1) / (mu + lam), axis=1).real
    q = np.mean(phi**2, axis=1)
    sd = checks.exact_iid_moment_sd(mu, 1, L, 1.0 / 12.0, -1.0 / 120.0)
    gaussian_sd = checks.exact_iid_moment_sd(mu, 1, L, 1.0 / 12.0, 0.0)
    assert abs(q.mean() - checks.exact_iid_second_moment(mu, 1, L, 1.0 / 12.0)) < 5 * sd / math.sqrt(n)
    assert abs(q.std(ddof=1) / sd - 1.0) < 0.03 < abs(gaussian_sd / sd - 1.0)


# ------------------------------------------------------------ scaling


D3_SMALL = "generator = iid\nd = 3\nn = 4\nl_max = 64\n"
D3_PARAMS = dict(WORKLOADS["scaling-d3-capped"].params, l_max=64)
D1_PARAMS = dict(WORKLOADS["scaling-d1"].params, n=200)


@pytest.fixture(scope="module")
def d3_output(tmp_path_factory):
    out = run_cli(tmp_path_factory.mktemp("d3"), "corrector-scaling", D3_SMALL)
    return checks.read_json(f"{out}/scaling_report.json"), checks.read_csv(f"{out}/scaling.csv")


@pytest.fixture(scope="module")
def d1_output(tmp_path_factory):
    out = run_cli(tmp_path_factory.mktemp("d1"), "corrector-scaling", "generator = iid\nd = 1\nn = 200\n")
    return checks.read_json(f"{out}/scaling_report.json"), checks.read_csv(f"{out}/scaling.csv")


def test_scaling_checks_pass_on_real_output(d3_output, d1_output):
    assert checks.check_scaling(*d3_output, D3_PARAMS) == []
    assert checks.check_scaling(*d1_output, D1_PARAMS) == []


def _mutated(output, fn):
    report, rows = copy.deepcopy(output)
    fn(report, rows)
    return report, rows


def _set_point(i, field, fn):
    """Change one point's field in the JSON report and, where it has one, its CSV row."""
    def mutate(r, rows):
        r["points"][i][field] = fn(r["points"][i][field])
        if field in rows[i]:
            rows[i][field] = repr(r["points"][i][field])
    return mutate


@pytest.mark.parametrize(
    "mutate, expect",
    [
        (_set_point(3, "mean", lambda v: v * 1.05), "exact SE"),
        (_set_point(2, "stderr", lambda v: v * 10.0), "stderr"),
        (_set_point(0, "energy_margin_min", lambda v: -1e-6), "energy margin"),
        (_set_point(1, "L", lambda v: v + 2), "L rule"),
        (_set_point(4, "capped", lambda v: False), "L rule"),
        (lambda r, rows: r.update(verdict="diverging-log"), "verdict"),
        (lambda r, rows: rows[2].update(mean=repr(float(rows[2]["mean"]) * 1.0001)), "disagree"),
    ],
    ids=["mean*1.05", "stderr*10", "margin", "L-rule", "capped-flag", "verdict", "csv-row"],
)
def test_scaling_checks_fire(d3_output, mutate, expect):
    fails = checks.check_scaling(*_mutated(d3_output, mutate), D3_PARAMS)
    assert any(expect in f for f in fails), fails


def test_d1_slope_check_fires(d1_output):
    # tilt the means by mu^-0.15: the slope leaves [-0.6, -0.4]
    def tilt(r, rows):
        for p, row in zip(r["points"], rows):
            p["mean"] *= p["mu"] ** -0.15
            row["mean"] = repr(p["mean"])

    fails = checks.check_scaling(*_mutated(d1_output, tilt), D1_PARAMS)
    assert any("slope" in f for f in fails)


# ------------------------------------------------------------ energy


ENERGY_SMALL = WORKLOADS["energy-renewal"].config_text.replace("256,1024,4096", "64,128,256")
ENERGY_PARAMS = dict(WORKLOADS["energy-renewal"].params, sizes=(64, 128, 256))


@pytest.fixture(scope="module")
def energy_output(tmp_path_factory):
    out = run_cli(tmp_path_factory.mktemp("en"), "energy", ENERGY_SMALL)
    points = {N: checks.read_csv(f"{out}/points_N{N}_s0.csv") for N in ENERGY_PARAMS["sizes"]}
    return checks.read_json(f"{out}/energy_summary.json"), checks.read_csv(f"{out}/energy.csv"), points


def test_pair_count_matches_bruteforce():
    x = np.random.default_rng(1).uniform(0, 50, 300)
    brute = sum(abs(a - b) <= 2.0 for i, a in enumerate(x) for b in x[i + 1:])
    assert checks.pair_count(x, 2.0) == brute


def test_energy_checks_pass_on_real_output(energy_output):
    assert checks.check_energy(*energy_output, ENERGY_PARAMS) == []


def _energy_mutated(output, fn):
    summary, rows, points = copy.deepcopy(output)
    fn(summary, rows, points)
    return summary, rows, points


def _shift_point(points, N, i, dx):
    points[N][i]["x"] = repr(float(points[N][i]["x"]) + dx)


@pytest.mark.parametrize(
    "mutate, expect",
    [
        (lambda s, rows, pts: rows[0].update(energy=repr(float(rows[0]["energy"]) + 1.0)), "recount"),
        (lambda s, rows, pts: _shift_point(pts, 128, 40, 1.1), "interval range"),
        (lambda s, rows, pts: pts[64].pop(30), "labels"),
        (lambda s, rows, pts: pts[256][10].update(k=str(int(pts[256][10]["k"]) + 1)), "labels"),
        (lambda s, rows, pts: pts[256].__delitem__(slice(-3, None)), "cover the window"),
        (lambda s, rows, pts: s["rows"][-1].update(
            density_mean=s["rows"][-1]["density_mean"] + 6 * s["rows"][-1]["spread"]), "density"),
    ],
    ids=["energy+1-pair", "moved-point", "dropped-point", "label", "window-end", "density"],
)
def test_energy_checks_fire(energy_output, mutate, expect):
    fails = checks.check_energy(*_energy_mutated(energy_output, mutate), ENERGY_PARAMS)
    assert any(expect in f for f in fails), fails


# ------------------------------------------------------------ covariance


COV_SMALL = "generator = decay_alpha\nalpha = 3.0\nd = 3\nL = 16\nn_samples = 32\n"
COV_PARAMS = dict(WORKLOADS["covariance-decay"].params, L=16, n_samples=32)


@pytest.fixture(scope="module")
def cov_rows(tmp_path_factory):
    out = run_cli(tmp_path_factory.mktemp("cov"), "covariance", COV_SMALL)
    return checks.read_csv(f"{out}/covariance.csv")


def test_covariance_checks_pass_on_real_output(cov_rows):
    assert checks.check_covariance(cov_rows, COV_PARAMS) == []


def test_exact_covariance_is_the_target_where_nothing_is_clamped():
    # with no clamping, the only change from 1/(1+|k|^3) is the zero mode
    exact = checks.exact_decay_covariance(3.0, 1, 64)
    c = np.arange(64)
    target = 1.0 / (1.0 + np.minimum(c, 64 - c) ** 3.0)
    assert np.fft.fftn(target).real.min() > 0
    np.testing.assert_allclose(exact, target - target.mean(), atol=1e-14)


# rows come 9 to a lag, lags in the order 0, (1,0,0), (0,1,0), (0,0,1), (2,0,0), ...
@pytest.mark.parametrize("row", [0, 9 * 4 + 4, 1, 9 * 12 + 5],
                         ids=["diag-lag0", "diag-lag2", "offdiag-lag0", "offdiag-lag8"])
def test_covariance_checks_fire(cov_rows, row):
    # move one entry 5 standard errors further from the exact value; the
    # tolerance is 5 exact standard errors, so this fires whatever its start
    rows = copy.deepcopy(cov_rows)
    r = rows[row]
    key = (tuple(int(c) for c in r["lag"].split(";")), int(r["l"]), int(r["lp"]))
    ref, sd = checks.covariance_references(COV_PARAMS)[key]
    cov = float(r["cov"])
    r["cov"] = repr(cov + math.copysign(5.0 * sd, cov - ref))
    fails = checks.check_covariance(rows, COV_PARAMS)
    assert any("exact SE" in f for f in fails), fails


def test_covariance_stderr_check_fires(cov_rows):
    rows = copy.deepcopy(cov_rows)
    rows[7]["stderr"] = repr(float(rows[7]["stderr"]) * 10.0)
    fails = checks.check_covariance(rows, COV_PARAMS)
    assert any("stderr" in f for f in fails), fails


# ------------------------------------------------------------ identity and tracing


def test_digest_sees_one_changed_byte(tmp_path):
    out = run_cli(tmp_path, "corrector-scaling", "generator = iid\nd = 1\nn = 4\n")
    before = checks.digest_dir(out)
    path = os.path.join(out, "scaling.csv")
    data = bytearray(open(path, "rb").read())
    data[-3] ^= 1
    open(path, "wb").write(bytes(data))
    assert checks.digest_dir(out) != before


def test_tracer_spans_add_up_and_uninstall_restores(tmp_path):
    from incrstat import corrector, lattice, randfields

    originals = (corrector.solve_helmholtz, lattice.TorusField.__init__, randfields.GeneratorSpec.realize)
    tracer = Tracer()
    tracer.install()
    try:
        cfg = tmp_path / "c.cfg"
        cfg.write_text("generator = iid\nd = 2\nn = 3\nl_max = 32\n")
        rc = tracer.wrap("cli.main", cli.main)(
            ["corrector-scaling", "--config", str(cfg), "--out", str(tmp_path / "o"), "--threads", "1"])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert (corrector.solve_helmholtz, lattice.TorusField.__init__, randfields.GeneratorSpec.realize) == originals
    s = summarize(tracer.spans, tracer.counts)
    names = s["names"]
    assert names["corrector.solve_corrector"]["calls"] == 18
    assert names["lattice.solve_helmholtz"]["calls"] == 18
    assert names["randfields.realize"]["calls"] == 18
    assert names["seeding.derive_rng"]["calls"] == 18
    assert names["lattice.stencil"]["calls"] == 3 * 18
    sides = [p["L"] for p in json.load(open(tmp_path / "o" / "scaling_report.json"))["points"]]
    assert s["counts"]["lattice.sites_solved"] == 3 * sum(L * L for L in sides)
    assert math.isclose(sum(a["self_s"] for a in names.values()), s["root_s"], rel_tol=1e-9)
