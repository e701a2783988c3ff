"""Config layer and command-line driver.

Runs the real `main()` in-process against small configs written to tmp
dirs, so artifact bytes, exit codes and the JSON error channel are all
exercised end to end. One test goes through the installed console
script to cover the entry point itself; it runs only where the
`incrstat` executable is installed on PATH and is skipped elsewhere.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import incrstat.config as cfg
from incrstat import cli
from incrstat.corrector import solve_corrector
from incrstat.errors import ConfigError, DiagnosticError
from incrstat.green import green_torus
from incrstat.lattice import TorusGeometry
from incrstat.pointsets import (
    IntervalLaw, PairPotential, energy, study_window, thermodynamic_density,
)
from incrstat.randfields import GeneratorSpec, IncrementLaw
from oracle_utils import dense_forward_diff, dense_laplacian


GREEN_CFG = """\
d = 1
L = 64
mu = 0.5
"""

COV_CFG = """\
d = 1
L = 32
generator = iid
n_samples = 4
lag_list = 0,1
"""

# 5-point geometric grid, ratio 1/2; the L-rule wants sides up to 46,
# so l_max = 16 caps the small-mu points while staying fast.
SCALING_CFG = """\
d = 1
generator = iid
mu_grid = 0.5,0.25,0.125,0.0625,0.03125
n = 3
l_max = 16
"""

ENERGY_CFG = """\
law = constant
law_a = 1.0
potential = indicator
cutoff = 1.5
sizes = 64,128,256
n_seeds = 8
shift = 2
"""


def write_cfg(directory, text, name="run.cfg"):
    path = directory / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """One run of every subcommand, shared by the read-only tests."""
    base = tmp_path_factory.mktemp("artifacts")
    out = {}
    for name, text, extra in (
        ("green", GREEN_CFG, ()),
        ("covariance", COV_CFG, ()),
        ("corrector-scaling", SCALING_CFG, ()),
        ("energy", ENERGY_CFG + "export_points = true\n", ()),
    ):
        out_dir = base / name.replace("-", "_")
        cfg_path = write_cfg(base, text, name=f"{name}.cfg")
        argv = [name, "--config", cfg_path, "--out", str(out_dir), "--threads", "1"]
        assert cli.main(argv) == 0
        out[name] = out_dir
    return out


def stderr_error(capsys):
    err = capsys.readouterr().err.strip().splitlines()[-1]
    return json.loads(err)


# ---------------------------------------------------------------- config


def test_parse_skips_comments_and_blank_lines():
    raw = cfg.parse_config_text("# header\n\nd = 2\n  L=16  \n# tail\n")
    assert raw == {"d": "2", "L": "16"}


def test_parse_rejects_line_without_equals():
    with pytest.raises(ConfigError, match="line 2: expected 'key = value'"):
        cfg.parse_config_text("d = 1\njust words\n")


def test_parse_rejects_empty_key():
    with pytest.raises(ConfigError, match="line 1: empty key"):
        cfg.parse_config_text("= 3\n")


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="line 3: duplicate key 'd'"):
        cfg.parse_config_text("d = 1\nL = 4\nd = 2\n")


def test_validate_unknown_subcommand():
    with pytest.raises(ConfigError, match="unknown subcommand 'solve'"):
        cfg.validate("solve", {})


def test_validate_lists_unknown_keys_sorted():
    raw = cfg.parse_config_text("d = 1\nL = 8\nmu = 1.0\nzz = 1\naa = 2\n")
    with pytest.raises(ConfigError, match=r"unknown key\(s\) for green: aa, zz"):
        cfg.validate("green", raw)


def test_validate_required_key_missing():
    with pytest.raises(ConfigError, match="mu: required key missing"):
        cfg.validate("green", {"d": "1", "L": "8"})


def test_validate_choice_violation():
    raw = {"d": "1", "L": "8", "n_samples": "4", "generator": "magic"}
    with pytest.raises(ConfigError, match="generator: must be one of"):
        cfg.validate("covariance", raw)


def test_validate_check_violations():
    with pytest.raises(ConfigError, match="mu: must be positive, got -1.0"):
        cfg.validate("green", {"d": "1", "L": "8", "mu": "-1.0"})
    with pytest.raises(ConfigError, match="L: must be at least 2, got 1"):
        cfg.validate("green", {"d": "1", "L": "1", "mu": "1.0"})
    with pytest.raises(ConfigError, match="d: must be 1, 2 or 3"):
        cfg.validate("green", {"d": "4", "L": "8", "mu": "1.0"})
    with pytest.raises(ConfigError, match="seed: must be nonnegative"):
        cfg.validate("green", {"d": "1", "L": "8", "mu": "1.0", "seed": "-3"})


def test_validate_conversion_error_names_the_key():
    with pytest.raises(ConfigError, match="L: invalid literal"):
        cfg.validate("green", {"d": "1", "L": "eight", "mu": "1.0"})


def test_validate_schema_version_pinned():
    raw = {"d": "1", "L": "8", "mu": "1.0", "schema": "2"}
    with pytest.raises(ConfigError, match="this build reads schema 1, got 2"):
        cfg.validate("green", raw)


def test_validate_fills_defaults():
    values = cfg.validate("green", {"d": "1", "L": "8", "mu": "0.5"})
    assert values["p"] == (2.0,)
    assert values["seed"] == 0


def test_canonical_text_sorted_and_execution_free(tmp_path, capsys):
    values = cfg.validate("green", {"d": "1", "L": "8", "mu": "0.5"})
    text = cfg.canonical_text("green", values)
    lines = text.splitlines()
    assert lines[0] == "subcommand = green"
    keys = [line.split(" = ")[0] for line in lines[1:]]
    assert keys == sorted(keys)
    assert "mu = 0.5" in lines
    # the worker count and the output directory are flags, never config keys
    for key, value in (("threads", "4"), ("out", tmp_path / "from_cfg")):
        cfg_path = write_cfg(tmp_path, GREEN_CFG + f"{key} = {value}\n")
        assert cli.main(["green", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
        assert f"unknown key(s) for green: {key};" in stderr_error(capsys)["message"]
    assert not (tmp_path / "o").exists() and not (tmp_path / "from_cfg").exists()


def test_canonical_text_bool_and_list_formatting():
    raw = cfg.parse_config_text(ENERGY_CFG + "export_points = true\n")
    values = cfg.validate("energy", raw)
    text = cfg.canonical_text("energy", values)
    assert "export_points = true" in text
    assert "sizes = 64,128,256" in text
    assert "law_a = 1.0" in text


def test_canonical_text_revalidates_to_same_values():
    values = cfg.validate("energy", cfg.parse_config_text(ENERGY_CFG))
    body = cfg.canonical_text("energy", values).split("\n", 1)[1]
    again = cfg.validate("energy", cfg.parse_config_text(body))
    assert again == values


# --------------------------------------------------------------- running


def test_green_run_writes_artifacts(artifacts, capsys):
    out = artifacts["green"]
    csv_path = out / "green_dyadic.csv"
    json_path = out / "green_summary.json"
    assert csv_path.exists() and json_path.exists()
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "# subcommand = green"
    header_at = next(i for i, s in enumerate(lines) if not s.startswith("#"))
    assert lines[header_at] == "p,annulus,sum"
    payload = json.loads(json_path.read_text())
    assert payload["artifact"] == "green_summary"
    assert payload["d"] == 1 and payload["L"] == 64
    assert payload["residual_max"] < 1e-9
    values = cfg.validate("green", cfg.parse_config_text(GREEN_CFG))
    assert payload["config_text"] == cfg.canonical_text("green", values)
    assert "2.0" in payload["slopes"]


def test_run_prints_artifact_paths(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, GREEN_CFG)
    out = tmp_path / "out"
    assert cli.main(["green", "--config", cfg_path, "--out", str(out)]) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert printed == [str(out / "green_dyadic.csv"), str(out / "green_summary.json")]


def test_green_rerun_byte_identical(tmp_path):
    cfg_path = write_cfg(tmp_path, GREEN_CFG)
    for sub in ("a", "b"):
        assert cli.main(["green", "--config", cfg_path, "--out", str(tmp_path / sub)]) == 0
    for name in ("green_dyadic.csv", "green_summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_residual_max_matches_dense_oracle(tmp_path, d):
    """Both certified residuals against mu*u - lap u - f with the dense Laplacian matrix.

    L = 16 is the smallest side with the three dyadic annuli `green` needs.
    """
    mu, L = 0.1, 16
    lap = dense_laplacian(d, L)
    geom = TorusGeometry(d, L)
    text = f"d = {d}\nL = {L}\nmu = {mu}\n"
    assert cli.main(["green", "--config", write_cfg(tmp_path, text), "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "green_summary.json").read_text())
    G = green_torus(mu, geom).values.reshape(-1)
    delta = np.zeros(L**d)
    delta[0] = 1.0
    dense_green = np.max(np.abs(mu * G - lap @ G - delta))
    assert abs(payload["residual_max"] - dense_green) <= 1e-14

    spec = GeneratorSpec(kind="gradient", axis=0, law=IncrementLaw("uniform_centered", 1.0))
    zeta = spec.realize(geom, 11, 3)
    sol = solve_corrector(mu, zeta)
    rhs = sum(dense_forward_diff(d, L, l).T @ zeta.values[l].reshape(-1) for l in range(d))
    phi = sol.phi.reshape(-1)
    dense_corrector = np.max(np.abs(mu * phi - lap @ phi - rhs))
    assert abs(sol.residual_max - dense_corrector) <= 1e-14


def test_covariance_artifacts(artifacts):
    out = artifacts["covariance"]
    lines = (out / "covariance.csv").read_text().splitlines()
    data = [s for s in lines if not s.startswith("#")]
    assert data[0] == "lag,l,lp,n,cov,stderr"
    lags = {row.split(",")[0] for row in data[1:]}
    assert lags == {"0", "1"}
    payload = json.loads((out / "covariance_summary.json").read_text())
    assert payload["artifact"] == "covariance_summary"
    # a single nonzero lag magnitude cannot support a decay fit
    assert payload["alpha_hat"] == "indeterminate"
    assert payload["generator"]["kind"] == "iid"
    assert payload["warnings"] == []


def test_scaling_artifacts_and_cap_note(artifacts):
    out = artifacts["corrector-scaling"]
    lines = (out / "scaling.csv").read_text().splitlines()
    data = [s for s in lines if not s.startswith("#")]
    assert data[0] == "mu,mean,stderr,L,n"
    assert len(data) == 1 + 5
    payload = json.loads((out / "scaling_report.json").read_text())
    assert payload["artifact"] == "scaling_report"
    assert payload["l_cap"] == 16
    capped = [p["capped"] for p in payload["points"]]
    assert capped[0] is False and capped[-1] is True
    assert all(p["L"] <= 16 for p in payload["points"])
    assert payload["verdict"] in (
        "bounded", "diverging-powerlaw", "diverging-log", "inconclusive"
    )


def test_energy_artifacts_and_point_export(artifacts):
    out = artifacts["energy"]
    lines = (out / "energy.csv").read_text().splitlines()
    data = [s for s in lines if not s.startswith("#")]
    assert data[0] == "N,seed,energy,density"
    assert len(data) == 1 + 3 * 8
    payload = json.loads((out / "energy_summary.json").read_text())
    assert payload["artifact"] == "energy_summary"
    assert payload["sizes"] == [64, 128, 256]
    assert [row["N"] for row in payload["rows"]] == [64, 128, 256]
    # unit spacing, cutoff 1.5: one nearest-neighbour pair per point
    assert abs(payload["rows"][-1]["density_mean"] - 1.0) < 0.1
    for N in (64, 128, 256):
        plines = (out / f"points_N{N}_s0.csv").read_text().splitlines()
        pdata = [s for s in plines if not s.startswith("#")]
        assert pdata[0] == "k,x"
        assert len(pdata) > N


def test_point_export_is_the_studied_window(artifacts):
    """Each exported position list is seed index 0 of the study, margin and all."""
    values = cfg.validate("energy", cfg.parse_config_text(ENERGY_CFG))
    law = IntervalLaw(values["law"], values["law_a"], values["law_b"])
    V = PairPotential(values["potential"], values["cutoff"], values["exponent"])
    study = thermodynamic_density(law, V, values["sizes"], n_seeds=values["n_seeds"],
                                  master_seed=values["seed"], shift=values["shift"])
    for i, N in enumerate(values["sizes"]):
        lines = (artifacts["energy"] / f"points_N{N}_s0.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
        k, x = np.array(rows, dtype=float).T
        win = study_window(law, V, N, values["seed"], 0)
        assert np.array_equal(k, win.labels[:, 0]) and np.array_equal(x, win.points[:, 0])
        assert x[0] < 0.0 and x[-1] > N  # the margin reaches past both ends of the box
        assert energy(win, V, ((0.0, float(N)),)) == study.energies[i, 0]


def test_json_artifacts_sorted_and_newline_terminated(artifacts):
    text = (artifacts["green"] / "green_summary.json").read_text()
    top_keys = [s.split('"')[1] for s in text.splitlines() if s.startswith('  "')]
    assert top_keys == sorted(top_keys)
    assert text.endswith("\n")


# ------------------------------------------------- execution flags and seed


def test_threads_do_not_change_bytes(tmp_path):
    cfg_path = write_cfg(tmp_path, SCALING_CFG)
    for threads, sub in (("1", "t1"), ("2", "t2")):
        argv = [
            "corrector-scaling", "--config", cfg_path,
            "--out", str(tmp_path / sub), "--threads", threads,
        ]
        assert cli.main(argv) == 0
    for name in ("scaling.csv", "scaling_report.json"):
        assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t2" / name).read_bytes()


def test_blas_thread_count_does_not_change_bytes(tmp_path):
    # each run is a fresh process, since OpenBLAS reads its thread count at
    # load; at L=32 a BLAS dot product would split its sum across threads
    cfg_path = write_cfg(tmp_path, "d = 3\ngenerator = iid\n"
                         "mu_grid = 0.5,0.25,0.125,0.0625,0.03125\nn = 3\nl_max = 32\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    base["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    for sub, pinned in (("pinned", {"OPENBLAS_NUM_THREADS": "1"}), ("default", {})):
        argv = ["corrector-scaling", "--config", cfg_path, "--out", str(tmp_path / sub),
                "--threads", "1"]
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from incrstat.cli import main; "
             "sys.exit(main(sys.argv[1:]))", *argv],
            capture_output=True, text=True, timeout=300, env={**base, **pinned},
        )
        assert proc.returncode == 0, proc.stderr
    for name in ("scaling.csv", "scaling_report.json"):
        assert (tmp_path / "pinned" / name).read_bytes() == (
            tmp_path / "default" / name).read_bytes()


def test_threads_below_one_rejected(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, GREEN_CFG)
    argv = ["green", "--config", cfg_path, "--out", str(tmp_path / "o"), "--threads", "0"]
    assert cli.main(argv) == 2
    assert "threads: must be at least 1" in stderr_error(capsys)["message"]
    assert not (tmp_path / "o").exists()


def test_out_defaults_to_working_directory(tmp_path, monkeypatch, capsys):
    cfg_path = write_cfg(tmp_path, GREEN_CFG)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["green", "--config", cfg_path]) == 0
    assert capsys.readouterr().out.split() == ["./green_dyadic.csv", "./green_summary.json"]
    assert (tmp_path / "green_summary.json").exists()


def test_seed_flag_equivalent_to_config_seed(tmp_path):
    plain = write_cfg(tmp_path, SCALING_CFG, name="plain.cfg")
    seeded = write_cfg(tmp_path, SCALING_CFG + "seed = 7\n", name="seeded.cfg")
    a = ["corrector-scaling", "--config", plain, "--out", str(tmp_path / "a"), "--seed", "7"]
    b = ["corrector-scaling", "--config", seeded, "--out", str(tmp_path / "b")]
    assert cli.main(a) == 0 and cli.main(b) == 0
    assert (tmp_path / "a" / "scaling.csv").read_bytes() == (tmp_path / "b" / "scaling.csv").read_bytes()
    # and the seed really matters: seed 0 gives different Monte Carlo bytes
    c = ["corrector-scaling", "--config", plain, "--out", str(tmp_path / "c")]
    assert cli.main(c) == 0
    assert (tmp_path / "c" / "scaling.csv").read_bytes() != (tmp_path / "a" / "scaling.csv").read_bytes()


def test_seed_flag_negative_rejected(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, GREEN_CFG)
    argv = ["green", "--config", cfg_path, "--out", str(tmp_path / "o"), "--seed", "-1"]
    assert cli.main(argv) == 2
    assert "seed: must be nonnegative" in stderr_error(capsys)["message"]


# ------------------------------------------------------------ error paths


def test_missing_config_file_exits_6(tmp_path, capsys):
    argv = ["green", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]
    assert cli.main(argv) == 6
    err = stderr_error(capsys)
    assert err["error"] == "FileNotFoundError"
    assert err["exit_code"] == 6


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, GREEN_CFG + "colour = red\n")
    assert cli.main(["green", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    assert "unknown key(s) for green: colour" in stderr_error(capsys)["message"]


def test_non_utf8_config_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_bytes(GREEN_CFG.encode() + b"# caf\xe9\n")
    assert cli.main(["green", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert len(err_lines) == 1
    err = json.loads(err_lines[0])
    assert err["error"] == "ConfigError"
    assert "not UTF-8 text" in err["message"]
    assert not (tmp_path / "o").exists()


def test_short_mu_grid_exits_2_without_artifacts(tmp_path, capsys):
    text = "d = 1\ngenerator = iid\nmu_grid = 0.25\nn = 3\n"
    cfg_path = write_cfg(tmp_path, text)
    out = tmp_path / "o"
    assert cli.main(["corrector-scaling", "--config", cfg_path, "--out", str(out)]) == 2
    assert "mu-grid needs at least 5 points" in stderr_error(capsys)["message"]
    assert not out.exists()


def test_budget_refusal_exits_3(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, SCALING_CFG.replace("l_max = 16", "l_max = 8"))
    out = tmp_path / "o"
    assert cli.main(["corrector-scaling", "--config", cfg_path, "--out", str(out)]) == 3
    err = stderr_error(capsys)
    assert err["error"] == "BudgetError"
    assert "cap L=8" in err["message"]
    assert not out.exists()


def test_generator_failure_exits_4(tmp_path, capsys):
    text = "d = 1\nL = 16\ngenerator = gff\nn_samples = 2\n"
    cfg_path = write_cfg(tmp_path, text)
    assert cli.main(["covariance", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 4
    err = stderr_error(capsys)
    assert err["error"] == "GeneratorError"
    assert "d = 2" in err["message"]


@pytest.mark.parametrize(
    "exc, code",
    [(DiagnosticError("injected certification failure"), 5), (KeyboardInterrupt(), 130)],
    ids=["diagnostic", "interrupt"],
)
def test_failure_in_worker_thread_maps_to_exit_code(tmp_path, monkeypatch, capsys, exc, code):
    from incrstat import corrector

    real = corrector._realization_stats

    def stats(task):
        if task[-1] == 1:  # realization 1 of every torus side
            raise exc
        return real(task)

    monkeypatch.setattr(corrector, "_realization_stats", stats)
    cfg_path = write_cfg(tmp_path, SCALING_CFG)
    out = tmp_path / "o"
    argv = ["corrector-scaling", "--config", cfg_path, "--out", str(out), "--threads", "2"]
    assert cli.main(argv) == code
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert len(err_lines) == 1
    err = json.loads(err_lines[0])
    assert (err["error"], err["message"], err["exit_code"]) == (type(exc).__name__, str(exc), code)
    assert not out.exists()


def test_failed_artifact_write_leaves_no_partial_file(tmp_path, monkeypatch, capsys):
    real_fmt = cli._fmt
    calls = []

    def fmt(v):
        calls.append(v)
        if len(calls) == 7:  # partway through the scaling.csv rows
            raise OSError("injected write failure")
        return real_fmt(v)

    monkeypatch.setattr(cli, "_fmt", fmt)
    cfg_path = write_cfg(tmp_path, SCALING_CFG)
    out = tmp_path / "o"
    assert cli.main(["corrector-scaling", "--config", cfg_path, "--out", str(out)]) == 6
    err = stderr_error(capsys)
    assert err["error"] == "OSError"
    assert err["exit_code"] == 6
    assert list(out.iterdir()) == []


def test_keyboard_interrupt_exits_130(tmp_path, monkeypatch, capsys):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "scaling_study", interrupted)
    cfg_path = write_cfg(tmp_path, SCALING_CFG)
    assert cli.main(["corrector-scaling", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 130
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert len(err_lines) == 1
    assert json.loads(err_lines[0])["error"] == "KeyboardInterrupt"


def test_energy_size_list_validated(tmp_path, capsys):
    out = tmp_path / "o"
    short = write_cfg(tmp_path, ENERGY_CFG.replace("64,128,256", "64,128"), name="a.cfg")
    assert cli.main(["energy", "--config", short, "--out", str(out)]) == 2
    assert "need at least 3 box sizes" in stderr_error(capsys)["message"]
    unsorted = write_cfg(tmp_path, ENERGY_CFG.replace("64,128,256", "64,256,128"), name="b.cfg")
    assert cli.main(["energy", "--config", unsorted, "--out", str(out)]) == 2
    assert "strictly increasing" in stderr_error(capsys)["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "subcommand, text, key, bad",
    [
        ("energy", ENERGY_CFG, "cutoff", "inf"),
        ("energy", ENERGY_CFG.replace("constant", "uniform"), "law_b", "inf"),
        ("corrector-scaling", SCALING_CFG, "l_rule_coefficient", "inf"),
        ("green", GREEN_CFG, "mu", "inf"),
        ("corrector-scaling", SCALING_CFG, "mu_grid", "0.5,0.25,nan,0.0625,0.03125"),
        ("covariance", COV_CFG, "law_param", "-inf"),
    ],
    ids=["cutoff", "law_b", "l_rule_coefficient", "mu", "mu_grid", "law_param"],
)
def test_non_finite_config_float_exits_2(tmp_path, capsys, subcommand, text, key, bad):
    lines = [line for line in text.splitlines() if not line.startswith(key + " =")]
    cfg_path = write_cfg(tmp_path, "\n".join(lines + [f"{key} = {bad}"]) + "\n")
    out = tmp_path / "o"
    assert cli.main([subcommand, "--config", cfg_path, "--out", str(out)]) == 2
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert len(err_lines) == 1
    err = json.loads(err_lines[0])
    assert err["error"] == "ConfigError"
    assert err["message"].startswith(f"{key}: must be finite, got ")
    assert not out.exists()


def test_nonpositive_alpha_is_config_error(tmp_path, capsys):
    text = "d = 1\nL = 16\ngenerator = decay_alpha\nalpha = -1\nn_samples = 2\n"
    cfg_path = write_cfg(tmp_path, text)
    assert cli.main(["covariance", "--config", cfg_path, "--out", str(tmp_path / "o")]) == 2
    err = stderr_error(capsys)
    assert err["error"] == "ConfigError"
    assert err["message"].startswith("alpha: ")


@pytest.mark.parametrize(
    "text, message",
    [
        ("d = 1\nL = 16\ngenerator = decay_alpha\nalpha = -1\nn_samples = 2\n", "alpha: "),
        ("d = 1\nL = 16\ngenerator = iid\naxis = 2\nn_samples = 2\n", "axis: must be < d"),
    ],
    ids=["alpha", "axis"],
)
def test_constructor_rejected_config_leaves_no_out(tmp_path, capsys, text, message):
    out = tmp_path / "o"
    assert cli.main(["covariance", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 2
    assert stderr_error(capsys)["message"].startswith(message)
    assert not out.exists()


def test_energy_too_few_seeds_is_config_error(tmp_path, capsys):
    text = write_cfg(tmp_path, ENERGY_CFG.replace("n_seeds = 8", "n_seeds = 4"))
    out = tmp_path / "o"
    assert cli.main(["energy", "--config", text, "--out", str(out)]) == 2
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert len(err_lines) == 1
    err = json.loads(err_lines[0])
    assert err["error"] == "ConfigError"
    assert "n_seeds" in err["message"] and "at least 8" in err["message"]
    assert not out.exists()


def test_argparse_usage_errors_exit_2(capsys):
    assert cli.main([]) == 2
    assert cli.main(["frobnicate"]) == 2
    assert cli.main(["green"]) == 2  # --config is required
    capsys.readouterr()


# ----------------------------------------------------------------- report


def scaling_artifact(path, d, verdict="bounded", ratio=1.21):
    payload = {
        "artifact": "scaling_report",
        "d": d,
        "generator": {"kind": "gradient", "axis": 0},
        "master_seed": 0,
        "verdict": verdict,
        "fits": {
            "loglog_slope": -0.05,
            "loglog_r2": 0.31,
            "loglin_slope": 0.01,
            "loglin_r2": 0.40,
            "boundedness_ratio": ratio,
        },
        "points": [],
        "l_cap": None,
    }
    path.write_text(json.dumps(payload) + "\n")
    return str(path)


def test_report_no_arguments_is_usage_error(capsys):
    assert cli.main(["report"]) == 2
    assert "no artifacts given" in capsys.readouterr().err


def test_report_missing_file_exits_6(tmp_path, capsys):
    assert cli.main(["report", str(tmp_path / "gone.json")]) == 6
    assert stderr_error(capsys)["exit_code"] == 6


def test_report_corrupt_json_exits_5(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["report", str(bad)]) == 5
    err = stderr_error(capsys)
    assert err["error"] == "DiagnosticError"
    assert "corrupt artifact" in err["message"]


def test_report_non_utf8_artifact_exits_5(tmp_path, capsys):
    bad = tmp_path / "a.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert cli.main(["report", str(bad)]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    err_lines = captured.err.strip().splitlines()
    assert len(err_lines) == 1
    err = json.loads(err_lines[0])
    assert err["error"] == "DiagnosticError"
    assert f"corrupt artifact {bad}" in err["message"]


def test_report_missing_artifact_field_exits_5(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"d": 1}))
    assert cli.main(["report", str(bad)]) == 5
    assert "missing 'artifact' field" in stderr_error(capsys)["message"]


def test_report_bounded_verdict_rendering(tmp_path, capsys):
    path = scaling_artifact(tmp_path / "s.json", d=3)
    assert cli.main(["report", path]) == 0
    out = capsys.readouterr().out
    assert "scaling studies" in out
    assert " d=3" in out
    assert f"  [{path}]" in out
    assert "  verdict: bounded (stationary up to translation)" in out
    assert "    bounded: ratio <= 1.5: pass" in out
    assert "    diverging-powerlaw: slope <= -0.25 and R^2 >= 0.9: fail" in out
    assert "    diverging-log: affine R^2 >= 0.95: fail" in out


def test_report_groups_scaling_by_dimension(tmp_path, capsys):
    p2 = scaling_artifact(tmp_path / "two.json", d=2, verdict="inconclusive", ratio=1.9)
    p1 = scaling_artifact(tmp_path / "one.json", d=1)
    assert cli.main(["report", p2, p1]) == 0
    out = capsys.readouterr().out
    assert out.index(" d=1") < out.index(" d=2")
    assert "  verdict: inconclusive" in out


def test_report_unknown_kind_noted(tmp_path, capsys):
    odd = tmp_path / "odd.json"
    odd.write_text(json.dumps({"artifact": "mystery"}))
    assert cli.main(["report", str(odd)]) == 0
    assert f"unrecognized artifact kind in {odd}" in capsys.readouterr().out


def test_report_renders_all_real_artifact_kinds(artifacts, capsys):
    paths = [
        str(artifacts["corrector-scaling"] / "scaling_report.json"),
        str(artifacts["green"] / "green_summary.json"),
        str(artifacts["covariance"] / "covariance_summary.json"),
        str(artifacts["energy"] / "energy_summary.json"),
    ]
    assert cli.main(["report"] + paths) == 0
    out = capsys.readouterr().out
    for title in ("scaling studies", "green diagnostics",
                  "covariance estimates", "energy densities"):
        assert title in out
    assert "decay exponent: indeterminate" in out
    assert "spread decreases with N:" in out
    assert "note: L-rule capped at L=16" in out


ARTIFACT_FILES = {
    "scaling_report": ("corrector-scaling", "scaling_report.json"),
    "green_summary": ("green", "green_summary.json"),
    "covariance_summary": ("covariance", "covariance_summary.json"),
    "energy_summary": ("energy", "energy_summary.json"),
}


@pytest.mark.parametrize(
    "kind, field, bad",
    [
        ("scaling_report", "verdict", None),
        ("scaling_report", "fits", {"loglog_slope": "steep"}),
        ("green_summary", "site_sum", None),
        ("green_summary", "slopes", {"2.0": {"slope": -1.0}}),
        ("covariance_summary", "alpha_hat", "large"),
        ("covariance_summary", "warnings", "none"),
        ("energy_summary", "spread_decreases", "yes"),
        ("energy_summary", "rows", [{"N": 64}]),
    ],
)
def test_report_malformed_artifact_exits_5(artifacts, tmp_path, capsys, kind, field, bad):
    subcommand, name = ARTIFACT_FILES[kind]
    payload = json.loads((artifacts[subcommand] / name).read_text())
    minimal = tmp_path / "minimal.json"
    minimal.write_text(json.dumps({"artifact": kind}))
    payload[field] = bad
    mistyped = tmp_path / "mistyped.json"
    mistyped.write_text(json.dumps(payload))
    for path in (minimal, mistyped):
        assert cli.main(["report", str(path)]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        err_lines = captured.err.strip().splitlines()
        assert len(err_lines) == 1
        err = json.loads(err_lines[0])
        assert err["error"] == "DiagnosticError" and err["exit_code"] == 5
        assert f"malformed artifact {path}" in err["message"]


# ------------------------------------------------------------ entry point


@pytest.mark.skipif(
    shutil.which("incrstat") is None,
    reason="the `incrstat` console script is not installed on PATH",
)
def test_console_script_runs(tmp_path):
    cfg_path = write_cfg(tmp_path, GREEN_CFG)
    out = tmp_path / "o"
    proc = subprocess.run(
        ["incrstat", "green", "--config", cfg_path, "--out", str(out)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    assert proc.returncode == 0, proc.stderr
    assert str(out / "green_dyadic.csv") in proc.stdout
    assert (out / "green_summary.json").exists()
