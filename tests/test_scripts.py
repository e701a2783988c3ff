"""Smoke tests for the experiment scripts: each runs to exit 0 and writes its artifacts.

Each script runs in a fresh interpreter with the package source on
PYTHONPATH, so a public name a script imports cannot vanish unnoticed.
The verdict rule of scripts/bench_record.py is checked in process, on
synthetic parent/change pairs, and so is the environment a series
records; its refusals of unlike benchmarks and of a checkout without a
git revision are checked on two temporary checkouts. The
benchmark's tracer (perfbench/spans.py, loaded as it is) must find every
library name it hooks and put each one back.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, artifacts",
    [
        ("dimension_sweep.py", ["--n", "2"],
         [f"d{d}/scaling_report.json" for d in (1, 2, 3)]),
        ("green_decay.py", [], [f"d{d}/green_summary.json" for d in (1, 2, 3)]),
        ("density_limit.py", [], ["energy_summary.json"]),
    ],
)
def test_script_runs_and_writes_its_artifacts(tmp_path, script, args, artifacts):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *args, "--out", str(out)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    for name in artifacts:
        assert (out / name).is_file(), name


def load_module(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_bench_record():
    return load_module(REPO / "scripts" / "bench_record.py")


def test_tracer_hooks_every_name_and_uninstall_restores_it():
    # the tracer patches library names from outside: a renamed one makes
    # install() raise, and every traced run with it; a lost or added binding
    # of a hooked function changes the count, and what the spans measure
    tracer = load_module(REPO / "perfbench" / "spans.py").Tracer()
    tracer.install()
    try:
        patched = list(tracer._patched)
        assert len(patched) == 23
        assert all(vars(owner)[attr] is not orig for owner, attr, orig in patched)
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is orig for owner, attr, orig in patched)


TIGHT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.02, 0.98]
WIDE = [0.60, 1.40, 0.70, 1.30, 0.80, 1.20, 0.90, 1.10, 1.00, 1.00]  # IQR 0.45


@pytest.mark.parametrize("better, parent, change, verdict", [
    ("lower", TIGHT, [v * 0.80 for v in TIGHT], "gain"),  # 10 of 10 won, far beyond the IQR
    ("higher", TIGHT, [v * 1.20 for v in TIGHT], "gain"),
    ("lower", TIGHT, [v * 1.40 for v in TIGHT], "regression"),  # 40 % worse, bound 25 %
    ("higher", TIGHT, [v * 0.60 for v in TIGHT], "regression"),
    ("lower", WIDE, [v * 0.95 for v in WIDE[::-1]], "unresolved"),  # IQR beyond the bound
    ("lower", WIDE, [v * 0.45 for v in WIDE], "gain"),  # the spread does not hide a clear win
    ("lower", TIGHT, [v * 1.05 for v in TIGHT], "unchanged"),  # worse, within the bound
    ("lower", WIDE, [0.59] * 10, "unchanged"),  # beats every parent run, by less than the IQR
])
def test_bench_record_verdicts(better, parent, change, verdict):
    bench_record = load_bench_record()
    pairs = [{"parent": bench_run(p), "change": bench_run(c)} for p, c in zip(parent, change)]
    metrics = [{"name": "m", "better": better, "bound": 0.25}]
    assert bench_record.summarize(pairs, metrics)["m"]["verdict"] == verdict


def bench_run(m, failed=0, correct=True):
    """One perfbench run as bench_record records it: metric m of 10 invocations, failed of them failing."""
    return {"m": m, "attempted": 10, "failed": failed, "correct": correct}


def test_bench_record_withholds_gain_from_a_change_that_fails_more():
    # 20 % better in every pair, but one change invocation in 100 failed
    bench_record = load_bench_record()
    pairs = [{"parent": bench_run(p), "change": bench_run(0.8 * p, failed=int(i == 3), correct=i != 3)}
             for i, p in enumerate(TIGHT)]
    metrics = [{"name": "m", "better": "lower", "bound": 0.25}]
    assert bench_record.failures(pairs) == {
        "parent": {"failed_share": 0.0, "all_correct": True},
        "change": {"failed_share": 0.01, "all_correct": False},
    }
    assert bench_record.summarize(pairs, metrics)["m"]["verdict"] == "unchanged"
    pairs[0]["parent"]["failed"] = 1  # as many failures a side: the gain stands
    assert bench_record.summarize(pairs, metrics)["m"]["verdict"] == "gain"


def bench_record_refusal(tmp_path, env=None):
    """Run bench_record.py on the two checkouts under tmp_path; check it refused.

    Returns its stderr line, after checking that it exited 2 before any
    run and wrote nothing.
    """
    out = tmp_path / "BENCH.json"
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "change" / "scripts" / "bench_record.py"),
         "--parent", str(tmp_path / "parent"), "--out", str(out), "--pairs", "2"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert not out.exists() and not (tmp_path / "BENCH.json.tmp").exists()
    assert not (tmp_path / "parent" / ".perfbench_runs").exists()
    assert not (tmp_path / "change" / ".perfbench_runs").exists()
    return proc.stderr


def make_checkouts(tmp_path):
    """Parent and change checkouts under tmp_path with this repo's perfbench/ and BENCHMARK.json."""
    for side in ("parent", "change"):
        shutil.copytree(REPO / "perfbench", tmp_path / side / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(REPO / "BENCHMARK.json", tmp_path / side)
    (tmp_path / "change" / "scripts").mkdir()
    shutil.copy(REPO / "scripts" / "bench_record.py", tmp_path / "change" / "scripts")


def test_bench_record_refuses_checkouts_with_unlike_benchmarks(tmp_path):
    # two checkouts that differ in one perfbench file
    make_checkouts(tmp_path)
    with open(tmp_path / "parent" / "perfbench" / "workloads.py", "a", encoding="utf-8") as fh:
        fh.write("\n# one more line\n")
    assert "not comparable" in bench_record_refusal(tmp_path)


def test_bench_record_refuses_a_checkout_without_a_revision(tmp_path):
    # like checkouts, the change a git repository, the parent a plain copy
    make_checkouts(tmp_path)
    change = tmp_path / "change"
    git = ["git", "-C", str(change), "-c", "user.name=t", "-c", "user.email=t@t"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "change"]):
        subprocess.run(git + args, check=True, capture_output=True)
    # no repository around tmp_path can lend the parent a revision
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(tmp_path))
    stderr = bench_record_refusal(tmp_path, env)
    assert "parent checkout" in stderr and "no git revision" in stderr


@pytest.mark.parametrize("value", ["1", None])
def test_bench_record_series_records_the_bytecode_setting(tmp_path, monkeypatch, value):
    # perfbench's children inherit PYTHONDONTWRITEBYTECODE, which moves
    # setup_s: each series names it. The runs here are synthetic
    bench_record = load_bench_record()
    parent = tmp_path / "parent"
    shutil.copytree(REPO / "perfbench", parent / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", parent)
    git = ["git", "-C", str(parent), "-c", "user.name=t", "-c", "user.email=t@t"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "parent"]):
        subprocess.run(git + args, check=True, capture_output=True)
    with open(REPO / "BENCHMARK.json", encoding="utf-8") as fh:
        metrics = [m["name"] for m in json.load(fh)["end_to_end"]]
    run = {"correct": True, "attempted": 1, "failed": 0, **dict.fromkeys(metrics, 1.0)}
    monkeypatch.setattr(bench_record, "run_workload", lambda *args: dict(run))
    if value is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(parent), "--out", str(out), "--workload", "w", "--pairs", "2"]
    assert bench_record.main(argv) == 0
    with open(out, encoding="utf-8") as fh:
        series = json.load(fh)["series"]["w seed=0 seconds=10"]
    assert series["PYTHONDONTWRITEBYTECODE"] == value
    assert {"python", "numpy", "nproc"} <= set(series)
