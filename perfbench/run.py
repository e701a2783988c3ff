"""Benchmark for the incrstat CLI: end-to-end metrics, traced per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steadiness RUNS [--workload NAME ...] --seed N --seconds S

Run from the root of a source checkout (the program is imported from
./src). Each measured invocation of `incrstat.cli.main` runs in a fresh
child process (child.py), one at a time, with `--threads 1` and BLAS and
OpenMP pinned to one thread: a closed loop with a single client. A run
repeats whole invocations of its workload until --seconds have passed
(at least MIN_INVOCATIONS each) and reports medians over them.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
and traced invocations and prints the per-layer metrics from the traced
ones (spans.py); the end-to-end figures are never taken from a traced
invocation. Every invocation is checked: it must exit 0 and write the
same bytes as the run's first invocation, whose artifacts must pass the
independent checks in checks.py. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.

--steadiness RUNS runs the benchmark RUNS times per workload with seeds
N, N+1, ... (each run a separate process, as above) and prints each
end-to-end metric's median, quartiles and spread (IQR / median).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from checks import check_artifacts, digest_dir  # noqa: E402
from spans import summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_INVOCATIONS = 3
INVOCATION_TIMEOUT_S = 120
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("INCRSTAT_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for key in PINNED_THREADS:
        env[key] = "1"
    return env


def invoke(name: str, seed: int, run_dir: str, trace: bool, env: dict) -> dict:
    """Run one fresh-process invocation; return its measurements."""
    os.makedirs(run_dir)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), name, str(seed), run_dir]
    if trace:
        cmd.append("--trace")
    spawn = time.monotonic()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=INVOCATION_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"invocation in {run_dir} exited {proc.returncode}:\n{proc.stderr[-2000:]}\n")
        return {"rc": proc.returncode if proc.returncode else -1}
    res = json.loads(lines[-1])
    res["setup_s"] = res["ready"] - spawn
    if res["rc"] != 0:
        sys.stderr.write(f"incrstat exited {res['rc']}: {proc.stderr[-2000:]}\n")
        return res
    out = os.path.join(run_dir, "out")
    res["digest"] = digest_dir(out)
    res["artifact_bytes"] = sum(os.stat(os.path.join(out, f)).st_size for f in os.listdir(out))
    if trace:
        with open(os.path.join(run_dir, "spans.json"), encoding="utf-8") as fh:
            raw = json.load(fh)
        res["trace"] = summarize(raw["spans"], raw["counts"])
    return res


def measure(name: str, seed: int, seconds: float, trace: bool, work: str) -> tuple[list, list[str]]:
    """Repeat invocations until `seconds` have passed.

    Returns the invocations, each marked ok or not, and the failure
    messages of the independent checks on the first one's artifacts.
    """
    env = child_env()
    # compile src/ to bytecode once, outside the timed loop: users pay that only once
    subprocess.run([sys.executable, "-c", "import incrstat.cli"], env=env, check=True,
                   timeout=INVOCATION_TIMEOUT_S)
    invs = []
    deadline = time.monotonic() + seconds
    while len(invs) < MIN_INVOCATIONS * (2 if trace else 1) or time.monotonic() < deadline:
        traced = trace and len(invs) % 2 == 1
        inv = invoke(name, seed, os.path.join(work, f"inv{len(invs)}"), traced, env)
        inv["traced"] = traced
        invs.append(inv)
    ref = invs[0]
    if ref["rc"] == 0:
        check_fails = check_artifacts(WORKLOADS[name], os.path.join(work, "inv0", "out"))
    else:
        check_fails = ["first invocation failed; nothing to check"]
    for inv in invs:
        inv["ok"] = not check_fails and inv["rc"] == 0 and inv["digest"] == ref["digest"]
    return invs, check_fails


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(name: str, invs: list) -> dict:
    items = WORKLOADS[name].items
    done = [i for i in invs if i["rc"] == 0]
    if not done:
        return {}
    return {
        "wall_s": {"value": median(i["wall_s"] for i in done), "unit": "s"},
        "items_per_s": {"value": median(items / i["wall_s"] for i in done), "unit": "items/s"},
        "setup_s": {"value": median(i["setup_s"] for i in done), "unit": "s"},
        "peak_rss_mb": {"value": median(i["maxrss_kb"] / 1024.0 for i in done), "unit": "MiB"},
    }


# per-layer metric -> (span name, field) or counter name, and unit
PER_LAYER = {
    "seeding.derive_rng.calls": (("seeding.derive_rng", "calls"), "count"),
    "seeding.derive_rng.s": (("seeding.derive_rng", "s"), "s"),
    "randfields.realize.calls": (("randfields.realize", "calls"), "count"),
    "randfields.realize.self_s": (("randfields.realize", "self_s"), "s"),
    "randfields.empirical_covariance.s": (("randfields.empirical_covariance", "s"), "s"),
    "lattice.solve_helmholtz.calls": (("lattice.solve_helmholtz", "calls"), "count"),
    "lattice.solve_helmholtz.s": (("lattice.solve_helmholtz", "s"), "s"),
    "lattice.sites_solved": ("lattice.sites_solved", "count"),
    "lattice.fft_bytes_computed": ("lattice.fft_bytes_computed", "bytes"),
    "lattice.stencil.calls": (("lattice.stencil", "calls"), "count"),
    "lattice.stencil.s": (("lattice.stencil", "s"), "s"),
    "lattice.torusfield.constructions": (("lattice.torusfield", "calls"), "count"),
    "lattice.torusfield.bytes_copied": ("lattice.torusfield.bytes_copied", "bytes"),
    "lattice.torusfield.s": (("lattice.torusfield", "s"), "s"),
    "corrector.solve_corrector.calls": (("corrector.solve_corrector", "calls"), "count"),
    "corrector.solve_corrector.self_s": (("corrector.solve_corrector", "self_s"), "s"),
    "corrector.second_moment_mc.self_s": (("corrector.second_moment_mc", "self_s"), "s"),
    "corrector.scaling_study.self_s": (("corrector.scaling_study", "self_s"), "s"),
    "pointsets.renewal_pointset_1d.calls": (("pointsets.renewal_pointset_1d", "calls"), "count"),
    "pointsets.renewal_pointset_1d.s": (("pointsets.renewal_pointset_1d", "s"), "s"),
    "pointsets.points_generated": ("pointsets.points_generated", "count"),
    "pointsets.energy.calls": (("pointsets.energy", "calls"), "count"),
    "pointsets.energy.s": (("pointsets.energy", "s"), "s"),
    "pointsets.energy_points": ("pointsets.energy_points", "count"),
    "cli.self_s": (("cli.main", "self_s"), "s"),
}


def layer_values(inv: dict) -> dict:
    t = inv["trace"]
    out = {}
    for metric, (key, _) in PER_LAYER.items():
        if isinstance(key, tuple):
            out[metric] = t["names"].get(key[0], {}).get(key[1], 0)
        else:
            out[metric] = t["counts"].get(key, 0)
    out["cli.artifact_bytes"] = inv["artifact_bytes"]
    return out


def per_layer(invs: list) -> tuple[dict, list[str]]:
    """Medians of the traced invocations' layer figures, and consistency faults."""
    traced = [i for i in invs if i["traced"] and i["rc"] == 0]
    plain = [i for i in invs if not i["traced"] and i["rc"] == 0]
    faults = []
    if not traced or not plain:
        return {}, ["no successful traced and untraced invocations"]
    values = [layer_values(i) for i in traced]
    units = {m: u for m, (_, u) in PER_LAYER.items()} | {"cli.artifact_bytes": "bytes"}
    metrics = {}
    for m, unit in units.items():
        vals = [v[m] for v in values]
        if unit != "s" and len(set(vals)) != 1:
            faults.append(f"{m} differs between traced invocations: {sorted(set(vals))}")
        metrics[m] = {"value": median(vals) if unit == "s" else vals[0], "unit": unit}
    for i in traced:
        t = i["trace"]
        self_sum = sum(agg["self_s"] for agg in t["names"].values())
        if abs(self_sum - t["root_s"]) > 1e-6 or t["root_s"] > i["wall_s"]:
            faults.append(f"self times add to {self_sum}, root span {t['root_s']}, wall {i['wall_s']}")
    overhead = median(i["wall_s"] for i in traced) - median(i["wall_s"] for i in plain)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics, faults


def run_once(args) -> int:
    os.makedirs(RUNS_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=RUNS_DIR)
    try:
        invs, check_fails = measure(args.workload, args.seed, args.seconds, args.trace == 1, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for msg in check_fails:
        sys.stderr.write(f"check failed: {msg}\n")
    correct = not check_fails
    if args.trace == 1:
        metrics, faults = per_layer(invs)
        for msg in faults:
            sys.stderr.write(f"trace fault: {msg}\n")
        correct = correct and not faults
    else:
        metrics = end_to_end(args.workload, invs)
    failed = sum(not i["ok"] for i in invs)
    print(json.dumps({"correct": correct, "attempted": len(invs), "failed": failed, "metrics": metrics}))
    return 0


def steadiness(args) -> int:
    names = args.workload_list or list(WORKLOADS)
    for name in names:
        runs = []
        for seed in range(args.seed, args.seed + args.steadiness):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=ROOT)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(res)
            print(json.dumps({"workload": name, "seed": seed, **res}), flush=True)
        summary = {"workload": name, "runs": len(runs),
                   "failed_share": [r["failed"] / r["attempted"] for r in runs],
                   "correct": all(r["correct"] for r in runs)}
        for metric in runs[0]["metrics"]:
            vals = [r["metrics"][metric]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            summary[metric] = {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2}
        print(json.dumps(summary), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append", dest="workload_list")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="RUNS")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(ROOT, "src", "incrstat", "cli.py")):
        sys.stderr.write(f"no incrstat source under {ROOT}/src: run from a source checkout\n")
        return 2
    if args.steadiness:
        return steadiness(args)
    if not args.workload_list or len(args.workload_list) != 1:
        parser.error("give exactly one --workload")
    args.workload = args.workload_list[0]
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
