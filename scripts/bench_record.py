"""Record the end-to-end medians of every perfbench workload in a BENCH trajectory file.

Usage:
    python3 scripts/bench_record.py --label change --out BENCH_12.json
    python3 scripts/bench_record.py --label parent --checkout ../parent --out BENCH_12.json

For each workload that the checkout's BENCHMARK.json declares, runs
`python3 perfbench/run.py --workload W --seed S --seconds T` of that
checkout (default: this one) and stores its end-to-end metrics under
runs[LABEL], next to the Python and numpy versions, the CPU count
(`nproc`), `git rev-parse HEAD` of the checkout and whether its src/
differs from that revision. Other labels already in --out are kept, so
one file holds a parent and a change measured with the same settings.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(checkout: str, *args: str) -> str | None:
    proc = subprocess.run(["git", "-C", checkout, *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(checkout: str, name: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=checkout, check=True)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    out = {key: res[key] for key in ("correct", "attempted", "failed")}
    out.update({metric: m["value"] for metric, m in res["metrics"].items()})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="key of this run in the file, e.g. parent or change")
    ap.add_argument("--out", required=True, help="trajectory file to create or update")
    ap.add_argument("--checkout", default=ROOT, help="source checkout to measure (default: this one)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args(argv)

    checkout = os.path.abspath(args.checkout)
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    status = git(checkout, "status", "--porcelain", "--", "src")
    entry = {
        "rev": git(checkout, "rev-parse", "HEAD"),
        "src_modified": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    for name in names:
        entry["workloads"][name] = run_workload(checkout, name, args.seed, args.seconds)
        print(name, json.dumps(entry["workloads"][name]), flush=True)

    record = {"benchmark": "perfbench/run.py end-to-end medians", "runs": {}}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            record = json.load(fh)
    record["runs"][args.label] = entry
    tmp = args.out + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
