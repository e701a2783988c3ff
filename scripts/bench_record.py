"""Record alternating parent/change perfbench runs in a BENCH trajectory file.

Usage:
    python3 scripts/bench_record.py --parent ../parent --out BENCH_15.json --pairs 3
    python3 scripts/bench_record.py --parent ../parent --out BENCH_15.json --pairs 10 \\
        --workload covariance-decay --seed 7 --seconds 10

On a noisy machine one run cannot rank two trees. So for each workload
(default: every workload this checkout's BENCHMARK.json declares) this
runs `python3 perfbench/run.py --workload W --seed S --seconds T` PAIRS
times in each of two checkouts, the parent and this one (the change), in
turn, with the side that runs first alternating from pair to pair. Each side runs its own perfbench/,
so the two are comparable only when those files do not differ: if the
digests of the two checkouts' perfbench/ files and BENCHMARK.json differ,
it exits 2 before any run and writes nothing. So it does when either
checkout has no git revision (`git rev-parse HEAD` fails, as in a
`git archive` copy): a series must name both sides.

The file keeps one series per (workload, seed, seconds): every run's
end-to-end metrics; each side's failed share of invocations and whether
every run's checks held; per metric, each side's median and quartiles, the
number of pairs the change won, by the direction BENCHMARK.json declares
(ties count for neither side), and a verdict (gain, regression,
unresolved or unchanged; see summarize), judged against the bounds
BENCHMARK.json declares; each side's git revision and whether its
src/ differs from it; and the Python and numpy versions, the CPU count
and PYTHONDONTWRITEBYTECODE (see environment). Series already in --out
under other keys are kept.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def git(checkout: str, *args: str) -> str | None:
    proc = subprocess.run(["git", "-C", checkout, *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def revision(checkout: str) -> dict:
    status = git(checkout, "status", "--porcelain", "--", "src")
    return {"rev": git(checkout, "rev-parse", "HEAD"),
            "src_modified": None if status is None else bool(status)}


def benchmark_digest(checkout: str) -> str:
    """sha256 over the relative paths and bytes of perfbench/'s files and BENCHMARK.json."""
    paths = ["BENCHMARK.json"]
    for root, dirs, files in os.walk(os.path.join(checkout, "perfbench")):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        paths += [os.path.relpath(os.path.join(root, f), checkout) for f in files]
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(path.encode() + b"\0")
        with open(os.path.join(checkout, path), "rb") as fh:
            digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


def environment() -> dict:
    """What every run of a series shares: Python and numpy versions, CPU count, bytecode setting.

    perfbench's children inherit PYTHONDONTWRITEBYTECODE (None when unset).
    With it set, a fresh checkout has no bytecode cache, and every
    invocation compiles the package again, which setup_s counts.
    """
    return {"python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}


def run_workload(checkout: str, name: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=checkout, check=True)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    out = {key: res[key] for key in ("correct", "attempted", "failed")}
    out.update({metric: m["value"] for metric, m in res["metrics"].items()})
    return out


def failures(pairs: list[dict]) -> dict:
    """Per side: failed invocations over attempted ones, summed over pairs, and whether every run was correct."""
    out = {}
    for side in SIDES:
        runs = [p[side] for p in pairs]
        out[side] = {"failed_share": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
                     "all_correct": all(r["correct"] for r in runs)}
    return out


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, the pairs the change won, and a verdict.

    metrics are BENCHMARK.json's end-to-end entries (name, better, bound);
    a bound is a fraction of the parent's median. The verdict is the first
    that holds of:
      gain        the change won at least 9 in 10 pairs (ties count for
                  neither side), its median is better than the parent's
                  by more than the parent's interquartile range, and its
                  failed share (see failures) is no larger than the parent's
      regression  the change's median is worse than the parent's by more
                  than the bound
      unresolved  the parent's interquartile range exceeds the bound, and
                  some change run is not better than every parent run
      unchanged   otherwise
    """
    shares = failures(pairs)
    fails_more = shares["change"]["failed_share"] > shares["parent"]["failed_share"]
    summary = {}
    for metric in metrics:
        name, direction = metric["name"], metric["better"]
        runs = {side: [p[side][name] for p in pairs] for side in SIDES}
        entry = {"better": direction}
        for side in SIDES:
            q1, q2, q3 = statistics.quantiles(runs[side], n=4)
            entry[side] = {"median": q2, "q1": q1, "q3": q3}
        sign = 1.0 if direction == "higher" else -1.0
        entry["change_wins"] = sum(sign * (p["change"][name] - p["parent"][name]) > 0
                                   for p in pairs)
        parent = entry["parent"]
        iqr = parent["q3"] - parent["q1"]
        allowed = metric["bound"] * abs(parent["median"])
        better_by = sign * (entry["change"]["median"] - parent["median"])
        beats_every_run = (min(runs["change"]) > max(runs["parent"]) if direction == "higher"
                           else max(runs["change"]) < min(runs["parent"]))
        if 10 * entry["change_wins"] >= 9 * len(pairs) and better_by > iqr and not fails_more:
            entry["verdict"] = "gain"
        elif -better_by > allowed:
            entry["verdict"] = "regression"
        elif iqr > allowed and not beats_every_run:
            entry["verdict"] = "unresolved"
        else:
            entry["verdict"] = "unchanged"
        summary[name] = entry
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="source checkout of the parent commit")
    ap.add_argument("--out", required=True, help="trajectory file to create or update")
    ap.add_argument("--workload", action="append", help="workload to run (repeatable; default: all)")
    ap.add_argument("--pairs", type=int, default=3, help="parent/change pairs per workload (at least 2)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2: quartiles need two runs a side")

    checkouts = {"parent": os.path.abspath(args.parent), "change": ROOT}
    if benchmark_digest(checkouts["parent"]) != benchmark_digest(ROOT):
        print(f"bench_record: {checkouts['parent']} and {ROOT} differ in perfbench/ or "
              "BENCHMARK.json, so their runs are not comparable", file=sys.stderr)
        return 2
    sides = {side: revision(path) for side, path in checkouts.items()}
    for side in SIDES:
        if sides[side]["rev"] is None:
            print(f"bench_record: the {side} checkout {checkouts[side]} has no git revision; "
                  "make it with git clone", file=sys.stderr)
            return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = args.workload or [w["name"] for w in spec["workloads"]]

    record = {"benchmark": "perfbench/run.py end-to-end metrics, alternating parent/change pairs",
              "series": {}}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            record = json.load(fh)
    for name in names:
        pairs = []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_workload(checkouts[side], name, args.seed, args.seconds)
            pairs.append(pair)
            print(name, json.dumps(pair), flush=True)
        record.setdefault("series", {})[f"{name} seed={args.seed} seconds={args.seconds:g}"] = {
            "workload": name,
            "seed": args.seed,
            "seconds": args.seconds,
            "sides": sides,
            **environment(),
            "failures": failures(pairs),
            "summary": summarize(pairs, spec["end_to_end"]),
            "pairs": pairs,
        }
        tmp = args.out + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
