"""One measured `incrstat` CLI invocation, run in a fresh process by run.py.

Usage: python3 perfbench/child.py WORKLOAD SEED RUN_DIR [--trace]

Set-up is everything a user pays before the CLI starts work: interpreter
start, `import incrstat`, and the workload config written and loaded.
The child notes the monotonic clock when set-up ends (run.py noted it
just before starting the process), then times `incrstat.cli.main` until
it returns with the artifacts in RUN_DIR/out. With --trace the public
functions of the library are wrapped first (spans.py) and the spans are
written to RUN_DIR/spans.json after the timed call.

The last line of stdout is one JSON object: ready (monotonic seconds),
wall_s, rc (the CLI's exit code) and maxrss_kb (this process's peak RSS).
"""

import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stdout


def main(argv: list[str]) -> int:
    name, seed, run_dir = argv[0], int(argv[1]), argv[2]
    trace = argv[3:] == ["--trace"]

    from incrstat import cli, config
    from workloads import WORKLOADS

    w = WORKLOADS[name]
    cfg_path = os.path.join(run_dir, "workload.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(w.config_text)
    config.load(w.subcommand, cfg_path)
    ready = time.monotonic()

    cli_argv = [w.subcommand, "--config", cfg_path, "--out", os.path.join(run_dir, "out"),
                "--threads", "1", "--seed", str(seed)]
    entry = cli.main
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        entry = tracer.wrap("cli.main", cli.main)
    with redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        rc = entry(cli_argv)
        wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(os.path.join(run_dir, "spans.json"))
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"ready": ready, "wall_s": wall, "rc": rc, "maxrss_kb": maxrss}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
