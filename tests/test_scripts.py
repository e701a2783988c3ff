"""Smoke tests for the experiment scripts: each runs to exit 0 and writes its artifacts.

Each script runs in a fresh interpreter with the package source on
PYTHONPATH, so a public name a script imports cannot vanish unnoticed.
"""

import os
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
