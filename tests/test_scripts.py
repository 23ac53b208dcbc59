"""Smoke runs of the scripts in scripts/, which use the package's public API."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_transfer_demo_writes_both_reports(tmp_path):
    proc = run_script("run_transfer_demo.py", "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    lower = json.loads((tmp_path / "lower_involution.json").read_text())
    upper = json.loads((tmp_path / "upper_projector.json").read_text())
    assert lower["verdict"] == "LOWER_HOLDS"
    assert upper["verdict"] == "UPPER_HOLDS"
    assert upper["weiss"]["v1"]


def test_torus_sweep_runs():
    proc = run_script("sweep_torus_verification.py", "--max-n", "8", "--max-r", "3")
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[1:]
    # The n-cycle verifies at radius r exactly when n >= 2r + 2.
    assert [row.split()[1:] for row in rows] == [
        ["ok" if n >= 2 * r + 2 else "." for r in range(4)] for n in range(1, 9)
    ]
