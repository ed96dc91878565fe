"""The benchmark harness still runs on the package: perfbench's smoke run passes."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_run_passes(tmp_path):
    # a root of its own, so the run's outputs land outside the checkout; it reads the
    # checkout's package through the src link
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr[-3000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last == {"smoke": "ok", "workloads": ["mc_large", "round_dump", "theory_grid"]}
