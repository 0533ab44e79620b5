"""The benchmark's smoke check, run against a copy of this checkout."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke(tmp_path):
    """``bench/run.py --smoke`` runs every workload briefly and checks its metric
    names.  It traces the package's layer modules and reads names such as
    ``harness.CSV_HEADER`` and ``estimators.multiplication_count``, so a refactor
    that moves them fails here.  The copy keeps the run's output files out of the
    checkout."""
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".bench_out")
    for name in ("bench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == '{"smoke": "ok", "failed": []}'
