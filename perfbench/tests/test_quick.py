"""Quick mode: every workload end to end at small size, all checks on."""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "run.py"


def test_quick_mode_runs_every_workload_correctly():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--quick", "--seed", "3"],
        capture_output=True, text=True, timeout=900, cwd=str(RUN.parents[1]),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [l for l in proc.stdout.splitlines() if " trace=" in l]
    assert len(lines) == 8  # four workloads, untraced and traced
    for line in lines:
        result = json.loads(line.split(": ok ", 1)[1])
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1 and result["metrics"]


def test_run_without_the_store_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    (bench / "run.py").write_text(RUN.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sky-adapt",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=str(tmp_path),
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
