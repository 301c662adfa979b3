"""The benchmark's hooks into the package keep working between benchmark changes."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_self_test_rejects_every_wrong_answer():
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--self-test"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "self-test passed" in done.stdout
    assert done.stdout.count("rejected [") == 26
