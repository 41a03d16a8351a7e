import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_reproduce_benchmarks_prints_optimal_for_both_viral_scenarios():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_benchmarks.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    blocks = re.split(r"\n(?=viral scenario \d)", proc.stdout)
    for sid in (1, 2):
        block = next(b for b in blocks if b.startswith(f"viral scenario {sid}"))
        assert re.search(r"^  OPTIMAL +\d+\.\d$", block, re.MULTILINE), block
