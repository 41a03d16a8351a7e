import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_reproduce_benchmarks_prints_optimal_for_both_viral_scenarios():
    proc = run_script("reproduce_benchmarks.py")
    assert proc.returncode == 0, proc.stderr
    blocks = re.split(r"\n(?=viral scenario \d)", proc.stdout)
    for sid in (1, 2):
        block = next(b for b in blocks if b.startswith(f"viral scenario {sid}"))
        assert re.search(r"^  OPTIMAL +\d+\.\d$", block, re.MULTILINE), block


def test_certify_stabilizability_certifies_the_box_at_k3():
    proc = run_script("certify_stabilizability.py")
    assert proc.returncode == 0, proc.stderr
    assert "stabilizability: certified at k=3" in proc.stdout
