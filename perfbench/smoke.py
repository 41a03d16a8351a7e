#!/usr/bin/env python3
"""Smoke test of the benchmark itself.  Run from the repository root:

    python3 perfbench/smoke.py

Runs every workload for one round, untraced and traced, and checks that every
metric named in BENCHMARK.json is printed with its unit.  Then checks that the
correctness gate fires, with a non-zero exit, on a deliberately wrong pinned
record, and that the benchmark refuses to run without the swmpc sources.
Exits non-zero on the first failed check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_run" / "smoke"


def bench(*args: str, script: Path = HERE / "run.py", cwd: Path = ROOT) -> tuple[int, str, dict | None]:
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, proc.stdout, result


def check(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        sys.exit(1)


def check_metrics(label: str, stdout: str, result: dict | None, specs: list[dict]) -> None:
    check(result is not None and result["correct"] and result["failed"] == 0
          and result["attempted"] >= 1, f"{label}: correct, every op passed")
    metrics = result["metrics"]
    check(sorted(metrics) == sorted(s["name"] for s in specs), f"{label}: exactly the listed metrics")
    printed = {tuple(line.split()[::2]) for line in stdout.splitlines() if len(line.split()) == 3}
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        check(metrics[name]["unit"] == unit and (name, unit) in printed,
              f"{label}: {name} printed in {unit}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = "1"
    for workload in (w["name"] for w in spec["workloads"]):
        code, out, result = bench("--workload", workload, "--seed", "0", "--seconds", seconds,
                                  "--trace", "0")
        check(code == 0, f"{workload}: exit code 0")
        check_metrics(workload, out, result, spec["end_to_end"])
        code, out, result = bench("--workload", workload, "--seed", "0", "--seconds", seconds,
                                  "--trace", "1")
        check(code == 0, f"{workload} traced: exit code 0")
        check_metrics(f"{workload} traced", out, result, spec["per_layer"])

    SCRATCH.mkdir(parents=True, exist_ok=True)
    try:
        pinned = json.loads((HERE / "expected.json").read_text())
        exact, values = pinned["mpc-box"][0]
        pinned["mpc-box"][0] = [exact, [v * (1.0 + 1e-6) for v in values]]
        wrong = SCRATCH / "wrong.json"
        wrong.write_text(json.dumps(pinned))
        code, _, result = bench("--workload", "mpc-box", "--seed", "0", "--seconds", seconds,
                                "--expect", str(wrong))
        check(code != 0 and result is not None and not result["correct"]
              and result["failed"] >= 1, "wrong pinned record: gate fires, exit code non-zero")

        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        code, _, result = bench("--workload", "mpc-box", "--seed", "0", "--seconds", seconds,
                                script=bare / HERE.name / "run.py", cwd=bare)
        check(code != 0 and result is None, "without sources: exit code non-zero, no result")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
