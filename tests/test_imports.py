"""What a fresh process imports: scipy only where an LP, a least-distance
solve or a viral build needs it, and the first LP on any thread."""

import json
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import swmpc.geometry

from .test_geometry import _result_bits

ROOT = Path(__file__).resolve().parent.parent


def run_fresh(code: str, *args: str) -> bytes:
    """stdout of `code` run in a new interpreter with swmpc on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args],
                          capture_output=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_loops_on_builtins_load_no_scipy_and_viral_loads_only_linalg(tmp_path):
    out = run_fresh(
        """
        import json, sys
        from swmpc import builtin_scenario, run_closed_loop
        from swmpc.cli import main

        def scipy_modules():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

        seen = {"import": scipy_modules()}
        for name, steps in (("illustrative", 30), ("cancer", 12)):
            run_closed_loop(builtin_scenario(name).mpc, steps)
        code = main(["simulate", "--scenario", "illustrative", "--steps", "2", "--out", sys.argv[1]])
        seen["loops"] = scipy_modules()
        builtin_scenario("viral-1")
        seen["viral"] = ["scipy.linalg" in sys.modules, "scipy.optimize" in sys.modules]
        print(json.dumps([code, seen]))
        """,
        str(tmp_path),
    )
    code, seen = json.loads(out)
    assert code == 0 and (tmp_path / "trajectory.csv").exists()
    assert seen["import"] == [] and seen["loops"] == []
    assert seen["viral"] == [True, False]


def test_first_lp_on_a_worker_thread_matches_the_main_thread():
    lp = ([1.0, 0.37], [[-1.0, 0.2], [0.3, -1.0], [0.9, 0.8]], [0.7, 1.1, 2.3])
    out = run_fresh(
        """
        import json, pickle, sys, threading
        from swmpc import geometry

        lp = json.loads(sys.argv[1])
        before = any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
        solved = {}

        def on_thread():
            solved["thread"] = geometry.linprog(*lp), geometry._THREAD.highs

        worker = threading.Thread(target=on_thread)
        worker.start()
        worker.join(timeout=120)
        assert not worker.is_alive()
        solved["main"] = geometry.linprog(*lp), geometry._THREAD.highs
        own_solvers = solved["thread"][1] is not solved["main"][1]
        sys.stdout.buffer.write(pickle.dumps((before, own_solvers, solved["thread"][0], solved["main"][0])))
        """,
        json.dumps(lp),
    )
    scipy_before, own_solvers, on_thread, on_main = pickle.loads(out)
    assert not scipy_before and own_solvers
    assert on_thread.status == 0
    assert _result_bits(on_thread) == _result_bits(on_main) == _result_bits(swmpc.geometry.linprog(*lp))
