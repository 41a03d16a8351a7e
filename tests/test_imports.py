"""What a fresh process imports: scipy only where an LP or a least-distance
solve needs it (the viral matrices are stored constants, so no viral run loads
it), and the first LP on any thread."""

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


def test_builtin_loops_and_viral_runs_load_no_scipy(tmp_path):
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
        seen["viral"] = scipy_modules()
        codes = [
            code,
            main(["simulate", "--scenario", "viral-1", "--steps", "2", "--out", sys.argv[2]]),
            main(["compare", "--scenario", "viral-2", "--steps", "2", "--out", sys.argv[3]]),
        ]
        seen["viral runs"] = scipy_modules()
        print(json.dumps([codes, seen]))
        """,
        *(str(tmp_path / d) for d in ("sim", "sim-viral", "compare-viral")),
    )
    codes, seen = json.loads(out)
    assert codes == [0, 0, 0]
    assert (tmp_path / "sim" / "trajectory.csv").exists()
    assert (tmp_path / "sim-viral" / "trajectory.csv").exists()
    assert (tmp_path / "compare-viral" / "index.csv").exists()
    assert seen == {"import": [], "loops": [], "viral": [], "viral runs": []}


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
