"""Round 0 of seed 0 of every benchmark workload reproduces its pinned record.

`perfbench/workloads.py` drives swmpc through `builtin_scenario`,
`scenario_to_dict`, a scenario's `sys`, `x0` and `mpc`, and the CLI.  This runs
each op of that round in-process, untimed, and checks every outcome against
`perfbench/expected.json` the way `perfbench/run.py` does: the exact record bit
for bit and the values to a relative 1e-9.  The verdicts of the `certify`
rounds at two seeds are then checked against sampled points.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import swmpc

from .oracles import polytope_samples

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
VALUE_RTOL = 1e-9


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
EXPECTED = json.loads((PERFBENCH / "expected.json").read_text())


@pytest.mark.parametrize("workload", sorted(workloads.PREPARE))
def test_round0_matches_pinned_record(workload, tmp_path):
    rnd = workloads.PREPARE[workload](workloads.round_rng(0, 0), tmp_path)
    for op in rnd.ops:
        op()
    outcomes = rnd.outcomes()
    pinned = EXPECTED[workload]
    assert len(outcomes) == len(pinned)
    for i, (outcome, (exact, values)) in enumerate(zip(outcomes, pinned)):
        assert outcome.ok, f"op {i}: {outcome.why}"
        assert outcome.exact == exact, f"op {i}"
        assert len(outcome.values) == len(values), f"op {i}"
        assert all(math.isclose(a, b, rel_tol=VALUE_RTOL) for a, b in zip(outcome.values, values)), (
            f"op {i}: {outcome.values} != {values}"
        )


@pytest.mark.parametrize("seed", [0, 3])
def test_certify_verdicts_survive_falsification(seed, tmp_path):
    # every counterexample that `analyze` prints is a point of omega that no
    # subsystem maps into omega, and a non-stabilizability verdict at k has
    # every sampled point of S_{k+1} inside omega ∪ S_1 ∪ ... ∪ S_k
    rnd = workloads.prepare_certify(workloads.round_rng(seed, 0), tmp_path)
    for op in rnd.ops:
        op()
    rng = np.random.default_rng(seed)
    counterexamples = non_stabilizable = 0
    for argv, out in zip(rnd.argvs, rnd.outs):
        scen = swmpc.load_scenario(argv[argv.index("--scenario") + 1])
        omega = scen.analysis_target
        verdict = dict(
            line.split(": ", 1) for line in (out / "certificate.txt").read_text().splitlines()
        )
        if "counterexample" in verdict:
            x = np.array(json.loads(verdict["counterexample"]))
            assert omega.contains(x, tol=1e-9), argv
            assert not any(omega.contains(A @ x, tol=1e-12) for A in scen.sys.matrices), argv
            counterexamples += 1
        if verdict["non-stabilizability"].startswith("certified at k="):
            k = int(verdict["non-stabilizability"].removeprefix("certified at k="))
            written = json.loads((out / "sets.json").read_text())
            sets = [swmpc.PolytopeUnion.from_dict(S) for S in written.values()]
            points = np.vstack([polytope_samples(P.H, P.h, rng, 200, 100) for P in sets[k].parts])
            covered = np.zeros(len(points), dtype=bool)
            for P in [*omega.parts, *(P for S in sets[:k] for P in S.parts)]:
                covered |= np.all(points @ P.H.T <= P.h + 1e-9, axis=1)
            assert covered.all(), argv
            non_stabilizable += 1
    assert counterexamples == len(rnd.outs)
    assert non_stabilizable == 1  # the expansive scenario, at k = 0
