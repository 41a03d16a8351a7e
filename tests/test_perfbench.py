"""Round 0 of seed 0 of every benchmark workload reproduces its pinned record.

`perfbench/workloads.py` drives swmpc through `builtin_scenario`,
`scenario_to_dict`, a scenario's `sys`, `x0` and `mpc`, and the CLI.  This runs
each op of that round in-process, untimed, and checks every outcome against
`perfbench/expected.json` the way `perfbench/run.py` does: the exact record bit
for bit and the values to a relative 1e-9.
"""

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

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
