"""Benchmark scenario construction.

Two biomedical benchmarks are built from published parameters: a four-genotype
viral mutation model under two alternating drug regimens (continuous-time rates
discretized by matrix exponential over the treatment interval) and a two-state
cancer cell-population model under three drugs with per-drug dwell bounds.
A `Scenario` bundles the controller's problem template (an `OcpProblem`
holding the switched system and the initial state) with the run's length,
time step and analysis target, and round-trips through a JSON schema so the
built-in benchmarks can be exported, perturbed, and re-imported.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from .controller import CostSpec, OcpProblem
from .geometry import Polytope, PolytopeUnion, as_union
from .switched import SwitchedSystem, UNBOUNDED_DWELL

__all__ = [
    "Scenario",
    "build_viral_system",
    "build_cancer_system",
    "build_illustrative_system",
    "builtin_names",
    "builtin_scenario",
    "load_scenario",
    "scenario_to_dict",
    "scenario_from_dict",
]

MUTATION_RATE = 1e-4
CLEARANCE_RATE = 0.24  # per day
SAMPLING_DAYS = 28.0
TREATMENT_DAYS = 336.0
DETECTION_LIMIT = 50.0  # copies/ml

# genotype connection graph: V1<->V2, V2<->V4, V4<->V3, V3<->V1
MUTATION_GRAPH = np.array(
    [
        [0.0, 1.0, 1.0, 0.0],
        [1.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, 1.0],
        [0.0, 1.0, 1.0, 0.0],
    ]
)

# replication rates per (therapy, genotype); scenario 1 chronic, scenario 2 acute
VIRAL_RATES: dict[int, tuple[tuple[float, float, float, float], ...]] = {
    1: ((0.05, 0.28, 0.01, 0.27), (0.05, 0.20, 0.25, 0.27)),
    2: ((0.05, 0.40, 0.05, 0.23), (0.05, 0.05, 0.40, 0.23)),
}
# 1000 copies/ml of the wild type V1, its one-mutation neighbours V2 and V3 at
# mu times that, and V4 reached from both of them
VIRAL_X0 = np.array(
    [
        1000.0,
        MUTATION_RATE * 1000.0,
        MUTATION_RATE * 1000.0,
        MUTATION_RATE * (MUTATION_RATE * 1000.0) + MUTATION_RATE * (MUTATION_RATE * 1000.0),
    ]
)

CANCER_MATRICES = {
    "P": np.array([[0.755, 0.081], [0.169, 0.843]]),
    "B": np.array([[0.896, 0.0], [0.186, 1.083]]),
    "T": np.array([[1.030, 0.231], [0.022, 0.821]]),
}
CANCER_DRUGS = ("P", "B", "T")  # signals 1, 2, 3
CANCER_WAITING = ((2, 4), (2, 8), (2, 6))
CANCER_X0 = np.array([220.0, 612.0])
CANCER_STEP_HOURS = 12.0

# run-length penalty presets for the relaxed-dwell cancer studies, in (P, B, T) order
CANCER_CASE_WEIGHTS = {
    1: (1.0, 1.0, 1.0),
    2: (2.0, 1.0, 1.0),
    3: (20.0, 1.0, 2.0),
}


def _low_load_halfspace(n: int) -> Polytope:
    """{x : sum x_i <= 0}: on the orthant its distance is linear in the total
    load, so stage costs rank predicted states by total burden rather than by
    the dominant coordinate.  A positive detection threshold would zero out
    every in-window distance right after the first interval and leave the
    optimizer blind to compounding strains."""
    return Polytope(np.ones((1, n)), np.zeros(1))


def _detection_box(n: int) -> PolytopeUnion:
    """|x_i| <= DETECTION_LIMIT: the bounded target that `analyze` certifies against."""
    return as_union(Polytope.box([-DETECTION_LIMIT] * n, [DETECTION_LIMIT] * n))


def build_viral_system(scenario_id: int) -> SwitchedSystem:
    """Discretize the mutation dynamics for the chronic (1) or acute (2) scenario."""
    if scenario_id not in VIRAL_RATES:
        raise ValueError(f"unknown viral scenario {scenario_id!r}; choose 1 or 2")
    mats = []
    for therapy_rates in VIRAL_RATES[scenario_id]:
        generator = (
            np.diag(therapy_rates)
            - CLEARANCE_RATE * np.eye(4)
            + MUTATION_RATE * MUTATION_GRAPH
        ) * SAMPLING_DAYS
        mats.append(expm(generator))
    return SwitchedSystem(
        matrices=tuple(mats),
        state_set=Polytope.nonnegative_orthant(4),
        waiting=((1, UNBOUNDED_DWELL), (1, UNBOUNDED_DWELL)),
    )


def build_cancer_system() -> SwitchedSystem:
    """The three-drug cancer cell-population model with its dwell bounds."""
    return SwitchedSystem(
        matrices=tuple(CANCER_MATRICES[d] for d in CANCER_DRUGS),
        state_set=Polytope.nonnegative_orthant(2),
        waiting=CANCER_WAITING,
    )


def _rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def build_illustrative_system() -> SwitchedSystem:
    """Four non-Schur planar subsystems whose combinations are stabilizing."""
    A1 = np.array([[1.5, 0.0], [0.0, -0.8]])
    A2 = 1.1 * _rotation(2.0 * np.pi / 5.0)
    A3 = 1.05 * _rotation(2.0 * np.pi / 5.0 - 1.0)
    A4 = np.array([[-1.2, 0.0], [1.0, 1.3]])
    return SwitchedSystem(
        matrices=(A1, A2, A3, A4),
        state_set=Polytope.box([-10.0, -10.0], [10.0, 10.0]),
    )


@dataclass(frozen=True)
class Scenario:
    """A named benchmark run: its controller problem template at the initial
    state, the run's length and time scale, and the target `analyze` uses."""

    name: str
    kind: str  # "viral" | "cancer" | "custom"
    tau_days: float
    horizon_steps: int
    mpc: OcpProblem
    analysis_target: PolytopeUnion
    swatch_period: int = 3

    @property
    def sys(self) -> SwitchedSystem:
        return self.mpc.sys

    @property
    def x0(self) -> np.ndarray:
        return np.array(self.mpc.x)

    @property
    def time_unit(self) -> str:
        return "hours" if self.kind == "cancer" else "days"

    def time_of_step(self, k: int) -> float:
        if self.kind == "cancer":
            return k * self.tau_days * 24.0
        return k * self.tau_days


def _viral_scenario(scenario_id: int) -> Scenario:
    mpc = OcpProblem(
        sys=build_viral_system(scenario_id),
        x=VIRAL_X0,
        horizon=5,
        target=_low_load_halfspace(4),
        cost=CostSpec.uniform(2),
        enforce_waiting=False,
        enforce_terminal=False,
    )
    return Scenario(
        name=f"viral-{scenario_id}",
        kind="viral",
        tau_days=SAMPLING_DAYS,
        horizon_steps=round(TREATMENT_DAYS / SAMPLING_DAYS),
        mpc=mpc,
        analysis_target=_detection_box(4),
    )


def _cancer_scenario(case: int | None = None) -> Scenario:
    sys_ = build_cancer_system()
    cost = CostSpec.uniform(3)
    name = "cancer"
    if case is not None:
        if case not in CANCER_CASE_WEIGHTS:
            raise ValueError(f"unknown cancer case {case!r}; choose 1, 2 or 3")
        # relaxed-dwell study: upper bounds dropped, run lengths priced instead
        sys_ = SwitchedSystem(
            matrices=sys_.matrices,
            state_set=sys_.state_set,
            waiting=tuple((lo, UNBOUNDED_DWELL) for lo, _ in sys_.waiting),
        )
        cost = CostSpec.uniform(3, consecutive=CANCER_CASE_WEIGHTS[case])
        name = f"cancer-case{case}"
    mpc = OcpProblem(
        sys=sys_,
        x=CANCER_X0,
        horizon=8,
        target=_low_load_halfspace(2),
        cost=cost,
        enforce_waiting=True,
        enforce_terminal=False,
        cycle_through_all=case is None,
    )
    return Scenario(
        name=name,
        kind="cancer",
        tau_days=CANCER_STEP_HOURS / 24.0,
        horizon_steps=72,
        mpc=mpc,
        analysis_target=_detection_box(2),
    )


def _illustrative_scenario() -> Scenario:
    mpc = OcpProblem(
        sys=build_illustrative_system(),
        x=(-0.5, 0.5),
        horizon=15,
        target=Polytope.origin(2),
        cost=CostSpec.uniform(4),
        enforce_waiting=False,
        # the origin is unreachable exactly in finite steps under nonsingular
        # dynamics, so the distance cost does the steering
        enforce_terminal=False,
    )
    return Scenario(
        name="illustrative",
        kind="custom",
        tau_days=1.0,
        horizon_steps=30,
        mpc=mpc,
        analysis_target=as_union(Polytope.box([-0.1, -0.1], [0.1, 0.1])),
    )


_BUILTINS = {
    "viral-1": lambda: _viral_scenario(1),
    "viral-2": lambda: _viral_scenario(2),
    "cancer": _cancer_scenario,
    "illustrative": _illustrative_scenario,
}


def builtin_names() -> tuple[str, ...]:
    return tuple(_BUILTINS)


def _no_case(source: str, case: int | None) -> None:
    if case is not None:
        raise ValueError(f"case presets are for the cancer scenario only, not {source!r}")


def builtin_scenario(name: str, case: int | None = None) -> Scenario:
    if name not in _BUILTINS:
        raise ValueError(f"unknown scenario {name!r}; built-ins are {', '.join(_BUILTINS)}")
    if name == "cancer":
        return _cancer_scenario(case)
    _no_case(name, case)
    return _BUILTINS[name]()


# -- JSON schema ---------------------------------------------------------------


def scenario_to_dict(scenario: Scenario) -> dict:
    """Serialize to the interchange schema (kind, matrices, waiting, x0, tau_days,
    horizon_steps, cost, target), plus controller flags needed to re-run it."""
    sys_ = scenario.sys
    cost = scenario.mpc.cost
    target_parts = scenario.mpc.target.parts
    return {
        "kind": scenario.kind,
        "name": scenario.name,
        "matrices": [np.asarray(M).tolist() for M in sys_.matrices],
        "waiting": [[lo, up] for lo, up in sys_.waiting],
        "x0": list(scenario.mpc.x),
        "tau_days": scenario.tau_days,
        "horizon_steps": scenario.horizon_steps,
        "cost": {
            "stage": list(cost.stage_weights),
            "terminal": cost.terminal_weight,
            "consecutive": list(cost.consecutive_weights),
        },
        "target": target_parts[0].to_dict()
        if len(target_parts) == 1
        else {"parts": [p.to_dict() for p in target_parts]},
        "state_set": sys_.state_set.to_dict(),
        "mpc_horizon": scenario.mpc.horizon,
        "enforce_waiting": scenario.mpc.enforce_waiting,
        "enforce_terminal": scenario.mpc.enforce_terminal,
        "cycle_through_all": scenario.mpc.cycle_through_all,
    }


def _target_from_dict(data: dict) -> PolytopeUnion:
    if "parts" in data:
        return PolytopeUnion.from_dict(data)
    return as_union(Polytope.from_dict(data))


_REQUIRED_KEYS = ("matrices", "x0", "horizon_steps", "target")


def scenario_from_dict(data: dict, name: str | None = None) -> Scenario:
    if not isinstance(data, dict):
        raise ValueError("a scenario must be a JSON object")
    for key in _REQUIRED_KEYS:
        if key not in data:
            raise ValueError(f"scenario is missing the required key {key!r}")
    matrices = tuple(np.asarray(M, dtype=float) for M in data["matrices"])
    n = matrices[0].shape[0]
    if "state_set" in data:
        state_set = Polytope.from_dict(data["state_set"])
    else:
        state_set = Polytope.nonnegative_orthant(n)
    waiting = tuple((int(lo), int(up)) for lo, up in data.get("waiting", []))
    sys_ = SwitchedSystem(matrices=matrices, state_set=state_set, waiting=waiting)
    target = _target_from_dict(data["target"])
    cost_data = data.get("cost", {})
    cost = CostSpec(
        stage_weights=tuple(cost_data.get("stage", [1.0] * sys_.q)),
        terminal_weight=float(cost_data.get("terminal", 1.0)),
        consecutive_weights=tuple(cost_data.get("consecutive", [])),
    )
    mpc = OcpProblem(
        sys=sys_,
        x=np.asarray(data["x0"], dtype=float),
        horizon=int(data.get("mpc_horizon", 5)),
        target=target,
        cost=cost,
        enforce_waiting=bool(data.get("enforce_waiting", True)),
        enforce_terminal=bool(data.get("enforce_terminal", False)),
        cycle_through_all=bool(data.get("cycle_through_all", False)),
    )
    return Scenario(
        name=name or data.get("name", "custom"),
        kind=data.get("kind", "custom"),
        tau_days=float(data.get("tau_days", 1.0)),
        horizon_steps=int(data["horizon_steps"]),
        mpc=mpc,
        analysis_target=target,
    )


def load_scenario(source: str, case: int | None = None) -> Scenario:
    """A built-in name or a path to a scenario JSON file."""
    if source in _BUILTINS:
        return builtin_scenario(source, case=case)
    _no_case(source, case)
    path = Path(source)
    if not path.exists():
        raise ValueError(
            f"scenario {source!r} is neither a built-in ({', '.join(_BUILTINS)}) "
            "nor an existing JSON file"
        )
    with path.open() as fh:
        data = json.load(fh)
    return scenario_from_dict(data, name=path.stem)
