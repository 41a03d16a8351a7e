"""Set-based MPC for discrete-time switched linear systems, with switched-invariance
geometry, an exact sequence optimizer, baseline schedulers, and biomedical benchmarks."""

from .controller import (
    ClosedLoopRecord,
    ControllerState,
    CostSpec,
    InfeasibleProblemError,
    OcpProblem,
    OcpSolution,
    distance_to_set,
    eval_cost,
    initial_state,
    rhc_step,
    run_closed_loop,
    solve_ocp,
)
from .geometry import (
    GeometryCapError,
    InvarianceReport,
    NumericalError,
    Polytope,
    PolytopeUnion,
    SingularMatrixError,
    controllable_set,
    i_step_controllable,
    inclusion_in_union,
    is_switched_invariant,
    non_stabilizability_certificate,
    preimage,
    stabilizability_certificate,
)
from .scenarios import (
    Scenario,
    build_cancer_system,
    build_illustrative_system,
    build_viral_system,
    builtin_names,
    builtin_scenario,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from .strategies import (
    CyclicSchedule,
    EnumerationCapError,
    StrategyResult,
    brute_force_optimal,
    performance_index,
    run_cycle,
    swatch_strategy,
    virologic_failure_strategy,
)
from .switched import (
    JPack,
    SimulationResult,
    SwitchedSystem,
    SwitchingPath,
    WaitingReport,
    j_pack,
    packs,
    simulate,
    step,
    total_load,
    validate_waiting,
)

__version__ = "0.1.0"
