"""Baseline and oracle schedulers for treatment-switching benchmarks.

Includes the optimal schedule (the exact minimum of the cumulative load for
a nonnegative family, found by the MPC's own branch-and-bound), the reactive
switch-on-failure rule, fixed-period alternation (a two-block cyclic
schedule), and unrolled cyclic schedules.  Each returns the
`switched.SimulationResult` of its signals, whose `index` is the
cumulative-load index used to compare them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import controller
from .controller import CostSpec, OcpProblem
from .geometry import Polytope
from .switched import SimulationResult, SwitchedSystem, _initial_state, simulate, total_load


DEFAULT_ENUMERATION_CAP = 2**20
VIROLOGIC_FAILURE_THRESHOLD = 1000.0
# instants per SWATCH block; it stays 3 until the paper's protocol is at hand
SWATCH_PERIOD = 3


class EnumerationCapError(RuntimeError):
    """The sequence tree of an exact search would exceed the configured budget."""


@dataclass(frozen=True)
class CyclicSchedule:
    """Blocks (signal, repeat count), repeated indefinitely."""

    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        blocks = tuple((int(s), int(r)) for s, r in self.blocks)
        if not blocks:
            raise ValueError("a cyclic schedule needs at least one block")
        if any(r < 1 for _, r in blocks):
            raise ValueError("block repeat counts must be >= 1")
        object.__setattr__(self, "blocks", blocks)

    def unroll(self, steps: int) -> tuple[int, ...]:
        out: list[int] = []
        while len(out) < steps:
            for s, r in self.blocks:
                out.extend([s] * min(r, steps - len(out)))
        return tuple(out)


def brute_force_optimal(
    sys: SwitchedSystem,
    x0: Sequence[float],
    steps: int,
) -> SimulationResult:
    """Exact minimizer of the cumulative load (coordinate sum over all
    decision instants) over all q^steps signal sequences, for a nonnegative
    family and x0.

    On the nonnegative orthant the load of a state is a multiple of its
    distance to {1.x <= 0}, so the minimizer is the `solve_ocp` optimum for
    that target with unit weights and no dwell, terminal or state rules.
    Ties go to the lexicographically smallest sequence.  q^steps, the size
    of the sequence tree, may not exceed `DEFAULT_ENUMERATION_CAP`.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if sys.q**steps > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapError(
            f"{sys.q}^{steps} sequences exceed the enumeration cap {DEFAULT_ENUMERATION_CAP}"
        )
    if any(np.any(M < 0.0) for M in sys.matrices) or any(float(v) < 0.0 for v in x0):
        raise ValueError("the optimal schedule needs nonnegative matrices and x0")
    if steps == 0:
        return simulate(sys, x0, ())
    problem = OcpProblem(
        replace(sys, state_set=Polytope.nonnegative_orthant(sys.n), waiting=()),
        x0,
        horizon=steps,
        target=Polytope(np.ones((1, sys.n)), np.zeros(1)),
        cost=CostSpec.uniform(sys.q),
        enforce_terminal=False,
    )
    return simulate(sys, x0, controller.solve_ocp(problem).path)


def virologic_failure_strategy(
    sys: SwitchedSystem,
    x0: Sequence[float],
    steps: int,
) -> SimulationResult:
    """Start on regimen 1; switch to the other regimen at any decision instant
    where the total load strictly exceeds `VIROLOGIC_FAILURE_THRESHOLD`."""
    if sys.q != 2:
        raise ValueError("the virologic-failure rule alternates between exactly 2 regimens")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    x = _initial_state(sys, x0)
    sig = 1
    signals = []
    for k in range(steps):
        if k > 0 and total_load(x) > VIROLOGIC_FAILURE_THRESHOLD:
            sig = 2 if sig == 1 else 1
        signals.append(sig)
        x = sys.product(sig)(x)
    return simulate(sys, x0, signals)


def swatch_strategy(
    sys: SwitchedSystem,
    x0: Sequence[float],
    steps: int,
    period: int = SWATCH_PERIOD,
) -> SimulationResult:
    """Deterministic alternation 1,..,1,2,..,2 with `period` instants per block."""
    if sys.q != 2:
        raise ValueError("alternation is defined for exactly 2 regimens")
    if period < 1:
        raise ValueError("period must be >= 1")
    return run_cycle(sys, x0, CyclicSchedule(((1, period), (2, period))), steps)


def run_cycle(
    sys: SwitchedSystem,
    x0: Sequence[float],
    schedule: CyclicSchedule,
    steps: int,
) -> SimulationResult:
    """Unroll the cyclic schedule to `steps` instants and simulate it."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    for s, _ in schedule.blocks:
        sys._check_signal(s)
    return simulate(sys, x0, schedule.unroll(steps))
