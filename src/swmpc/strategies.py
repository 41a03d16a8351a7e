"""Baseline and oracle schedulers for treatment-switching benchmarks.

Includes exhaustive enumeration (the optimality oracle), the reactive
switch-on-failure rule, fixed-period alternation, and unrolled cyclic
schedules, plus the cumulative-load index used to compare them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .switched import SwitchedSystem, SwitchingPath, _matvec, simulate, total_load

__all__ = [
    "CyclicSchedule",
    "StrategyResult",
    "EnumerationCapError",
    "brute_force_optimal",
    "virologic_failure_strategy",
    "swatch_strategy",
    "run_cycle",
    "performance_index",
]

DEFAULT_ENUMERATION_CAP = 2**20
VIROLOGIC_FAILURE_THRESHOLD = 1000.0


class EnumerationCapError(RuntimeError):
    """Exhaustive enumeration would exceed the configured sequence budget."""


@dataclass(frozen=True)
class CyclicSchedule:
    """Blocks (signal, repeat count), repeated indefinitely."""

    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        blocks = tuple((int(s), int(r)) for s, r in self.blocks)
        if not blocks:
            raise ValueError("a cyclic schedule needs at least one block")
        for s, r in blocks:
            if s < 1:
                raise ValueError("signals are 1-based")
            if r < 1:
                raise ValueError("block repeat counts must be >= 1")
        object.__setattr__(self, "blocks", blocks)

    def unroll(self, steps: int) -> SwitchingPath:
        out: list[int] = []
        while len(out) < steps:
            for s, r in self.blocks:
                out.extend([s] * r)
                if len(out) >= steps:
                    break
        return SwitchingPath(tuple(out[:steps]))


@dataclass(frozen=True)
class StrategyResult:
    """Applied path, closed trajectory, cumulative-load index, per-step totals."""

    path: SwitchingPath
    trajectory: np.ndarray  # (T+1, n)
    index: float
    per_step_totals: tuple[float, ...]


def performance_index(trajectory: Sequence[Sequence[float]]) -> float:
    """Sum of the coordinate sums of every state in the trajectory."""
    total = 0.0
    rows = list(trajectory)
    if not rows:
        raise ValueError("trajectory must contain at least one state")
    for row in rows:
        for v in row:
            total += float(v)
    return total


def _result(sys: SwitchedSystem, x0: Sequence[float], signals: Sequence[int]) -> StrategyResult:
    states = simulate(sys, x0, signals).states
    return StrategyResult(
        path=SwitchingPath(tuple(signals)),
        trajectory=states,
        index=performance_index(states),
        per_step_totals=tuple(total_load(x) for x in states),
    )


def brute_force_optimal(
    sys: SwitchedSystem,
    x0: Sequence[float],
    steps: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> StrategyResult:
    """Exhaustive minimizer of the cumulative load (coordinate sum over all
    decision instants) over all q^steps signal sequences.

    Ties go to the lexicographically smallest sequence.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if sys.q**steps > cap:
        raise EnumerationCapError(
            f"{sys.q}^{steps} sequences exceed the enumeration cap {cap}"
        )
    x0t = tuple(float(v) for v in x0)
    best_cost = math.inf
    best_path: tuple[int, ...] | None = None

    sigs: list[int] = []
    states: list[tuple[float, ...]] = [x0t]

    def dfs(depth: int) -> None:
        nonlocal best_cost, best_path
        if depth == steps:
            cost = 0.0
            for x in states:
                for v in x:
                    cost += v
            if cost < best_cost:
                best_cost = cost
                best_path = tuple(sigs)
            return
        for s in range(1, sys.q + 1):
            sigs.append(s)
            states.append(_matvec(sys.rows(s), states[-1]))
            dfs(depth + 1)
            states.pop()
            sigs.pop()

    dfs(0)
    assert best_path is not None
    return _result(sys, x0t, best_path)


def virologic_failure_strategy(
    sys: SwitchedSystem,
    x0: Sequence[float],
    steps: int,
    threshold: float = VIROLOGIC_FAILURE_THRESHOLD,
) -> StrategyResult:
    """Start on regimen 1; switch to the other regimen at any decision instant
    where the total load strictly exceeds the threshold."""
    if sys.q != 2:
        raise ValueError("the virologic-failure rule alternates between exactly 2 regimens")
    x = tuple(float(v) for v in x0)
    sig = 1
    signals: list[int] = []
    for k in range(steps):
        if k > 0 and total_load(x) > threshold:
            sig = 2 if sig == 1 else 1
        signals.append(sig)
        x = _matvec(sys.rows(sig), x)
    return _result(sys, x0, signals)


def swatch_strategy(
    sys: SwitchedSystem,
    x0: Sequence[float],
    steps: int,
    period: int = 3,
) -> StrategyResult:
    """Deterministic alternation 1,..,1,2,..,2 with `period` instants per block."""
    if sys.q != 2:
        raise ValueError("alternation is defined for exactly 2 regimens")
    if period < 1:
        raise ValueError("period must be >= 1")
    signals = [1 if (k // period) % 2 == 0 else 2 for k in range(steps)]
    return _result(sys, x0, signals)


def run_cycle(
    sys: SwitchedSystem,
    x0: Sequence[float],
    schedule: CyclicSchedule,
    steps: int,
) -> StrategyResult:
    """Unroll the cyclic schedule to `steps` instants and simulate it."""
    for s, _ in schedule.blocks:
        sys._check_signal(s)
    path = schedule.unroll(steps)
    return _result(sys, x0, path.signals)
