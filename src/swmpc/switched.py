"""Discrete-time switched linear systems, switching paths, and dwell-time rules.

The plant is x(k+1) = A_{sigma(k)} x(k) where sigma(k) picks one matrix out of
a finite family at every step; the signal sequence is the only control input.
A path is a plain sequence of 1-based signals; its range is checked where it
meets a system (`simulate`, `validate_waiting`).
Simulations step x -> A_sigma x through `SwitchedSystem.product`, straight-line
code generated per distinct matrix, found by its bytes (the last `CACHE_SIZE` are
kept), at a cost that grows as n^2 (on a 2-core Xeon, 80 us at n = 2, 0.3 s at
200); `_child_step` writes them and the search's child steps, with the same sums.
Dwell-time ("waiting time") bounds constrain how long each signal must and may
persist, expressed through maximal constant runs ("packs") of the path, which
one generator, `_runs`, splits off for `packs` and the controller's cost.
`SwitchingRule` states those bounds, read from the system's `waiting` pairs
alone (`waiting=()` drops them), and the optional cycle-coverage rule, as one
automaton that the controller steps through signal by signal; its state,
a `RuleState`, is all of the past that the rules read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .geometry import CACHE_SIZE, MEMBERSHIP_TOL, Polytope, _Value


# Upper waiting bound used when a signal has no effective dwell limit.
UNBOUNDED_DWELL = 10**9
_COMPILED = itertools.count()  # numbers each generated function's filename


def _compile(name: str, body: list[str], scope: dict) -> Callable:
    """`def f(x)` with that body, compiled under its own name for cProfile."""
    source = "def f(x):\n" + "".join(f"    {line}\n" for line in body)
    exec(compile(source, f"<swmpc {name} #{next(_COMPILED)}>", "exec"), scope)
    return scope["f"]


def _child_step(M: np.ndarray | None, X: Polytope | None) -> Callable:
    """x -> M x as straight-line code, each row's a.x summed left to right from
    0.0 with `repr` literals (the same floats); with X, x -> y = M x when
    `X.contains(y)`, else None; with X and no M, x -> `X.contains(x)`.

    Each row of X sums only its nonzero terms: for finite y the others are
    +-0, so the verdict is `contains`' (a box compares one axis per row).  A
    non-finite y[k] can pass every row only if no rows bound axis k on both
    sides; there `contains` decides.
    """
    if M is not None:
        body = ["".join(f"x{j}, " for j in range(M.shape[1])) + "= x"]
        sums = ["0.0" + "".join(f" + ({a!r}) * x{j}" for j, a in enumerate(row)) for row in M.tolist()]
        if X is None:
            body.append("return (" + "".join(f"{s}, " for s in sums) + ")")
            return _compile(f"product {M.shape[0]}x{M.shape[1]}", body, {})
    n = X.dim
    y = "(" + "".join(f"y{i}, " for i in range(n)) + ")"
    if M is None:
        body, hit, miss = [f"{y} = x"], "True", "False"
    else:
        body += [f"y{i} = {s}" for i, s in enumerate(sums)]
        hit, miss = y, "None"
    for row, b in X._rows:
        terms = " + ".join(f"({a!r}) * y{k}" for k, a in enumerate(row) if a) or "0.0"
        body.append(f"if not {terms} <= {b + MEMBERSHIP_TOL!r}: return {miss}")
    loose = [k for k in range(n) if not (np.any(X.H[:, k] > 0.0) and np.any(X.H[:, k] < 0.0))]
    if loose:  # their sum lies between -inf and inf (1e999) only when each is finite
        body.append(f"if not -1e999 < {' + '.join(f'y{k}' for k in loose)} < 1e999: "
                    f"return {hit} if contains({y}) else {miss}")
    return _compile("membership" if M is None else "child step", [*body, f"return {hit}"],
                    {"contains": X.contains})


@lru_cache(maxsize=CACHE_SIZE)
def _product(shape: tuple[int, int], data: bytes) -> Callable[[Sequence[float]], tuple[float, ...]]:
    """x -> M x for the matrix M of that shape and those bytes (`_child_step`, no X)."""
    return _child_step(np.frombuffer(data).reshape(shape), None)


def total_load(x: Iterable[float]) -> float:
    """Coordinate sum of a state (total viral copies / total live cells)."""
    s = 0.0
    for v in x:
        s += float(v)
    return s


def performance_index(trajectory: Sequence[Sequence[float]]) -> float:
    """Cumulative load: the sum of every entry of the trajectory, in row order."""
    rows = list(trajectory)
    if not rows:
        raise ValueError("trajectory must contain at least one state")
    return total_load(v for row in rows for v in row)


@dataclass(frozen=True, eq=False)
class SwitchedSystem(_Value):
    """A finite family of n x n transition matrices plus state and dwell constraints.

    Parameters
    ----------
    matrices:
        The family A_1..A_q, each n x n.
    state_set:
        Closed state-constraint polytope X (may be unbounded, e.g. an orthant).
    waiting:
        Per-signal pairs (L, U): once a signal starts it must persist at least
        L steps and at most U steps.  Defaults to (1, UNBOUNDED_DWELL).
    """

    matrices: tuple[np.ndarray, ...]
    state_set: Polytope
    waiting: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        # copies, so that freezing them leaves the caller's arrays writable
        mats = tuple(np.array(M, dtype=float) for M in self.matrices)
        if not mats:
            raise ValueError("at least one subsystem matrix is required")
        n = mats[0].shape[0]
        for i, M in enumerate(mats):
            if M.ndim != 2 or M.shape != (n, n):
                raise ValueError(f"matrix {i + 1} must be {n}x{n}, got shape {M.shape}")
            if not np.all(np.isfinite(M)):
                raise ValueError(f"matrix {i + 1} has non-finite entries")
            M.setflags(write=False)
        if self.state_set.dim != n:
            raise ValueError(
                f"state_set lives in R^{self.state_set.dim}, matrices act on R^{n}"
            )
        waits = tuple((int(a), int(b)) for a, b in self.waiting)
        if not waits:
            waits = tuple((1, UNBOUNDED_DWELL) for _ in mats)
        if len(waits) != len(mats):
            raise ValueError("need one (L, U) pair per subsystem")
        for s, (lo, up) in enumerate(waits):
            if lo < 1 or lo > up:
                raise ValueError(f"signal {s + 1}: need 1 <= L <= U, got ({lo}, {up})")
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "waiting", waits)

    @cached_property
    def _key(self) -> tuple:
        return tuple((M.shape, M.tobytes()) for M in self.matrices), self.waiting, self.state_set

    @property
    def n(self) -> int:
        return self.matrices[0].shape[0]

    @property
    def q(self) -> int:
        return len(self.matrices)

    def product(self, sigma: int) -> Callable[[Sequence[float]], tuple[float, ...]]:
        """x -> A_sigma x (1-based sigma), the one product every caller steps
        through, looked up by the matrix's bytes (`_product`)."""
        self._check_signal(sigma)
        M = self.matrices[sigma - 1]
        return _product(M.shape, M.tobytes())

    def _check_signal(self, sigma: int) -> None:
        if not 1 <= sigma <= self.q:
            raise ValueError(f"signal {sigma} out of range 1..{self.q}")


class JPack(NamedTuple):
    """Maximal constant run of a path: positions [start, start+length) all equal `signal`."""

    start: int
    length: int
    signal: int

    @property
    def stop(self) -> int:
        return self.start + self.length


@dataclass(frozen=True)
class WaitingReport:
    """Outcome of a dwell-time audit; `index` is the start of the first bad pack."""

    ok: bool
    index: int | None = None
    kind: str | None = None  # "lower" | "upper"


@dataclass(frozen=True)
class SimulationResult:
    """One run of a schedule: the states x(0..T) and the applied signals.

    A receding-horizon run also records, per step, the optimal cost and the
    nodes the search explored and pruned; other runs leave them empty.
    """

    states: np.ndarray  # (T+1, n)
    signals: tuple[int, ...]
    costs: tuple[float, ...] = ()
    nodes_explored: tuple[int, ...] = ()
    nodes_pruned: tuple[int, ...] = ()

    @property
    def index(self) -> float:
        """The cumulative-load performance index of the states."""
        return performance_index(self.states)


def _initial_state(sys: SwitchedSystem, x0: Sequence[float]) -> tuple[float, ...]:
    xv = np.asarray(x0, dtype=float)
    if xv.shape != (sys.n,):
        raise ValueError(f"initial state must have dimension {sys.n}, got shape {xv.shape}")
    return tuple(xv.tolist())


def simulate(
    sys: SwitchedSystem,
    x0: Sequence[float],
    path: Iterable[int],
) -> SimulationResult:
    """Roll the dynamics along `path`; the state constraint X is not checked."""
    signals = tuple(path)
    x = _initial_state(sys, x0)
    states = [x]
    for sigma in signals:
        x = sys.product(sigma)(x)
        states.append(x)
    return SimulationResult(states=np.array(states, dtype=float), signals=signals)


def _runs(signals: Iterable[int]) -> Iterator[tuple[int, int, int]]:
    """(start, length, signal) of each maximal constant run of the path, in order."""
    stop = 0
    for s, run in itertools.groupby(signals):
        start, stop = stop, stop + len(tuple(run))
        yield start, stop - start, s


def packs(signals: Sequence[int]) -> list[JPack]:
    """Decompose a path into its ordered maximal constant runs."""
    return [JPack(*r) for r in _runs(signals)]


def validate_waiting(
    sys: SwitchedSystem,
    path: Iterable[int],
    relax_trailing: bool = False,
) -> WaitingReport:
    """Check L_sigma <= |pack| <= U_sigma for every pack of the path.

    With `relax_trailing` the lower bound is not enforced on the pack touching
    the final index: inside a prediction window that pack may legitimately
    continue beyond the horizon.
    """
    signals = tuple(path)
    for p in packs(signals):
        sys._check_signal(p.signal)
        lo, up = sys.waiting[p.signal - 1]
        if p.length > up:
            return WaitingReport(ok=False, index=p.start, kind="upper")
        relaxed = relax_trailing and p.stop == len(signals)
        if p.length < lo and not relaxed:
            return WaitingReport(ok=False, index=p.start, kind="lower")
    return WaitingReport(ok=True)


class RuleState(NamedTuple):
    """State of a `SwitchingRule`: the signal of the current run (None before
    any signal), the run's length, and the signals used since the coverage
    cycle last restarted."""

    signal: int | None = None
    length: int = 0
    used: frozenset[int] = frozenset()


class SwitchingRule:
    """Dwell-time and cycle-coverage rules as one automaton over constant runs.

    Its state is a `RuleState`, passed unpacked to `next` so that the search
    keeps it in plain locals; under cycle coverage the run's own signal counts
    as used.  Continuing a run may not take it past its upper bound U;
    switching away requires the run to have reached its lower bound L.
    Under cycle coverage a switch may not return to a used signal until
    every signal has been used, and then the cycle restarts.
    The bounds are the system's `waiting` pairs alone; a system built with
    `waiting=()` admits every run (L = 1, U = `UNBOUNDED_DWELL`).
    """

    __slots__ = ("lower", "upper", "cycle", "all_signals")

    def __init__(self, sys: SwitchedSystem, cycle_through_all: bool):
        self.lower = tuple(lo for lo, _ in sys.waiting)
        self.upper = tuple(up for _, up in sys.waiting)
        self.cycle = cycle_through_all
        self.all_signals = frozenset(range(1, sys.q + 1))

    def next(
        self, s: int, run_sig: int | None, run_len: int, used: frozenset[int]
    ) -> tuple[int, frozenset[int]] | None:
        """(run length, used set) after signal s, or None when s is not allowed."""
        if s == run_sig:
            if run_len >= self.upper[s - 1]:
                return None
            return run_len + 1, used
        if run_sig is not None and run_len < self.lower[run_sig - 1]:
            return None
        if self.cycle:
            if used == self.all_signals:
                used = frozenset((s,))
            elif s in used:
                return None
            else:
                used = used | {s}
        return 1, used
