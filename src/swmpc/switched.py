"""Discrete-time switched linear systems, switching paths, and dwell-time rules.

The plant is x(k+1) = A_{sigma(k)} x(k) where sigma(k) picks one matrix out of
a finite family at every step; the signal sequence is the only control input.
Dwell-time ("waiting time") bounds constrain how long each signal must and may
persist, expressed through maximal constant runs ("packs") of the path.
`SwitchingRule` states those bounds, and the optional cycle-coverage rule, as
one automaton that the controller steps through signal by signal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .geometry import Polytope

__all__ = [
    "SwitchedSystem",
    "SwitchingPath",
    "JPack",
    "WaitingReport",
    "SimulationResult",
    "SwitchingRule",
    "step",
    "simulate",
    "j_pack",
    "packs",
    "validate_waiting",
    "total_load",
]

# Upper waiting bound used when a signal has no effective dwell limit.
UNBOUNDED_DWELL = 10**9


def _matvec(rows: Sequence[Sequence[float]], x: Sequence[float]) -> tuple[float, ...]:
    """Left-to-right dense matrix-vector product.

    Shared by simulation and the OCP solver so that identical paths produce
    bit-identical trajectories regardless of the caller.
    """
    out = []
    for row in rows:
        s = 0.0
        for a, xi in zip(row, x):
            s += a * xi
        out.append(s)
    return tuple(out)


def total_load(x: Sequence[float]) -> float:
    """Coordinate sum of a state (total viral copies / total live cells)."""
    s = 0.0
    for v in x:
        s += float(v)
    return s


def _as_rows(matrix: np.ndarray) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(float(v) for v in row) for row in np.asarray(matrix, dtype=float))


@dataclass(frozen=True)
class SwitchingPath:
    """A finite sequence of subsystem indices, 1-based."""

    signals: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        sig = tuple(int(s) for s in self.signals)
        if any(s < 1 for s in sig):
            raise ValueError("signal indices are 1-based and must be >= 1")
        object.__setattr__(self, "signals", sig)

    def __len__(self) -> int:
        return len(self.signals)

    def __iter__(self) -> Iterator[int]:
        return iter(self.signals)

    def __getitem__(self, i):
        return self.signals[i]

    def __add__(self, other: "SwitchingPath | Iterable[int]") -> "SwitchingPath":
        tail = other.signals if isinstance(other, SwitchingPath) else tuple(other)
        return SwitchingPath(self.signals + tuple(tail))


def _coerce_path(path: "SwitchingPath | Iterable[int]") -> tuple[int, ...]:
    if isinstance(path, SwitchingPath):
        return path.signals
    return SwitchingPath(tuple(path)).signals


@dataclass(frozen=True)
class SwitchedSystem:
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
        mats = tuple(np.asarray(M, dtype=float) for M in self.matrices)
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
        object.__setattr__(self, "_rows", tuple(_as_rows(M) for M in mats))

    @property
    def n(self) -> int:
        return self.matrices[0].shape[0]

    @property
    def q(self) -> int:
        return len(self.matrices)

    def rows(self, sigma: int) -> tuple[tuple[float, ...], ...]:
        """Row tuples of A_sigma for the canonical matvec (1-based sigma)."""
        self._check_signal(sigma)
        return self._rows[sigma - 1]

    def _check_signal(self, sigma: int) -> None:
        if not 1 <= sigma <= self.q:
            raise ValueError(f"signal {sigma} out of range 1..{self.q}")


@dataclass(frozen=True)
class JPack:
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
    """States of an open-loop run."""

    states: np.ndarray  # (T+1, n)


def step(sys: SwitchedSystem, x: Sequence[float], sigma: int) -> np.ndarray:
    """One transition x -> A_sigma x."""
    sys._check_signal(sigma)
    xv = np.asarray(x, dtype=float)
    if xv.shape != (sys.n,):
        raise ValueError(f"state must have dimension {sys.n}, got shape {xv.shape}")
    return np.array(_matvec(sys.rows(sigma), tuple(xv)))


def simulate(
    sys: SwitchedSystem,
    x0: Sequence[float],
    path: SwitchingPath | Iterable[int],
) -> SimulationResult:
    """Roll the dynamics along `path`; the state constraint X is not checked."""
    signals = _coerce_path(path)
    xv = np.asarray(x0, dtype=float)
    if xv.shape != (sys.n,):
        raise ValueError(f"initial state must have dimension {sys.n}, got shape {xv.shape}")
    x = tuple(float(v) for v in xv)
    states = [x]
    for sigma in signals:
        sys._check_signal(sigma)
        x = _matvec(sys.rows(sigma), x)
        states.append(x)
    return SimulationResult(states=np.array(states, dtype=float))


def j_pack(path: SwitchingPath | Iterable[int], j: int) -> JPack:
    """The maximal constant run containing position j (0-based)."""
    signals = _coerce_path(path)
    if not 0 <= j < len(signals):
        raise IndexError(f"index {j} out of range for path of length {len(signals)}")
    sig = signals[j]
    start = j
    while start > 0 and signals[start - 1] == sig:
        start -= 1
    stop = j + 1
    while stop < len(signals) and signals[stop] == sig:
        stop += 1
    return JPack(start=start, length=stop - start, signal=sig)


def packs(path: SwitchingPath | Iterable[int]) -> list[JPack]:
    """Decompose a path into its ordered maximal constant runs."""
    signals = _coerce_path(path)
    out: list[JPack] = []
    i = 0
    while i < len(signals):
        stop = i + 1
        while stop < len(signals) and signals[stop] == signals[i]:
            stop += 1
        out.append(JPack(start=i, length=stop - i, signal=signals[i]))
        i = stop
    return out


def validate_waiting(
    sys: SwitchedSystem,
    path: SwitchingPath | Iterable[int],
    relax_trailing: bool = False,
    relax_leading: bool = False,
) -> WaitingReport:
    """Check L_sigma <= |pack| <= U_sigma for every pack of the path.

    With `relax_trailing` the lower bound is not enforced on the pack touching
    the final index: inside a prediction window that pack may legitimately
    continue beyond the horizon.  With `relax_leading` the same applies to the
    pack touching index 0, for windows whose past was truncated mid-pack
    (e.g. a bounded memory of applied signals).
    """
    signals = _coerce_path(path)
    for p in packs(signals):
        if p.signal > sys.q:
            raise ValueError(f"signal {p.signal} out of range 1..{sys.q}")
        lo, up = sys.waiting[p.signal - 1]
        if p.length > up:
            return WaitingReport(ok=False, index=p.start, kind="upper")
        relaxed = (relax_trailing and p.stop == len(signals)) or (
            relax_leading and p.start == 0
        )
        if p.length < lo and not relaxed:
            return WaitingReport(ok=False, index=p.start, kind="lower")
    return WaitingReport(ok=True)


def _trailing_run(path: SwitchingPath) -> tuple[int | None, int]:
    """Signal and length of the path's last constant run; (None, 0) when empty."""
    sig = path.signals
    if not sig:
        return None, 0
    s = sig[-1]
    n = 0
    for v in reversed(sig):
        if v != s:
            break
        n += 1
    return s, n


class SwitchingRule:
    """Dwell-time and cycle-coverage rules as one automaton over constant runs.

    Its state is (run signal, run length, used set): the signal of the current
    run (None before any signal), the run's length, and the signals used since
    the coverage cycle last restarted.  Continuing a run may not take it past
    its upper bound U; switching away requires the run to have reached its
    lower bound L.  Under cycle coverage a switch may not return to a used
    signal until every signal has been used, and then the cycle restarts.
    Without dwell enforcement every run is admissible (L = 1, U unbounded).
    """

    __slots__ = ("lower", "upper", "cycle", "all_signals")

    def __init__(self, sys: SwitchedSystem, enforce_waiting: bool, cycle_through_all: bool):
        if enforce_waiting:
            self.lower = tuple(lo for lo, _ in sys.waiting)
            self.upper = tuple(up for _, up in sys.waiting)
        else:
            self.lower = (1,) * sys.q
            self.upper = (math.inf,) * sys.q
        self.cycle = cycle_through_all
        self.all_signals = frozenset(range(1, sys.q + 1))

    def start(
        self, memory: SwitchingPath, cycle_used: frozenset[int]
    ) -> tuple[int | None, int, frozenset[int]]:
        """State after the applied signals in `memory`: its trailing run, with
        that run's signal counted as used."""
        run_sig, run_len = _trailing_run(memory)
        if self.cycle and run_sig is not None:
            cycle_used = cycle_used | {run_sig}
        return run_sig, run_len, cycle_used

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
