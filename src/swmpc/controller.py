"""Set-based switching MPC.

The horizon-N optimal control problem selects one subsystem per step to
minimize a sum of weighted set-distances (plus an optional penalty on the
squared length of constant-signal runs), subject to state constraints, an
optional terminal-set constraint, and dwell-time bounds that span the seam
between already-applied signals and the prediction window.  The dwell and
cycle rules are those of `switched.SwitchingRule`, and its state, a
`switched.RuleState`, is all that a problem records of the applied signals.

The optimizer is an exact depth-first branch-and-bound over the q-ary
sequence tree.  A path costs one canonical sum, `_canonical_partial`:
c_sigma * d + b_sigma * L^2 per stage, left to right, with d the stage's
distance to the target and L the length of its whole run (`switched.packs`),
the first run extended by the applied one; then the terminal term.  The
search extends it node by node: b_sigma = 0 adds c_sigma * d, and b_sigma > 0
re-sums only the stage's run, from the partial cost where the run began.  So
the returned optimum is bit-identical to exhaustive enumeration, with ties
broken toward the lexicographically smallest signal sequence.

What a closed loop's template fixes, `_context` builds once per value of the
fields it reads, for every problem equal to it apart from x and run: the
products x -> A_sigma x (straight-line code that `switched` generates per
distinct matrix), the target distance, membership of the target and of X (a
box's reads its rows, one axis each), the rule and both cost-to-go bounds.
Each solve picks the bound, as the linear one needs x0 >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .geometry import NumericalError, Polytope, PolytopeUnion, _least_distance, as_union
from .switched import (
    CACHE_SIZE, RuleState, SimulationResult, SwitchedSystem, SwitchingRule, packs, simulate
)

__all__ = [
    "CostSpec",
    "OcpProblem",
    "OcpSolution",
    "ControllerState",
    "InfeasibleProblemError",
    "distance_to_set",
    "eval_cost",
    "solve_ocp",
    "rhc_step",
    "run_closed_loop",
    "initial_state",
]

TERMINAL_TOL = 1e-9
STATE_TOL = 1e-9
Bound = Callable[[tuple[float, ...], int], float]  # a cost-to-go bound of (x, depth)


class InfeasibleProblemError(RuntimeError):
    """No admissible signal sequence exists.

    `reason` is "terminal" when sequences satisfied every other constraint but
    none ended inside the target set, "waiting" when dwell-time bounds cut off
    the tree, and "state" when the state constraint did.  `step` carries the
    closed-loop step index when raised from a receding-horizon run.
    """

    def __init__(self, message: str, reason: str, step: int | None = None):
        super().__init__(message)
        self.reason = reason
        self.step = step


@dataclass(frozen=True)
class CostSpec:
    """Stage weights c_sigma, terminal weight, and per-signal run-length penalties."""

    stage_weights: tuple[float, ...]
    terminal_weight: float = 1.0
    consecutive_weights: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        cs = tuple(float(v) for v in self.stage_weights)
        if not cs or not all(0 < v < math.inf for v in cs):
            raise ValueError("stage weights must be positive and finite")
        tw = float(self.terminal_weight)
        if not 0 < tw < math.inf:
            raise ValueError("terminal weight must be positive and finite")
        bs = tuple(float(v) for v in self.consecutive_weights)
        if not bs:
            bs = tuple(0.0 for _ in cs)
        if len(bs) != len(cs):
            raise ValueError("need one consecutive weight per signal")
        if not all(0 <= v < math.inf for v in bs):
            raise ValueError("consecutive weights must be nonnegative and finite")
        object.__setattr__(self, "stage_weights", cs)
        object.__setattr__(self, "terminal_weight", tw)
        object.__setattr__(self, "consecutive_weights", bs)

    @classmethod
    def uniform(cls, q: int, consecutive: Sequence[float] | None = None) -> "CostSpec":
        consecutive = () if consecutive is None else tuple(consecutive)
        return cls(stage_weights=(1.0,) * q, consecutive_weights=consecutive)


@dataclass(frozen=True)
class OcpProblem:
    """One horizon-N instance: current state, current run, constraints.

    `run` is the `SwitchingRule` state that the applied signals left: the
    signal and length of their last constant run, which the dwell bounds and
    the run-length cost continue across the seam, and the signals used in the
    current coverage cycle.  Under cycle coverage the run's signal counts as
    used.  The receding-horizon loop takes an instance as its template and
    replaces `x` and `run` with the closed-loop state at every step.
    """

    sys: SwitchedSystem
    x: tuple[float, ...]
    horizon: int
    target: PolytopeUnion
    cost: CostSpec
    run: RuleState = RuleState()
    enforce_waiting: bool = True
    enforce_terminal: bool = True
    cycle_through_all: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        object.__setattr__(self, "target", as_union(self.target))
        if len(self.x) != self.sys.n:
            raise ValueError(f"state must have dimension {self.sys.n}")
        if not all(math.isfinite(v) for v in self.x):
            raise ValueError(f"state must be finite, got {self.x}")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if len(self.cost.stage_weights) != self.sys.q:
            raise ValueError("cost needs one stage weight per subsystem")
        sig, length, used = self.run
        if length < 0 or (sig is None) != (length == 0):
            raise ValueError("run needs a signal exactly when its length is positive")
        used = frozenset(used)
        signals = used if sig is None else used | {sig}
        if any(not 1 <= s <= self.sys.q for s in signals):
            raise ValueError(f"run signals must lie in 1..{self.sys.q}")
        if self.cycle_through_all:
            used = signals
        object.__setattr__(self, "run", RuleState(sig, length, used))


@dataclass(frozen=True)
class OcpSolution:
    path: tuple[int, ...]
    trajectory: np.ndarray  # (N+1, n)
    cost: float
    nodes_explored: int = 0
    nodes_pruned: int = 0


# -- set distance, membership and projection ------------------------------------


def _project_onto_polytope(P: Polytope, x: np.ndarray) -> np.ndarray:
    """Euclidean projection of x onto the nonempty polytope P by least-distance
    programming, `geometry._least_distance`.

    The step z = p - x is the least-norm solution of H z <= -f, f = H x - h.
    The NNLS vector u is positive only on rows active at p, and z = -H^T lam
    with lam >= 0 carried by those rows.  Solving them as equalities gives p
    to working accuracy also where the LDP residual is tiny, as outside the
    tip of a thin wedge.
    """
    f = P.H @ x - P.h
    if not np.max(f) > 0.0:  # x satisfies every row
        return x.copy()
    try:
        u, z = _least_distance(P.H, -f)
    except RuntimeError as err:
        raise NumericalError(f"projection failed: {err}") from err
    if z is None:
        raise NumericalError("projection failed: the least-distance residual vanished")
    active = u > 0.0
    # x - p is the least-norm solution of H_active (x - p) = f_active
    shift, *_ = np.linalg.lstsq(P.H[active], f[active], rcond=None)
    return x - shift


def _part_distance(P: Polytope) -> Callable[[tuple[float, ...]], float] | None:
    """The distance to P as a closure of x, or None when P is empty.

    A box is empty when some lower bound exceeds its upper bound and a
    halfspace never is, so neither costs an LP; only a general part reads
    its cached Chebyshev radius.
    """
    bounds = P.box_bounds
    if bounds is not None:
        if np.any(bounds[0] > bounds[1]):
            return None
        lb = tuple(float(v) for v in bounds[0])
        ub = tuple(float(v) for v in bounds[1])

        def ev_box(x: tuple[float, ...]) -> float:
            s = 0.0
            for xi, lo, hi in zip(x, lb, ub):
                if xi < lo:
                    d = lo - xi
                elif xi > hi:
                    d = xi - hi
                else:
                    continue
                s += d * d
            return math.sqrt(s)

        return ev_box

    half = P.halfspace
    if half is not None:
        a, b = half

        def ev_halfspace(x: tuple[float, ...]) -> float:
            # the row has unit norm, so this is the Euclidean distance
            s = 0.0
            for ai, xi in zip(a, x):
                s += ai * xi
            return s - b if s > b else 0.0

        return ev_halfspace

    if P.chebyshev_radius < 0.0:  # no point satisfies every row
        return None

    def ev_general(x: tuple[float, ...]) -> float:
        if P.contains(x, 0.0):
            return 0.0
        p = _project_onto_polytope(P, np.asarray(x, dtype=float))
        s = 0.0
        for xi, pi in zip(x, p.tolist()):
            d = xi - pi
            s += d * d
        return math.sqrt(s)

    return ev_general


def _build_distance(target: PolytopeUnion) -> Callable[[tuple[float, ...]], float]:
    """The distance to a union as a closure of x; empty parts contribute nothing."""
    parts = [e for e in map(_part_distance, target.parts) if e is not None]
    if not parts:
        raise ValueError("distance to the empty set is undefined")
    if len(parts) == 1:
        return parts[0]

    def ev(x: tuple[float, ...]) -> float:
        best = parts[0](x)
        for e in parts[1:]:
            if best == 0.0:
                return 0.0
            d = e(x)
            if d < best:
                best = d
        return best

    return ev


def distance_to_set(omega: Polytope | PolytopeUnion, x: Sequence[float]) -> float:
    """Euclidean distance from x to a union of polytopes (0 when x is a member)."""
    return _build_distance(as_union(omega))(tuple(float(v) for v in x))


def _part_member(P: Polytope, tol: float) -> Callable[[tuple[float, ...]], bool]:
    """`P.contains(x, tol)` as a closure of x, with its verdict on every x.

    A box compares a * x[k] with b + tol, k the row's one axis: for finite x
    the other terms of `contains`' row sum are +-0.  An infinite or NaN x[k]
    can pass rows that do not bound k on both sides; `contains` decides it.
    """
    bounds = P.box_bounds
    if bounds is None:
        return lambda x: P.contains(x, tol)
    axes = np.nonzero(P.H)[1].tolist()  # one per row, in row order
    checks = [(k, row[k], b + tol) for k, (row, b) in zip(axes, P._rows)]
    loose = np.flatnonzero(np.isinf(bounds).any(axis=0)).tolist()
    isfinite = math.isfinite

    def in_box(x: tuple[float, ...]) -> bool:
        for k, a, bt in checks:
            if not a * x[k] <= bt:
                return False
        for k in loose:
            if not isfinite(x[k]):
                return P.contains(x, tol)
        return True

    return in_box


def _member(region: PolytopeUnion, tol: float) -> Callable[[tuple[float, ...]], bool]:
    """`region.contains(x, tol)` as a closure of x, part by part."""
    parts = [_part_member(P, tol) for P in region.parts]
    return parts[0] if len(parts) == 1 else lambda x: any(m(x) for m in parts)


# -- canonical cost ------------------------------------------------------------


def _run_cost(total: float, dists: Sequence[float], c: float, b: float, length: int) -> float:
    """total plus c*d + b*L^2 for each stage distance d of one run of length L,
    left to right."""
    fl = float(length)
    penalty = b * (fl * fl)
    for d in dists:
        total += c * d + penalty
    return total


def _canonical_partial(problem: OcpProblem, sigs: Sequence[int], dists: Sequence[float]) -> float:
    """The stage costs of a path, run by run, the first run extended by the
    applied run that it continues."""
    c, b = problem.cost.stage_weights, problem.cost.consecutive_weights
    mem_sig, mem_len, _ = problem.run
    total = 0.0
    for p in packs(sigs):
        length = p.length + (mem_len if p.start == 0 and p.signal == mem_sig else 0)
        total = _run_cost(total, dists[p.start : p.stop], c[p.signal - 1], b[p.signal - 1], length)
    return total


def eval_cost(problem: OcpProblem, path: Sequence[int]) -> tuple[float, np.ndarray]:
    """Cost and predicted trajectory of a candidate path (no constraints applied)."""
    sigs = tuple(path)
    if len(sigs) != problem.horizon:
        raise ValueError(f"path length {len(sigs)} does not match horizon {problem.horizon}")
    traj = simulate(problem.sys, problem.x, sigs).states
    dist = _build_distance(problem.target)
    dists = [dist(tuple(x)) for x in traj.tolist()]
    total = _canonical_partial(problem, sigs, dists)
    return total + problem.cost.terminal_weight * dists[-1], traj


# -- exact solver ---------------------------------------------------------------


def _target_norm_radius(target: PolytopeUnion) -> float:
    """Upper bound on max ||y|| over the target (bounding-box corner norm); a
    box reads its bounds from its rows, any other part from its support LPs."""
    worst = 0.0
    for P in target.parts:
        if P.nrows <= P.dim:  # too few rows to be bounded: skip the support LPs
            return math.inf
        lo, hi = P.box_bounds or P.coordinate_ranges
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            return math.inf
        worst = max(worst, float(np.linalg.norm(np.maximum(np.abs(lo), np.abs(hi)))))
    return worst


def _no_bound(x: tuple[float, ...], depth: int) -> float:
    return 0.0


def _cost_to_go_bound(sys_: SwitchedSystem, target: PolytopeUnion, cost: CostSpec,
                      N: int) -> tuple[Bound | None, Bound]:
    """Admissible lower bounds `bound(x, depth)` on the cost of stages depth..N-1
    plus the terminal term from x at `depth`: the linear one, for x >= 0 only
    (None if the family or target does not qualify), and the singular-value one.

    Both are admissible in exact arithmetic; `solve_ocp` adds the slack
    against rounding.  They never both apply: the linear one needs a one-row
    target, which is unbounded, and the singular-value one a bounded target.

    - Singular values: ||A_sigma x|| >= r ||x|| with r the least minimum
      singular value, and d(y) >= ||y|| - R for a target within norm R.
    - Linear, for positive systems: when every A_sigma >= 0, x >= 0 and the
      target is {a.x <= b} with a >= 0 and b <= 0, the orthant is invariant
      and d(y) >= a.y on it.  So the cost-to-go with j steps left is at least
      w_j.x, where w_0 = c_term a and w_j = c_min a + min_sigma A_sigma^T w_{j-1}
      componentwise (Hernandez-Vargas, Colaneri, Middleton & Blanchini,
      Int. J. Robust Nonlinear Control 21(10), 2011).
    """
    cmin = min(cost.stage_weights)
    cterm = cost.terminal_weight

    half = target.parts[0].halfspace if len(target) == 1 else None
    if (
        half is not None
        and all(v >= 0.0 for v in half[0])
        and half[1] <= 0.0
        and all(np.all(M >= 0.0) for M in sys_.matrices)
    ):
        a = np.asarray(half[0])
        w = [cterm * a]
        for _ in range(N):
            w.append(cmin * a + np.min([M.T @ w[-1] for M in sys_.matrices], axis=0))
        # indexed by depth: N - depth steps left
        weights = [tuple(float(v) for v in w[N - depth]) for depth in range(N + 1)]

        def linear(x: tuple[float, ...], depth: int) -> float:
            s = 0.0
            for wi, xi in zip(weights[depth], x):
                s += wi * xi
            return s

        return linear, _no_bound  # a one-row target is unbounded

    radius = _target_norm_radius(target)
    if not math.isfinite(radius):
        return None, _no_bound
    rmin = min(float(np.linalg.svd(M, compute_uv=False)[-1]) for M in sys_.matrices)
    if rmin <= 0.0:
        return None, _no_bound
    rpow = [1.0]
    for _ in range(N):
        rpow.append(rpow[-1] * rmin)

    if radius == 0.0:
        # a plain multiple of ||x||
        factor = [0.0] * (N + 1)
        for depth in range(N + 1):
            acc = 0.0
            for i in range(N - depth):
                acc += cmin * rpow[i]
            acc += cterm * rpow[N - depth]
            factor[depth] = acc

        def scaled_norm(x: tuple[float, ...], depth: int) -> float:
            s = 0.0
            for v in x:
                s += v * v
            return factor[depth] * math.sqrt(s)

        return None, scaled_norm

    def decayed_norm(x: tuple[float, ...], depth: int) -> float:
        s = 0.0
        for v in x:
            s += v * v
        xnorm = math.sqrt(s)
        total = 0.0
        for i in range(N - depth):
            v = rpow[i] * xnorm - radius
            if v > 0.0:
                total += cmin * v
        v = rpow[N - depth] * xnorm - radius
        if v > 0.0:
            total += cterm * v
        return total

    return None, decayed_norm


class _SearchContext(NamedTuple):
    """The set-up that a template fixes for the search (see the module docstring)."""

    products: tuple[Callable[[tuple[float, ...]], tuple[float, ...]], ...]
    dist: Callable[[tuple[float, ...]], float]
    in_target: Callable[[tuple[float, ...]], bool]
    in_states: Callable[[tuple[float, ...]], bool]
    rule: SwitchingRule
    linear: Bound | None
    fallback: Bound


@lru_cache(maxsize=CACHE_SIZE)  # the key hashes by value: frozen dataclasses and `_Value`s
def _build_context(sys_: SwitchedSystem, target: PolytopeUnion, cost: CostSpec, horizon: int,
                   enforce_waiting: bool, cycle_through_all: bool) -> _SearchContext:
    return _SearchContext(
        tuple(sys_.product(s) for s in range(1, sys_.q + 1)),
        _build_distance(target),
        _member(target, TERMINAL_TOL),
        _part_member(sys_.state_set, STATE_TOL),
        SwitchingRule(sys_, enforce_waiting, cycle_through_all),
        *_cost_to_go_bound(sys_, target, cost, horizon),
    )


def _context(p: OcpProblem) -> _SearchContext:
    """The `_SearchContext` of every problem equal to p apart from x and run."""
    return _build_context(p.sys, p.target, p.cost, p.horizon, p.enforce_waiting, p.cycle_through_all)


def solve_ocp(problem: OcpProblem, *, plan: Sequence[int] = ()) -> OcpSolution:
    """Exact minimizer over admissible signal sequences of length N.

    Depth-first branch-and-bound in ascending signal order; the nonnegative
    partial cost plus `_cost_to_go_bound`, shrunk by (1 - 1e-9) against
    rounding, is the pruning bound, and only strict improvements replace the
    incumbent, so the result matches exhaustive lexicographic enumeration bit
    for bit.  The slack covers the sum: when the partial cost dominates, a
    tied subtree's sum can round up past the warm start's threshold.

    `plan` guides the warm-start rollout: at depth d it takes plan[d] where
    the rules and the state set admit it, else the one-step-lookahead choice;
    if that rollout fails, the unguided one is used.  Either way the warm cost
    is an admissible path's, so no plan, however wrong, changes the path, cost
    or trajectory, only the node counts.
    """
    products, dist, in_target, in_states, rule, linear, future = _context(problem)
    N, q, x0 = problem.horizon, problem.sys.q, problem.x
    c = problem.cost.stage_weights
    b = problem.cost.consecutive_weights
    cterm = problem.cost.terminal_weight
    allowed = rule.next

    if not in_states(x0):
        raise InfeasibleProblemError("current state violates the state constraint", reason="state")

    # the applied run straddles the prediction seam, so only U can judge it yet
    mem_sig, mem_len, used0 = problem.run
    if mem_sig is not None and mem_len > rule.upper[mem_sig - 1]:
        raise InfeasibleProblemError(
            "the applied run violates an upper waiting bound", reason="waiting"
        )

    if linear is not None and all(v >= 0.0 for v in x0):
        future = linear
    shrink = 1.0 - 1e-9

    stats = {"nodes": 0, "pruned": 0}
    flags = {"complete": False, "waiting": False, "state": False}
    best_cost = math.inf
    best_path: tuple[int, ...] | None = None
    threshold = math.inf

    sig_seq: list[int] = []
    # per depth of the current branch: the distance, and the partial cost before it
    dists = [0.0] * N
    partials = [0.0] * N
    enforce_t = problem.enforce_terminal

    def rollout(guide: Sequence[int]) -> float:
        """Cost of a rollout that takes guide[depth] where admissible and looks
        one step ahead elsewhere; inf on a dead end or a terminal miss."""
        x = x0
        run_sig, run_len, used = mem_sig, mem_len, used0
        seq: list[int] = []
        ds: list[float] = []
        for depth in range(N):
            d_here = dist(x)
            chosen = None
            chosen_key = math.inf
            hint = guide[depth] if depth < len(guide) else None
            for s in range(1, q + 1):
                nxt = allowed(s, run_sig, run_len, used)
                if nxt is None:
                    continue
                x_next = products[s - 1](x)
                if depth + 1 < N and not in_states(x_next):
                    continue
                if s == hint:
                    chosen = (s, *nxt, x_next)
                    break
                key = dist(x_next)
                if key < chosen_key:
                    chosen_key = key
                    chosen = (s, *nxt, x_next)
            if chosen is None:
                return math.inf
            s, run_len, used, x = chosen
            run_sig = s
            seq.append(s)
            ds.append(d_here)
        if enforce_t and not in_target(x):
            return math.inf
        return _canonical_partial(problem, seq, ds) + cterm * dist(x)

    warm = rollout(plan)
    if len(plan) and not math.isfinite(warm):
        warm = rollout(())
    if math.isfinite(warm):
        threshold = math.nextafter(warm, math.inf)

    def dfs(
        depth: int,
        x: tuple[float, ...],
        run_sig: int | None,
        run_len: int,
        used: frozenset[int],
        partial: float,
    ) -> None:
        nonlocal best_cost, best_path, threshold
        d_here = dists[depth] = dist(x)
        partials[depth] = partial
        last = depth + 1 == N
        for s in range(1, q + 1):
            nxt = allowed(s, run_sig, run_len, used)
            if nxt is None:
                flags["waiting"] = True
                continue
            stats["nodes"] += 1
            x_next = products[s - 1](x)
            if not last and not in_states(x_next):
                flags["state"] = True
                continue
            sig_seq.append(s)
            if b[s - 1]:  # re-sum the run from where it began: nothing before it changes
                k = max(depth + 1 - nxt[0], 0)
                new_partial = _run_cost(
                    partials[k], dists[k : depth + 1], c[s - 1], b[s - 1], nxt[0]
                )
            else:
                new_partial = partial + c[s - 1] * d_here
            if last:
                flags["complete"] = True
                if not enforce_t or in_target(x_next):
                    leaf = new_partial + cterm * dist(x_next)
                    if leaf < best_cost:
                        best_cost = leaf
                        best_path = tuple(sig_seq)
                        if best_cost < threshold:
                            threshold = best_cost
            else:
                if (new_partial + future(x_next, depth + 1)) * shrink >= threshold:
                    stats["pruned"] += 1
                else:
                    dfs(depth + 1, x_next, s, *nxt, new_partial)
            sig_seq.pop()

    dfs(0, x0, mem_sig, mem_len, used0, 0.0)

    if best_path is None:
        if flags["complete"] and problem.enforce_terminal:
            raise InfeasibleProblemError(
                "no sequence reaches the target set within the horizon",
                reason="terminal",
            )
        reason = "waiting" if flags["waiting"] else "state"
        raise InfeasibleProblemError(
            f"no admissible sequence exists ({reason} constraints)", reason=reason
        )

    return OcpSolution(
        path=best_path,
        trajectory=simulate(problem.sys, x0, best_path).states,
        cost=best_cost,
        nodes_explored=stats["nodes"],
        nodes_pruned=stats["pruned"],
    )


# -- receding horizon ------------------------------------------------------------


@dataclass(frozen=True)
class ControllerState:
    """Single-owner closed-loop state: the current x and the `SwitchingRule`
    state of the applied signals, the only past that the dwell, coverage and
    run-length cost rules read, and the last optimal plan, which only guides
    the next warm start and so cannot change what is applied."""

    x: tuple[float, ...]
    run: RuleState = RuleState()
    plan: tuple[int, ...] = ()


def initial_state(x0: Sequence[float]) -> ControllerState:
    return ControllerState(x=tuple(float(v) for v in x0))


def rhc_step(
    template: OcpProblem, state: ControllerState
) -> tuple[int, ControllerState, OcpSolution]:
    """Solve the horizon problem at the current state and apply its first
    signal; the previous plan, shifted by one step, guides the warm start."""
    ctx = _context(template)
    problem = replace(template, x=state.x, run=state.run)
    sol = solve_ocp(problem, plan=state.plan[1:])
    s0 = sol.path[0]
    run = RuleState(s0, *ctx.rule.next(s0, *problem.run))
    return s0, ControllerState(ctx.products[s0 - 1](state.x), run, sol.path), sol


def run_closed_loop(
    cfg: OcpProblem,
    x0: Sequence[float],
    steps: int,
    state: ControllerState | None = None,
) -> SimulationResult:
    """Iterate rhc_step `steps` times, recording the optimal-cost sequence
    and the search effort of every step."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    st = state if state is not None else initial_state(x0)
    states = [st.x]
    sols: list[OcpSolution] = []
    for k in range(steps):
        try:
            _, st, sol = rhc_step(cfg, st)
        except InfeasibleProblemError as err:
            raise InfeasibleProblemError(
                f"infeasible at closed-loop step {k}: {err}", reason=err.reason, step=k
            ) from err
        sols.append(sol)
        states.append(st.x)
    return SimulationResult(
        states=np.array(states, dtype=float),
        signals=tuple(sol.path[0] for sol in sols),
        costs=tuple(sol.cost for sol in sols),
        nodes_explored=tuple(sol.nodes_explored for sol in sols),
        nodes_pruned=tuple(sol.nodes_pruned for sol in sols),
    )
