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
distance to the target and L the length of its whole run (`switched._runs`),
the first run extended by the applied one; then the terminal term.  The
search extends it node by node: b_sigma = 0 adds c_sigma * d, and b_sigma > 0
re-sums only the stage's run, from the partial cost where the run began.  So
the returned optimum is bit-identical to exhaustive enumeration, with ties
broken toward the lexicographically smallest signal sequence.

What a closed loop's template fixes, `_context` builds once per value of the
fields it reads, for every problem equal to it apart from x and run: the
products x -> A_sigma x, which the leaves step through; the child steps, which
also decide X membership and which every other node and the warm start step
through (both straight-line code per distinct matrix, from the one generator
`switched._child_step`); the target distance and membership (the same
generated check, part by part), the rule and both cost-to-go bounds.  Each
solve picks the bound, as the linear one needs x0 >= 0.

`run_closed_loop` starts at its template's x and run; each `rhc_step` applies
the optimum's first signal and carries the new x, rule state and `_Branch`
(what the search found along the optimum, where the next warm start resumes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .geometry import NumericalError, Polytope, PolytopeUnion, _least_distance, as_union
from .switched import (
    CACHE_SIZE, RuleState, SimulationResult, SwitchedSystem, SwitchingRule, _child_step, _runs,
    simulate,
)


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
    used.  The receding-horizon loop takes an instance as its template: it
    starts at the template's `x` and `run` and replaces them with the
    closed-loop state at every step.  The dwell bounds are the system's
    `waiting` pairs; to drop them, pass `replace(sys, waiting=())`.
    """

    sys: SwitchedSystem
    x: tuple[float, ...]
    horizon: int
    target: PolytopeUnion
    cost: CostSpec
    run: RuleState = RuleState()
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
        if signals and not 1 <= min(signals) <= max(signals) <= self.sys.q:
            raise ValueError(f"run signals must lie in 1..{self.sys.q}")
        if self.cycle_through_all:
            used = signals
        object.__setattr__(self, "run", RuleState(sig, length, used))


@dataclass(frozen=True)
class OcpSolution:
    """What the search decided: the optimal path, its cost and the search effort.
    The predicted states are `simulate(problem.sys, problem.x, path).states`."""

    path: tuple[int, ...]
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


def _member(region: PolytopeUnion) -> Callable[[tuple[float, ...]], bool]:
    """`region.contains(x)` as a closure of x, part by part, each part's
    check generated code (`_child_step` without a matrix)."""
    parts = [_child_step(None, P) for P in region.parts]
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
    """The stage costs of a path, run by run (`switched._runs`, as `packs`), the
    first run extended by the applied run that it continues."""
    c, b = problem.cost.stage_weights, problem.cost.consecutive_weights
    mem_sig, mem_len, _ = problem.run
    total = 0.0
    for start, n, s in _runs(sigs):
        length = n + (mem_len if start == 0 and s == mem_sig else 0)
        total = _run_cost(total, dists[start:start + n], c[s - 1], b[s - 1], length)
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
    """Upper bound on max ||y|| over the target (bounding-box corner norm), inf
    when a part is not `is_bounded`; a box reads its rows, any other part its LPs."""
    worst = 0.0
    for P in target.parts:
        if not P.is_bounded:
            return math.inf
        lo, hi = P.box_bounds or P.coordinate_ranges
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
    children: tuple[Callable[[tuple[float, ...]], tuple[float, ...] | None], ...]  # `_child_step`s
    dist: Callable[[tuple[float, ...]], float]
    in_target: Callable[[tuple[float, ...]], bool]
    rule: SwitchingRule
    linear: Bound | None
    fallback: Bound


@lru_cache(maxsize=CACHE_SIZE)  # the key hashes by value: frozen dataclasses and `_Value`s
def _build_context(sys_: SwitchedSystem, target: PolytopeUnion, cost: CostSpec, horizon: int,
                   cycle_through_all: bool) -> _SearchContext:
    return _SearchContext(
        tuple(sys_.product(s) for s in range(1, sys_.q + 1)),
        tuple(_child_step(M, sys_.state_set) for M in sys_.matrices),
        _build_distance(target),
        _member(target),
        SwitchingRule(sys_, cycle_through_all),
        *_cost_to_go_bound(sys_, target, cost, horizon),
    )


def _context(p: OcpProblem) -> _SearchContext:
    """The `_SearchContext` of every problem equal to p apart from x and run."""
    return _build_context(p.sys, p.target, p.cost, p.horizon, p.cycle_through_all)


class _Branch(NamedTuple):
    """An optimum one step on: its signals after the first, x and rule state at
    depths 1 and N, distances at 1..N-1."""

    ctx: _SearchContext
    tail: tuple[int, ...]
    x: tuple[float, ...]
    run: RuleState
    leaf: tuple[float, ...]
    leaf_run: RuleState
    dists: list[float]


def solve_ocp(problem: OcpProblem, *, _carry: list | None = None) -> OcpSolution:
    """Exact minimizer over admissible signal sequences of length N.

    Depth-first branch-and-bound in ascending signal order; the nonnegative
    partial cost plus `_cost_to_go_bound`, shrunk by (1 - 1e-9) against
    rounding, is the pruning bound, and only strict improvements replace the
    incumbent, so the result matches exhaustive lexicographic enumeration bit
    for bit.  The slack covers the sum: when the partial cost dominates, a
    tied subtree's sum can round up past the warm start's threshold.

    The warm start, whose cost only seeds the threshold, is a rollout that
    looks one step ahead.  `rhc_step`'s one-item list `_carry` gives the last
    `_Branch` and takes this one.  If that was searched in this context from
    x0 and run, the rollout resumes at the last depth, after its tail, and x0
    needs no X check; else, or if its leaf leaves X, it starts from x0.
    """
    products, children, dist, in_target, rule, linear, future = ctx = _context(problem)
    N, q, x0 = problem.horizon, problem.sys.q, problem.x
    c = problem.cost.stage_weights
    b = problem.cost.consecutive_weights
    cterm = problem.cost.terminal_weight
    allowed, in_x = rule.next, problem.sys.state_set.contains

    carried = _carry[0] if _carry else None
    if carried is not None and not (carried.ctx is ctx and carried.x == x0
                                    and carried.run == problem.run
                                    and in_x(carried.leaf)):  # leaves skip X
        carried = None
    if carried is None and not in_x(x0):
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

    nodes = pruned = 0
    complete = waiting = False
    best_cost = math.inf
    best_path: tuple[int, ...] | None = None
    threshold = math.inf

    # per depth of the current branch: the signal, the distance, and the
    # partial cost before it
    path = [0] * N
    dists = [0.0] * N
    partials = [0.0] * N
    best_branch: tuple = ()
    enforce_t = problem.enforce_terminal

    def rollout(prefix: Sequence[int], x, ds: Sequence[float], run) -> float:
        """Cost of `prefix`, with stage distances `ds`, extended from x and run by
        one-step lookahead; inf at a dead end or terminal miss."""
        run_sig, run_len, used = run
        seq, ds = list(prefix), list(ds)
        for depth in range(len(ds), N):
            d_here = dist(x)
            steps = products if depth + 1 == N else children
            chosen = None
            chosen_key = math.inf
            for s in range(1, q + 1):
                nxt = allowed(s, run_sig, run_len, used)
                if nxt is None:
                    continue
                x_next = steps[s - 1](x)
                if x_next is None:
                    continue
                key = dist(x_next)
                if key < chosen_key:
                    chosen_key = key
                    chosen = (s, *nxt, x_next)
            if chosen is None:
                return math.inf
            run_sig, run_len, used, x = chosen
            seq.append(run_sig)
            ds.append(d_here)
        if enforce_t and not in_target(x):
            return math.inf
        return _canonical_partial(problem, seq, ds) + cterm * dist(x)

    warm = (rollout(carried.tail, carried.leaf, carried.dists, carried.leaf_run) if carried
            else rollout((), x0, (), problem.run))
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
        nonlocal best_cost, best_path, best_branch, threshold, nodes, pruned, complete, waiting
        d_here = dists[depth] = dist(x)
        partials[depth] = partial
        last = depth + 1 == N
        steps = products if last else children  # leaves skip the X check
        for s in range(1, q + 1):
            nxt = allowed(s, run_sig, run_len, used)
            if nxt is None:
                waiting = True
                continue
            nodes += 1
            x_next = steps[s - 1](x)
            if x_next is None:
                continue
            path[depth] = s
            if b[s - 1]:  # re-sum the run from where it began: nothing before it changes
                k = max(depth + 1 - nxt[0], 0)
                new_partial = _run_cost(
                    partials[k], dists[k : depth + 1], c[s - 1], b[s - 1], nxt[0]
                )
            else:
                new_partial = partial + c[s - 1] * d_here
            if last:
                complete = True
                if not enforce_t or in_target(x_next):
                    leaf = new_partial + cterm * dist(x_next)
                    if leaf < best_cost:
                        best_cost = leaf
                        best_path = tuple(path)
                        best_branch = (x_next, RuleState(s, *nxt), dists[1:])
                        if best_cost < threshold:
                            threshold = best_cost
            elif (new_partial + future(x_next, depth + 1)) * shrink >= threshold:
                pruned += 1
            else:
                dfs(depth + 1, x_next, s, *nxt, new_partial)

    dfs(0, x0, mem_sig, mem_len, used0, 0.0)

    if best_path is None:
        if complete and problem.enforce_terminal:
            raise InfeasibleProblemError(
                "no sequence reaches the target set within the horizon",
                reason="terminal",
            )
        reason = "waiting" if waiting else "state"
        raise InfeasibleProblemError(
            f"no admissible sequence exists ({reason} constraints)", reason=reason
        )

    if _carry is not None:
        s0 = best_path[0]
        _carry[0] = _Branch(ctx, best_path[1:], products[s0 - 1](x0),
                            RuleState(s0, *allowed(s0, *problem.run)), *best_branch)
    return OcpSolution(path=best_path, cost=best_cost, nodes_explored=nodes, nodes_pruned=pruned)


# -- receding horizon ------------------------------------------------------------


@dataclass(frozen=True)
class ControllerState:
    """Single-owner closed-loop state: x, the `SwitchingRule` state of the
    applied signals (the only past the dwell, coverage and run-length cost rules
    read), and what the last search found (`_branch`, not compared, shown or
    pickled), which the next warm start reuses only where it matches."""

    x: tuple[float, ...]
    run: RuleState = RuleState()
    _branch: _Branch | None = field(default=None, compare=False, repr=False)

    def __reduce__(self):  # the branch holds generated code
        return ControllerState, (self.x, self.run)


def initial_state(x0: Sequence[float]) -> ControllerState:
    return ControllerState(x=tuple(float(v) for v in x0))


def rhc_step(
    template: OcpProblem, state: ControllerState
) -> tuple[int, ControllerState, OcpSolution]:
    """Solve the template's horizon problem at `state` and apply its first
    signal; the next state carries the new x and rule state, and what the
    search found along the optimum, which warm-starts the next solve where it
    matches it (see `solve_ocp`)."""
    problem = object.__new__(OcpProblem)  # `replace`, without re-initialising every field
    problem.__dict__.update(template.__dict__, x=state.x, run=state.run)
    problem.__post_init__()
    carry = [state._branch]
    sol = solve_ocp(problem, _carry=carry)
    branch = carry[0]
    return sol.path[0], ControllerState(branch.x, branch.run, branch), sol


def run_closed_loop(template: OcpProblem, steps: int) -> SimulationResult:
    """Iterate rhc_step `steps` times from the template's own x and run,
    recording the optimal-cost sequence and the search effort of every step."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    st = ControllerState(template.x, template.run)
    states = [st.x]
    sols: list[OcpSolution] = []
    for k in range(steps):
        try:
            _, st, sol = rhc_step(template, st)
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
