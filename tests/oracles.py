"""Independent oracles and randomized instance generators for the solver tests.

The enumeration oracle walks every signal sequence in lexicographic order,
filters by the same constraint predicates the solver honors, and keeps the
first strict minimizer of the canonical cost.  It shares no cost, distance or
membership code with the controller: it rolls out its own states, tests
membership row by row from each polytope's H and h, takes box and halfspace
distances in closed form and sums the stages in the canonical order of the
`controller` docstring, so on box and halfspace targets solver results must
match it bit for bit.  A general polytope's distance comes from projecting
onto the affine hull of every set of at most n rows, so there costs agree to
a relative GENERAL_RTOL.

The minimum-load oracle enumerates every signal sequence of a family and
keeps the first strict minimizer of the cumulative load, using only the
matrices, as the reference for the optimal schedule.

The minimum-norm oracle computes the smallest ||x(K)|| that any switching
sequence reaches, using only the matrices; it shares no code with the
controller, so it can serve as the reference the closed loop is measured
against.

The certificate falsifier samples points of a polytope {x : Hx <= h} and
reports those from which no switching sequence of length 1..depth lands in
the polytope, using only numpy, H, h and the matrices.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Sequence

import numpy as np

from swmpc.controller import STATE_TOL, TERMINAL_TOL, CostSpec, OcpProblem
from swmpc.geometry import Polytope, PolytopeUnion
from swmpc.switched import RuleState, SwitchedSystem, packs

HIT_AND_RUN_BURN_IN = 100


def _applied_run(problem: OcpProblem) -> tuple[int, ...]:
    """The problem's current run, written out as the path of its signals."""
    return (problem.run.signal,) * problem.run.length


def _cycle_ok(problem: OcpProblem, sigs: tuple[int, ...]) -> bool:
    q = problem.sys.q
    used = set(problem.run.used)
    prev = problem.run.signal
    if prev is not None:
        used.add(prev)
    for s in sigs:
        if s != prev:
            if len(used) == q:
                used = {s}
            elif s in used:
                return False
            else:
                used.add(s)
        prev = s
    return True


def _waiting_ok(problem: OcpProblem, sigs: tuple[int, ...]) -> bool:
    """Dwell-bound admissibility of the current run ++ path.

    The trailing pack may still extend beyond the horizon and gets its lower
    bound relaxed.  Every other pack, including the one straddling the seam,
    must meet both bounds with its full length.
    """
    sig, length, _ = problem.run
    runs = [[p.signal, p.length] for p in packs(sigs)]
    if sig is not None:
        if runs and runs[0][0] == sig:
            runs[0][1] += length
        else:
            runs.insert(0, [sig, length])
    for i, (s, ln) in enumerate(runs):
        lo, up = problem.sys.waiting[s - 1]
        if ln > up:
            return False
        if ln < lo and i + 1 < len(runs):
            return False
    return True


# relative agreement of costs on general polytope targets, whose distances
# the oracle computes by another projection than the controller's
GENERAL_RTOL = 1e-12


def close(a: float, b: float) -> bool:
    """a and b agree to GENERAL_RTOL relative to the larger."""
    return abs(a - b) <= GENERAL_RTOL * max(abs(a), abs(b))


def _row_sums_within(rows: list[tuple[list[float], float]], x: Sequence[float], tol: float) -> bool:
    for row, b in rows:
        s = 0.0
        for a, xi in zip(row, x):
            s += a * xi
        if not s <= b + tol:
            return False
    return True


def _member(region: PolytopeUnion | Polytope, tol: float) -> Callable[[Sequence[float]], bool]:
    """x -> whether some part of the region has no row sum a.x, taken left to
    right in pure Python from its H and h, above b + tol."""
    parts = region.parts if isinstance(region, PolytopeUnion) else (region,)
    rows = [list(zip(P.H.tolist(), P.h.tolist())) for P in parts]
    return lambda x: any(_row_sums_within(r, x, tol) for r in rows)


def _box_distance(lo: list[float], hi: list[float]) -> Callable[[Sequence[float]], float]:
    def dist(x: Sequence[float]) -> float:
        s = 0.0
        for xi, lower, upper in zip(x, lo, hi):
            d = lower - xi if xi < lower else xi - upper if xi > upper else 0.0
            s += d * d
        return math.sqrt(s)

    return dist


def _halfspace_distance(a: list[float], b: float) -> Callable[[Sequence[float]], float]:
    def dist(x: Sequence[float]) -> float:
        s = 0.0
        for ai, xi in zip(a, x):
            s += ai * xi
        return s - b if s > b else 0.0

    return dist


def _face_distance(H: np.ndarray, h: np.ndarray) -> Callable[[Sequence[float]], float] | None:
    """Distance to {x : Hx <= h}, or None when it is empty.

    The projection of x is the projection onto the affine hull
    {y : H_S y = h_S} of some set S of at most n well-conditioned rows, so the
    distance is the least ||x - y|| over those projections y that are
    feasible; a set with no feasible one is empty.
    """
    m, n = H.shape
    faces = []  # per size k: the stacked H_S, h_S and H_S^T (H_S H_S^T)^-1
    for k in range(1, n + 1):
        sets = [list(S) for S in itertools.combinations(range(m), k)]
        # nearly dependent rows meet far outside the set, if at all
        sets = [S for S in sets if np.linalg.cond(H[S]) < 1e8]
        if sets:
            HS = np.stack([H[S] for S in sets])
            M = np.stack([H[S].T @ np.linalg.inv(H[S] @ H[S].T) for S in sets])
            faces.append((HS, np.stack([h[S] for S in sets]), M))

    def dist(x: Sequence[float]) -> float:
        x = np.asarray(x, dtype=float)
        if np.all(H @ x <= h):
            return 0.0
        best = math.inf
        for HS, hS, M in faces:
            steps = np.einsum("fnk,fk->fn", M, HS @ x - hS)
            ys = x - steps
            slack = 1e-14 * (1.0 + np.max(np.abs(h)) + np.max(np.abs(ys), axis=1))
            feasible = np.all(ys @ H.T <= h + slack[:, None], axis=1)
            if feasible.any():
                best = min(best, float(np.min(np.linalg.norm(steps[feasible], axis=1))))
        return best

    return None if dist(np.zeros(n)) == math.inf else dist


def _part_distance(P: Polytope) -> Callable[[Sequence[float]], float] | None:
    """Distance to one polytope from its H and h, or None when it is empty: a
    box (every row on one axis) and a halfspace (one row) in closed form."""
    H, h = P.H.tolist(), P.h.tolist()
    axes = [[j for j, a in enumerate(row) if a != 0.0] for row in H]
    if all(len(nz) == 1 for nz in axes):
        lo = [-math.inf] * P.dim
        hi = [math.inf] * P.dim
        for row, b, (j,) in zip(H, h, axes):
            if row[j] > 0.0:
                hi[j] = min(hi[j], b / row[j])
            else:
                lo[j] = max(lo[j], b / row[j])
        if any(lower > upper for lower, upper in zip(lo, hi)):
            return None
        return _box_distance(lo, hi)
    if len(H) == 1:
        return _halfspace_distance(H[0], h[0])
    return _face_distance(P.H, P.h)


def _distance(target: PolytopeUnion) -> Callable[[Sequence[float]], float]:
    """Least distance over the target's nonempty parts."""
    parts = [d for d in map(_part_distance, target.parts) if d is not None]
    return lambda x: min(d(x) for d in parts)


def _path_cost(problem: OcpProblem, sigs: tuple[int, ...], dists: list[float]) -> float:
    """The canonical cost: c.d + b.L^2 over the stages, left to right, where L
    is the length of the stage's whole run and the first run continues the
    applied one; then the terminal term."""
    c = problem.cost.stage_weights
    b = problem.cost.consecutive_weights
    total = 0.0
    for p in packs(sigs):
        length = p.length
        if p.start == 0 and p.signal == problem.run.signal:
            length += problem.run.length
        fl = float(length)
        for d in dists[p.start : p.stop]:
            total += c[p.signal - 1] * d + b[p.signal - 1] * (fl * fl)
    return total + problem.cost.terminal_weight * dists[-1]


def admissible_costs(problem: OcpProblem) -> list[tuple[float, tuple[int, ...]]]:
    """(cost, path) of every admissible sequence, in lexicographic order."""
    sys_ = problem.sys
    N = problem.horizon
    matrices = [np.asarray(A).tolist() for A in sys_.matrices]
    member_state = _member(sys_.state_set, STATE_TOL)
    member_target = _member(problem.target, TERMINAL_TOL)
    dist = _distance(problem.target)
    x0 = problem.x
    if not member_state(x0):
        return []
    # (state, distance) after each prefix, each rolled out once
    seen: dict[tuple[int, ...], tuple[tuple[float, ...], float]] = {(): (x0, dist(x0))}

    def after(prefix: tuple[int, ...]) -> tuple[tuple[float, ...], float]:
        if prefix not in seen:
            x, _ = after(prefix[:-1])
            y = []
            for row in matrices[prefix[-1] - 1]:
                s = 0.0
                for a, xi in zip(row, x):
                    s += a * xi
                y.append(s)
            y = tuple(y)
            seen[prefix] = (y, dist(y))
        return seen[prefix]

    out = []
    for sigs in itertools.product(range(1, sys_.q + 1), repeat=N):
        if problem.enforce_waiting and not _waiting_ok(problem, sigs):
            continue
        if problem.cycle_through_all and not _cycle_ok(problem, sigs):
            continue
        steps = [after(sigs[:j]) for j in range(N + 1)]
        if not all(member_state(x) for x, _ in steps[1:N]):
            continue
        if problem.enforce_terminal and not member_target(steps[N][0]):
            continue
        out.append((_path_cost(problem, sigs, [d for _, d in steps]), sigs))
    return out


def enumerate_ocp(problem: OcpProblem):
    """(cost, path) of the best admissible sequence, or None when infeasible."""
    best = None
    for cost, sigs in admissible_costs(problem):
        if best is None or cost < best[0]:
            best = (cost, sigs)
    return best


def min_load_path(
    matrices: Sequence[np.ndarray], x0: Sequence[float], T: int
) -> tuple[float, tuple[int, ...]]:
    """(load, signals): the first strict minimum, in lexicographic order, of
    the cumulative load over all q^T sequences of x(k+1) = A_sigma x(k).

    Each sequence is rolled out left to right, and the load sums every
    state's coordinates in `performance_index` order.  Signals are 1-based;
    no dwell bounds or state constraints are imposed.
    """
    rows = [[[float(v) for v in row] for row in np.asarray(A)] for A in matrices]
    start = [float(v) for v in x0]
    best_load = math.inf
    best_path: tuple[int, ...] = ()
    for sigs in itertools.product(range(1, len(rows) + 1), repeat=T):
        x = start
        load = 0.0
        for v in x:
            load += v
        for s in sigs:
            y = []
            for row in rows[s - 1]:
                acc = 0.0
                for a, xi in zip(row, x):
                    acc += a * xi
                y.append(acc)
            x = y
            for v in x:
                load += v
        if load < best_load:
            best_load, best_path = load, sigs
    return best_load, best_path


def min_norm_after(
    matrices: Sequence[np.ndarray], x0: Sequence[float], K: int
) -> tuple[float, tuple[int, ...]]:
    """(norm, signals): the exact minimum of ||x(K)|| over all q^K sequences.

    Depth-first branch-and-bound over the q-ary tree of x(k+1) = A_sigma x(k),
    seeded with +inf and visiting children nearest-first.  Since
    ||A x|| >= sigma_min(A) ||x||, a node at depth k is cut when
    ||x_k|| * s^(K-k) >= best, where s is the smallest sigma_min of the family
    shrunk by a factor (1 - 1e-12) so that rounding never cuts the optimum.
    No dwell bounds or state constraints are imposed, so the result is a lower
    bound for any constrained problem on the same family.  Signals are 1-based.
    """
    rows = [tuple(tuple(float(v) for v in row) for row in np.asarray(A)) for A in matrices]
    s = min(float(np.linalg.svd(np.asarray(A, dtype=float), compute_uv=False)[-1]) for A in matrices)
    decay = [(s * (1.0 - 1e-12)) ** r for r in range(K + 1)]
    best_norm = math.inf
    best_path: tuple[int, ...] = ()
    path: list[int] = []

    def visit(x: tuple[float, ...], k: int) -> None:
        nonlocal best_norm, best_path
        norm = math.sqrt(sum(v * v for v in x))
        if k == K:
            if norm < best_norm:
                best_norm, best_path = norm, tuple(path)
            return
        if norm * decay[K - k] >= best_norm:
            return
        children = [
            (i, tuple(sum(a * b for a, b in zip(row, x)) for row in A))
            for i, A in enumerate(rows, start=1)
        ]
        children.sort(key=lambda child: sum(v * v for v in child[1]))
        for i, y in children:
            path.append(i)
            visit(y, k + 1)
            path.pop()

    visit(tuple(float(v) for v in x0), 0)
    return best_norm, best_path


def polytope_samples(
    H: np.ndarray, h: np.ndarray, rng: np.random.Generator, uniform: int, boundary: int
) -> np.ndarray:
    """The vertices of the bounded polytope {x : Hx <= h}, `uniform` points
    inside it and `boundary` points on rays from its vertex centroid.

    The inside points are states of a hit-and-run chain started at the vertex
    centroid, taken every n-th step after HIT_AND_RUN_BURN_IN steps.  Each step
    moves to a uniform point of the chord through the current state along
    the difference of two random vertices.  That direction law is symmetric
    and spans R^n, so the uniform distribution on the polytope is the
    chain's stationary law and the points are approximately uniform; unlike
    rejection from the vertex box, a step costs the same however thin the
    polytope is, and the directions follow its long axes.
    """
    H = np.asarray(H, dtype=float)
    h = np.asarray(h, dtype=float)
    n = H.shape[1]
    vertices = []
    for rows in itertools.combinations(range(H.shape[0]), n):
        M = H[list(rows)]
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        v = np.linalg.solve(M, h[list(rows)])
        if np.all(H @ v <= h + 1e-12) and not any(np.allclose(v, w) for w in vertices):
            vertices.append(v)
    V = np.array(vertices)
    center = V.mean(axis=0)

    def hit_and_run(x: np.ndarray, steps: int) -> np.ndarray:
        for _ in range(steps):
            i, j = rng.choice(len(V), size=2, replace=False)
            d = V[i] - V[j]
            rate = H @ d
            room = h - H @ x
            # the chord {x + t d} of the bounded polytope, x being inside
            t = rng.uniform(np.max(room[rate < 0] / rate[rate < 0]),
                            np.min(room[rate > 0] / rate[rate > 0]))
            y = x + t * d
            if np.all(H @ y <= h):  # rounding at an end of the chord can leave it
                x = y
        return x

    x = hit_and_run(center, HIT_AND_RUN_BURN_IN)
    inside = []
    for _ in range(uniform):
        x = hit_and_run(x, n)
        inside.append(x)
    edge = []
    for _ in range(boundary):
        d = rng.normal(size=n)
        rate = H @ d
        t = np.min((h - H @ center)[rate > 0] / rate[rate > 0])
        edge.append(center + t * d)
    return np.vstack([V, *inside, *edge])


def unreached_within(
    matrices: Sequence[np.ndarray],
    H: np.ndarray,
    h: np.ndarray,
    points: np.ndarray,
    depth: int,
    tol: float = 1e-9,
) -> np.ndarray:
    """The points from which no product A_{s_j} ... A_{s_1}, 1 <= j <= depth,
    maps into {x : Hx <= h + tol}."""
    H = np.asarray(H, dtype=float)
    h = np.asarray(h, dtype=float)
    mats = [np.asarray(A, dtype=float) for A in matrices]
    states = np.asarray(points, dtype=float)[:, None, :]  # (point, sequence, coordinate)
    reached = np.zeros(states.shape[0], dtype=bool)
    for _ in range(depth):
        states = np.concatenate([states @ A.T for A in mats], axis=1)
        inside = np.all(states @ H.T <= h + tol, axis=2)
        reached |= inside.any(axis=1)
    return np.asarray(points)[~reached]


def random_matrix(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    """Random matrix rescaled to the given spectral radius."""
    while True:
        A = rng.normal(size=(n, n))
        eig = np.max(np.abs(np.linalg.eigvals(A)))
        if eig > 1e-6:
            return A * (radius / eig)


def _trailing_run_state(memory: list[int]) -> RuleState:
    """The rule state that a drawn path of applied signals leaves: its last
    constant run.  Draws still make the whole path, so that every later draw
    of the random stream stays where it was."""
    if not memory:
        return RuleState()
    last = packs(memory)[-1]
    return RuleState(last.signal, last.length)


def random_ocp(rng: np.random.Generator) -> OcpProblem:
    """A small randomized instance exercising waiting bounds, the seam with an
    applied run, unions, run-length costs, and both enforcement flags."""
    n = int(rng.integers(1, 4))
    q = int(rng.integers(1, 4))
    N = int(rng.integers(1, 7))
    mats = tuple(
        random_matrix(rng, n, radius=float(rng.uniform(0.3, 1.6))) for _ in range(q)
    )
    box = float(rng.uniform(5.0, 50.0))
    state_set = Polytope.box([-box] * n, [box] * n)
    if rng.random() < 0.7:
        waiting = []
        for _ in range(q):
            lo = int(rng.integers(1, 3))
            waiting.append((lo, lo + int(rng.integers(0, 4))))
        waiting = tuple(waiting)
    else:
        waiting = tuple((1, 10**6) for _ in range(q))
    sys_ = SwitchedSystem(matrices=mats, state_set=state_set, waiting=waiting)

    widths = rng.uniform(0.3, 2.0, size=n)
    target_parts = [Polytope.box(-widths, widths)]
    if rng.random() < 0.3:
        shift = rng.uniform(-1.0, 1.0, size=n)
        target_parts.append(Polytope.box(shift - widths, shift + widths))
    target = PolytopeUnion(tuple(target_parts))

    consecutive = (
        tuple(float(v) for v in rng.uniform(0.0, 0.5, size=q))
        if rng.random() < 0.5
        else ()
    )
    cost = CostSpec(
        stage_weights=tuple(float(v) for v in rng.uniform(0.5, 2.0, size=q)),
        terminal_weight=float(rng.uniform(0.5, 2.0)),
        consecutive_weights=consecutive,
    )

    memory: list[int] = []
    if rng.random() < 0.5 and q >= 1:
        # compliant blocks, then a possibly-short trailing block
        blocks = int(rng.integers(0, 3))
        prev = None
        for _ in range(blocks):
            s = int(rng.integers(1, q + 1))
            if s == prev:
                continue
            lo, up = waiting[s - 1]
            memory.extend([s] * int(rng.integers(lo, min(up, lo + 2) + 1)))
            prev = s
        s = int(rng.integers(1, q + 1))
        if s != prev:
            lo, up = waiting[s - 1]
            memory.extend([s] * int(rng.integers(1, min(up, 3) + 1)))

    x0 = tuple(float(v) for v in rng.uniform(-box / 3.0, box / 3.0, size=n))
    return OcpProblem(
        sys=sys_,
        x=x0,
        horizon=N,
        target=target,
        cost=cost,
        run=_trailing_run_state(memory),
        enforce_waiting=bool(rng.random() < 0.8),
        enforce_terminal=bool(rng.random() < 0.35),
        cycle_through_all=bool(q >= 2 and rng.random() < 0.2),
    )


def random_positive_ocp(rng: np.random.Generator) -> OcpProblem:
    """A small positive instance: nonnegative matrices, x0 >= 0 and the
    halfspace target {a.x <= b} with a >= 0 and b <= 0, the shape of the viral
    and cancer scenarios.  Some draws hold an exact duplicate subsystem (equal
    matrix, weights and dwell bounds, so costs tie), dwell bounds, cycle
    coverage, run-length weights or a capped state box; x0 spans 10^-3..10^8."""
    n = int(rng.integers(1, 5))
    q = int(rng.integers(1, 4))
    N = int(rng.integers(1, 7))
    mats = []
    for _ in range(q):
        A = rng.uniform(0.0, 1.0, size=(n, n)) * (rng.random((n, n)) < 0.7)
        eig = np.max(np.abs(np.linalg.eigvals(A)))
        if eig > 1e-6:
            A = A * (float(rng.uniform(0.3, 1.6)) / eig)
        mats.append(A)
    stage = [float(v) for v in rng.uniform(0.5, 2.0, size=q)]
    consecutive = (
        [float(v) for v in rng.uniform(0.0, 0.5, size=q)] if rng.random() < 0.4 else [0.0] * q
    )
    if rng.random() < 0.4:
        waiting = []
        for _ in range(q):
            lo = int(rng.integers(1, 3))
            waiting.append((lo, lo + int(rng.integers(0, 4))))
    else:
        waiting = [(1, 10**6)] * q
    dup = q >= 2 and rng.random() < 0.3
    if dup:
        i, j = (int(v) for v in rng.choice(q, size=2, replace=False))
        mats[j] = mats[i].copy()
        stage[j], consecutive[j], waiting[j] = stage[i], consecutive[i], waiting[i]

    scale = 10.0 ** float(rng.uniform(-3.0, 8.0))
    x0 = tuple(float(v) for v in scale * rng.uniform(0.0, 1.0, size=n))
    if rng.random() < 0.3:
        cap = scale * float(rng.uniform(1.0, 4.0))
        state_set = Polytope.box([0.0] * n, [cap] * n)
    else:
        state_set = Polytope.nonnegative_orthant(n)
    sys_ = SwitchedSystem(matrices=tuple(mats), state_set=state_set, waiting=tuple(waiting))

    a = rng.uniform(0.0, 1.0, size=n) * (rng.random(n) < 0.8)
    if not np.any(a):
        a[int(rng.integers(0, n))] = 1.0
    b = 0.0 if rng.random() < 0.5 else -scale * float(rng.uniform(0.0, 0.2))
    target = Polytope(a[None, :], np.array([b]))

    memory: list[int] = []
    if rng.random() < 0.4:
        s = int(rng.integers(1, q + 1))
        memory = [s] * int(rng.integers(1, min(waiting[s - 1][1], 3) + 1))
    cycle = q >= 2 and rng.random() < 0.25
    return OcpProblem(
        sys=sys_,
        x=x0,
        horizon=N,
        target=PolytopeUnion((target,)),
        cost=CostSpec(
            stage_weights=tuple(stage),
            terminal_weight=float(rng.uniform(0.5, 2.0)),
            consecutive_weights=tuple(consecutive),
        ),
        run=_trailing_run_state(memory),
        enforce_waiting=bool(rng.random() < 0.8),
        enforce_terminal=bool(rng.random() < 0.2),
        cycle_through_all=cycle,
    )
