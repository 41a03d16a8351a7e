"""Independent oracles and randomized instance generators for the solver tests.

The enumeration oracle walks every signal sequence in lexicographic order,
filters by the same constraint predicates the solver honors, and keeps the
first strict minimizer of the canonical cost, so solver results must match it
bit for bit.

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
from collections.abc import Sequence

import numpy as np

from swmpc.controller import (
    STATE_TOL,
    TERMINAL_TOL,
    CostSpec,
    OcpProblem,
    _build_membership,
    eval_cost,
)
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
    concat = _applied_run(problem) + tuple(sigs)
    for p in packs(concat):
        lo, up = problem.sys.waiting[p.signal - 1]
        if p.length > up:
            return False
        if p.length < lo and p.stop != len(concat):
            return False
    return True


def enumerate_ocp(problem: OcpProblem):
    """(cost, path) of the best admissible sequence, or None when infeasible."""
    sys_ = problem.sys
    member_state = _build_membership(sys_.state_set, STATE_TOL)
    member_target = _build_membership(problem.target, TERMINAL_TOL)
    if not member_state(problem.x):
        return None
    best = None
    for sigs in itertools.product(range(1, sys_.q + 1), repeat=problem.horizon):
        if problem.enforce_waiting and not _waiting_ok(problem, sigs):
            continue
        if problem.cycle_through_all and not _cycle_ok(problem, sigs):
            continue
        cost, traj = eval_cost(problem, sigs)
        states = [tuple(float(v) for v in row) for row in traj]
        if not all(member_state(states[j]) for j in range(problem.horizon)):
            continue
        if problem.enforce_terminal and not member_target(states[-1]):
            continue
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
