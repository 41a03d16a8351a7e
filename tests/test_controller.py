import hashlib
import math
import pickle

import numpy as np
import pytest

from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from swmpc import (
    ControllerState,
    CostSpec,
    InfeasibleProblemError,
    OcpProblem,
    Polytope,
    PolytopeUnion,
    RuleState,
    SwitchedSystem,
    builtin_scenario,
    eval_cost,
    initial_state,
    rhc_step,
    run_closed_loop,
    packs,
    solve_ocp,
    validate_waiting,
)
from swmpc.controller import (
    STATE_TOL, TERMINAL_TOL, _build_context, _context, _member, _part_member
)
from swmpc.geometry import UNIT_NORM_TOL, as_union
from swmpc.scenarios import scenario_from_dict, scenario_to_dict
from swmpc.switched import CACHE_SIZE, UNBOUNDED_DWELL

from .oracles import (
    _applied_run,
    _cycle_ok,
    _waiting_ok,
    admissible_costs,
    close,
    enumerate_ocp,
    random_ocp,
    random_positive_ocp,
)


def scalar_system(*gains, box=1e9, waiting=()):
    return SwitchedSystem(
        matrices=tuple(np.array([[g]]) for g in gains),
        state_set=Polytope.box([-box], [box]),
        waiting=waiting,
    )


def scalar_problem(gains, x, N, lo=-1.0, hi=1.0, consecutive=(), **kw):
    sys_ = scalar_system(*gains, waiting=kw.pop("waiting", ()))
    return OcpProblem(
        sys=sys_,
        x=(x,),
        horizon=N,
        target=as_union(Polytope.box([lo], [hi])),
        cost=CostSpec.uniform(sys_.q, consecutive=consecutive or None),
        **kw,
    )


def lp_calls(monkeypatch) -> list:
    """A list that gains one entry per LP that geometry solves from now on."""
    import swmpc.geometry

    calls = []
    real = swmpc.geometry.linprog

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(swmpc.geometry, "linprog", counting)
    return calls


class TestEvalCost:
    def test_zero_inside_invariant_target(self):
        sys_ = SwitchedSystem(
            matrices=(0.5 * np.eye(2), np.eye(2)),
            state_set=Polytope.box([-10, -10], [10, 10]),
        )
        prob = OcpProblem(
            sys=sys_,
            x=(0.2, -0.3),
            horizon=4,
            target=as_union(Polytope.box([-1, -1], [1, 1])),
            cost=CostSpec.uniform(2),
            enforce_terminal=False,
        )
        for path in ([1, 1, 1, 1], [2, 1, 2, 1], [2, 2, 2, 2]):
            cost, _ = eval_cost(prob, path)
            assert cost == 0.0

    def test_scalar_distance_sum(self):
        prob = scalar_problem((2.0,), x=2.0, N=1)
        cost, traj = eval_cost(prob, [1])
        assert cost == pytest.approx(4.0, abs=1e-12)  # d(2) + d(4) = 1 + 3
        assert np.allclose(traj[:, 0], [2.0, 4.0])

    def test_run_length_penalty_single_step(self):
        prob = scalar_problem((2.0,), x=2.0, N=1, consecutive=(1.0,))
        cost, _ = eval_cost(prob, [1])
        assert cost == pytest.approx(5.0, abs=1e-12)  # 4 + 1 * 1^2

    def test_penalty_spans_memory(self):
        prob = scalar_problem(
            (2.0,), x=2.0, N=1, consecutive=(1.0,),
            run=RuleState(1, 2), enforce_waiting=False,
        )
        cost, _ = eval_cost(prob, [1])
        # the run through the applied run has length 3: 4 + 3^2
        assert cost == pytest.approx(13.0, abs=1e-12)

    def test_wrong_length_rejected(self):
        prob = scalar_problem((2.0,), x=2.0, N=2)
        with pytest.raises(ValueError):
            eval_cost(prob, [1])

    def test_every_admissible_path_costs_what_the_oracle_says(self):
        # box and halfspace targets, so bit for bit; applied runs up to 10**6
        rng = np.random.default_rng(77)
        paths = 0
        for i in range(60):
            prob = random_ocp(rng) if i % 2 else random_positive_ocp(rng)
            if i % 3 == 0 and prob.run.signal is not None:
                prob = replace(prob, run=prob.run._replace(length=10**6), enforce_waiting=False)
            for cost, path in admissible_costs(prob):
                assert eval_cost(prob, path)[0] == cost, (i, path)
                paths += 1
        assert paths >= 1000


class TestSolveOcp:
    def test_single_step_picks_contracting_branch(self):
        prob = scalar_problem((0.5, 2.0), x=2.0, N=1)
        sol = solve_ocp(prob)
        assert sol.path == (1,)
        assert sol.cost == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(sol.trajectory[:, 0], [2.0, 1.0])

    def test_expansive_terminal_infeasible(self):
        prob = scalar_problem((2.0, 3.0), x=100.0, N=3)
        with pytest.raises(InfeasibleProblemError) as err:
            solve_ocp(prob)
        assert err.value.reason == "terminal"

    def test_waiting_deadlock_reported(self):
        prob = scalar_problem(
            (0.5,), x=2.0, N=2, waiting=((2, 2),),
            run=RuleState(1, 2), enforce_terminal=False,
        )
        with pytest.raises(InfeasibleProblemError) as err:
            solve_ocp(prob)
        assert err.value.reason == "waiting"

    def test_run_past_its_upper_bound_is_waiting_infeasible(self):
        # signal 2 could follow the run, but the run itself already broke U = 3
        prob = scalar_problem(
            (0.5, 0.5), x=2.0, N=2, waiting=((1, 3), (1, 9)),
            run=RuleState(1, 4), enforce_terminal=False,
        )
        with pytest.raises(InfeasibleProblemError) as err:
            solve_ocp(prob)
        assert err.value.reason == "waiting"
        assert solve_ocp(replace(prob, run=RuleState(1, 3))).path == (2, 1)

    @pytest.mark.parametrize(
        "run",
        [
            RuleState(1, 0),
            RuleState(None, 2),
            RuleState(3, 1),
            RuleState(0, 1),
            RuleState(1, 1, frozenset({3})),
            RuleState(None, 0, frozenset({0})),
        ],
        ids=["signal-without-length", "length-without-signal", "signal-above-q",
             "signal-below-1", "used-above-q", "used-below-1"],
    )
    def test_malformed_run_rejected(self, run):
        with pytest.raises(ValueError, match="run"):
            scalar_problem((0.5, 0.5), x=2.0, N=2, run=run)

    def test_started_pack_must_be_extended(self):
        prob = scalar_problem(
            (0.5, 0.6), x=2.0, N=2, waiting=((3, 5), (1, 5)),
            run=RuleState(1, 1), enforce_terminal=False,
        )
        sol = solve_ocp(prob)
        assert sol.path == (1, 1)

    def test_state_constraint_prunes(self):
        sys_ = scalar_system(3.0, 0.5, box=5.0)
        prob = OcpProblem(
            sys=sys_,
            x=(2.0,),
            horizon=3,
            target=as_union(Polytope.box([-1.0], [1.0])),
            cost=CostSpec.uniform(2),
            enforce_terminal=False,
        )
        sol = solve_ocp(prob)
        assert 1 not in sol.path[:2]  # 3 * 2 = 6 > 5 violates X

    def test_current_state_outside_x_is_state_infeasible(self):
        sys_ = scalar_system(0.5, box=1.0)
        prob = OcpProblem(
            sys=sys_,
            x=(2.0,),
            horizon=2,
            target=as_union(Polytope.box([-1.0], [1.0])),
            cost=CostSpec.uniform(1),
        )
        with pytest.raises(InfeasibleProblemError) as err:
            solve_ocp(prob)
        assert err.value.reason == "state"

    def test_lexicographic_tie_break(self):
        prob = scalar_problem((0.5, 0.5, 0.5), x=2.0, N=3, enforce_terminal=False)
        sol = solve_ocp(prob)
        assert sol.path == (1, 1, 1)

    def test_solution_cost_matches_eval_cost_bitwise(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            prob = random_ocp(rng)
            try:
                sol = solve_ocp(prob)
            except InfeasibleProblemError:
                continue
            cost, traj = eval_cost(prob, sol.path)
            assert cost == sol.cost
            assert np.array_equal(traj, sol.trajectory)

    def test_solution_honors_contracts(self):
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 25:
            prob = random_ocp(rng)
            try:
                sol = solve_ocp(prob)
            except InfeasibleProblemError:
                continue
            checked += 1
            if prob.enforce_waiting:
                rep = validate_waiting(
                    prob.sys, _applied_run(prob) + sol.path, relax_trailing=True
                )
                assert rep.ok
            for j in range(prob.horizon):
                assert prob.sys.state_set.contains(sol.trajectory[j], tol=1e-9)
            if prob.enforce_terminal:
                assert prob.target.contains(sol.trajectory[-1], tol=1e-9)

    def test_exactness_against_enumeration(self):
        rng = np.random.default_rng(99)
        feasible = 0
        infeasible = 0
        for _ in range(60):
            prob = random_ocp(rng)
            oracle = enumerate_ocp(prob)
            try:
                sol = solve_ocp(prob)
            except InfeasibleProblemError:
                assert oracle is None
                infeasible += 1
                continue
            assert oracle is not None
            assert sol.cost == oracle[0]
            assert sol.path == oracle[1]
            feasible += 1
        assert feasible >= 20 and infeasible >= 5

    def test_positive_families_match_enumeration(self):
        # nonnegative families with halfspace targets get the linear
        # cost-to-go bound, which must stay admissible under rounding
        rng = np.random.default_rng(2026)
        feasible = infeasible = 0
        for i in range(320):
            prob = random_positive_ocp(rng)
            oracle = enumerate_ocp(prob)
            try:
                sol = solve_ocp(prob)
            except InfeasibleProblemError:
                assert oracle is None, f"instance {i}"
                infeasible += 1
                continue
            assert oracle is not None, f"instance {i}"
            assert sol.cost == oracle[0], f"instance {i}"
            assert sol.path == oracle[1], f"instance {i}"
            feasible += 1
        assert feasible >= 200 and infeasible >= 10

    def test_tied_decaying_families_match_enumeration(self):
        # every subsystem is one matrix times a common decay, so subtrees tie,
        # and a large x0 makes the partial cost dominate the bound: the
        # rounding slack must cover partial + bound, not the bound alone
        rng = np.random.default_rng(909)
        for i in range(200):
            n, q, N = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(3, 9))
            base = rng.uniform(0.0, 1.0, size=(n, n)) * (rng.random((n, n)) < 0.7)
            eig = np.max(np.abs(np.linalg.eigvals(base)))
            if eig > 1e-6:
                base = base / eig
            mats = [base * 10.0 ** float(rng.uniform(-2.5, 0.0))] * q
            if rng.random() < 0.5:
                mats[-1] = rng.uniform(0.0, 1.0, size=(n, n))
            x0 = 10.0 ** float(rng.uniform(-3.0, 8.0)) * rng.uniform(0.0, 1.0, size=n)
            prob = OcpProblem(
                SwitchedSystem(matrices=tuple(mats), state_set=Polytope.nonnegative_orthant(n)),
                tuple(x0),
                horizon=N,
                target=Polytope(np.ones((1, n)), np.zeros(1)),
                cost=CostSpec.uniform(q),
                enforce_waiting=False,
                enforce_terminal=False,
            )
            sol = solve_ocp(prob)
            oracle = enumerate_ocp(prob)
            assert (sol.cost, sol.path) == oracle, f"instance {i}"

    def test_general_targets_match_enumeration(self):
        # rotated polygons, alone or beside random_ocp's box, take the
        # projection branch of the distance; being bounded, they also take the
        # singular-value bound with radii from support LPs
        rng = np.random.default_rng(404)
        feasible = infeasible = clear = 0
        while feasible + infeasible < 100:
            prob = random_ocp(rng)
            if prob.sys.n != 2:
                continue
            sides = int(rng.integers(3, 9))
            angles = rng.uniform(0.0, 2.0 * np.pi) + 2.0 * np.pi * np.arange(sides) / sides
            H = np.column_stack([np.cos(angles), np.sin(angles)])
            polygon = Polytope(H, rng.uniform(0.3, 2.0) + H @ rng.uniform(-1.0, 1.0, size=2))
            parts = (polygon,) if rng.random() < 0.5 else (prob.target.parts[0], polygon)
            prob = replace(prob, target=PolytopeUnion(parts))
            ranked = admissible_costs(prob)
            try:
                sol = solve_ocp(prob)
            except InfeasibleProblemError:
                assert not ranked
                infeasible += 1
                continue
            # the oracle projects by another method, so costs agree to its
            # relative tolerance, and the path must be the oracle's unless the
            # runner-up lies within that tolerance of the optimum
            assert ranked
            best, path = min(ranked)
            costs = {p: c for c, p in ranked}
            assert sol.path in costs
            assert close(sol.cost, costs[sol.path]) and close(costs[sol.path], best)
            if not close(min((c for c, p in ranked if p != path), default=math.inf), best):
                assert sol.path == path
                clear += 1
            feasible += 1
        assert feasible >= 60 and infeasible >= 10 and clear >= 40

    def test_halfspace_target_needs_no_lp(self, monkeypatch):
        calls = lp_calls(monkeypatch)
        solve_ocp(builtin_scenario("viral-1").mpc)
        assert calls == []

    def test_box_target_needs_no_lp(self, monkeypatch):
        # the singular-value bound reads the box's radius from its rows
        calls = lp_calls(monkeypatch)
        solve_ocp(builtin_scenario("illustrative").mpc)
        assert calls == []

    def test_non_finite_state_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                scalar_problem((0.5,), x=bad, N=3)

    def test_determinism(self):
        prob = scalar_problem((0.7, 1.3), x=3.0, N=5, enforce_terminal=False)
        a = solve_ocp(prob)
        b = solve_ocp(prob)
        assert a.path == b.path
        assert a.cost == b.cost


class TestCycleCoverage:
    def test_coverage_forces_every_signal(self):
        sys_ = SwitchedSystem(
            matrices=(0.5 * np.eye(1), 1.1 * np.eye(1), 1.2 * np.eye(1)),
            state_set=Polytope.box([-1e9], [1e9]),
            waiting=((1, 2), (1, 2), (1, 2)),
        )
        prob = OcpProblem(
            sys=sys_,
            x=(1.0,),
            horizon=6,
            target=as_union(Polytope.box([-0.01], [0.01])),
            cost=CostSpec.uniform(3),
            enforce_terminal=False,
            cycle_through_all=True,
        )
        sol = solve_ocp(prob)
        oracle = enumerate_ocp(prob)
        assert sol.path == oracle[1]
        # within six steps with U=2 the path must open at least three packs,
        # and coverage forbids reusing a signal before all three appeared
        first_three = []
        for s in sol.path:
            if not first_three or first_three[-1] != s:
                first_three.append(s)
        assert set(first_three[:3]) == {1, 2, 3}

    def test_cycle_exactness_random(self):
        rng = np.random.default_rng(101)
        checked = 0
        while checked < 15:
            prob = random_ocp(rng)
            if not prob.cycle_through_all:
                continue
            oracle = enumerate_ocp(prob)
            try:
                sol = solve_ocp(prob)
            except InfeasibleProblemError:
                assert oracle is None
                checked += 1
                continue
            assert oracle is not None and sol.cost == oracle[0]
            assert sol.path == oracle[1]
            checked += 1


class TestRecedingHorizon:
    def test_invariant_point_costs_zero(self):
        sys_ = SwitchedSystem(
            matrices=(np.eye(2), 2.0 * np.eye(2)),
            state_set=Polytope.box([-10, -10], [10, 10]),
        )
        cfg = OcpProblem(
            sys=sys_,
            x=(0.5, 0.5),
            horizon=3,
            target=as_union(Polytope.box([-1, -1], [1, 1])),
            cost=CostSpec.uniform(2),
        )
        sig, state, sol = rhc_step(cfg, initial_state([0.5, 0.5]))
        assert sig == 1
        assert sol.cost == 0.0
        assert Polytope.box([-1, -1], [1, 1]).contains(state.x)

    def test_first_applied_signal_scalar(self):
        sys_ = scalar_system(0.5, 2.0)
        cfg = OcpProblem(
            sys=sys_,
            x=(2.0,),
            horizon=1,
            target=as_union(Polytope.box([-1.0], [1.0])),
            cost=CostSpec.uniform(2),
        )
        sig, state, _ = rhc_step(cfg, initial_state([2.0]))
        assert sig == 1
        assert state.x == (1.0,)
        assert state.run == RuleState(1, 1)

    def test_memory_window_is_bounded(self):
        sys_ = scalar_system(0.9, 0.8, waiting=((1, 3), (1, 2)))
        cfg = OcpProblem(
            sys=sys_,
            x=(5.0,),
            horizon=2,
            target=as_union(Polytope.box([-1.0], [1.0])),
            cost=CostSpec.uniform(2),
            enforce_terminal=False,
        )
        record = run_closed_loop(cfg, [5.0], 8)
        assert len(record.signals) == 8
        state = initial_state([5.0])
        for _ in range(8):
            _, state, _ = rhc_step(cfg, state)
            assert 1 <= state.run.length <= sys_.waiting[state.run.signal - 1][1]

    def test_infeasibility_carries_step_index(self):
        sys_ = scalar_system(2.0)
        cfg = OcpProblem(
            sys=sys_,
            x=(4.0,),
            horizon=2,
            target=as_union(Polytope.box([-1.0], [1.0])),
            cost=CostSpec.uniform(1),
        )
        with pytest.raises(InfeasibleProblemError) as err:
            run_closed_loop(cfg, [4.0], 5)
        assert err.value.step == 0

    def test_closed_loop_record_shapes(self):
        sys_ = scalar_system(0.5, 1.1)
        cfg = OcpProblem(
            sys=sys_,
            x=(8.0,),
            horizon=3,
            target=as_union(Polytope.box([-1.0], [1.0])),
            cost=CostSpec.uniform(2),
            enforce_terminal=False,
        )
        record = run_closed_loop(cfg, [8.0], 6)
        assert record.states.shape == (7, 1)
        assert len(record.costs) == 6
        assert record.states[0, 0] == 8.0

    def test_decreasing_cost_with_verified_target(self):
        # contraction keeps the box invariant; terminal on, waiting off
        sys_ = SwitchedSystem(
            matrices=(0.6 * np.eye(2), np.array([[0.0, -1.1], [1.1, 0.0]])),
            state_set=Polytope.box([-50, -50], [50, 50]),
        )
        target = Polytope.box([-1, -1], [1, 1])
        cfg = OcpProblem(
            sys=sys_,
            x=(3.0, -2.0),
            horizon=4,
            target=as_union(target),
            cost=CostSpec((1.5, 0.7), terminal_weight=1.0),
        )
        from swmpc import distance_to_set, is_switched_invariant

        assert is_switched_invariant(sys_, target).is_sis
        record = run_closed_loop(cfg, [3.0, -2.0], 10)
        for i in range(len(record.costs) - 1):
            sig = record.signals[i]
            d = distance_to_set(target, record.states[i])
            decrease = record.costs[i + 1] - record.costs[i]
            assert decrease <= -cfg.cost.stage_weights[sig - 1] * d + 1e-9

    def test_memory_holds_only_the_current_run(self):
        sys_ = scalar_system(0.9, 0.8, 1.1, waiting=((1, 3), (2, UNBOUNDED_DWELL), (1, 2)))
        cfg = OcpProblem(
            sys=sys_,
            x=(5.0,),
            horizon=3,
            target=as_union(Polytope.box([-1.0], [1.0])),
            cost=CostSpec.uniform(3, consecutive=(0.1, 0.02, 0.1)),
            enforce_terminal=False,
        )
        state = initial_state([5.0])
        applied = []
        for _ in range(12):
            s0, state, _ = rhc_step(cfg, state)
            applied.append(s0)
            run = packs(applied)[-1]
            assert state.run[:2] == (run.signal, run.length)
        assert len(packs(applied)) > 1

    def test_negative_steps_rejected(self):
        scen = builtin_scenario("illustrative")
        with pytest.raises(ValueError, match="steps"):
            run_closed_loop(scen.mpc, scen.x0, -1)

    def test_non_finite_closed_loop_start_rejected(self):
        scen = builtin_scenario("cancer")
        with pytest.raises(ValueError, match="finite"):
            run_closed_loop(scen.mpc, [float("nan"), 1.0], 2)

    def test_cycle_coverage_counts_the_memory_run(self):
        # the applied run of drug 3 uses drug 3: drugs 1 and 2 must both
        # come before drug 3 is given again
        scen = builtin_scenario("cancer")
        start = ControllerState(x=tuple(scen.x0), run=RuleState(3, 2))
        record = run_closed_loop(scen.mpc, scen.x0, 12, state=start)
        assert _cycle_ok(replace(scen.mpc, run=start.run), record.signals)

    def test_run_reaches_unbounded_dwell_then_must_stop(self):
        # one signal, U = UNBOUNDED_DWELL: a run length no path of applied
        # signals could hold in memory
        sys_ = scalar_system(0.5)
        cfg = OcpProblem(
            sys=sys_,
            x=(2.0,),
            horizon=1,
            target=as_union(Polytope.box([-1.0], [1.0])),
            cost=CostSpec.uniform(1),
        )
        state = ControllerState(x=(2.0,), run=RuleState(1, UNBOUNDED_DWELL - 1))
        s0, state, _ = rhc_step(cfg, state)
        assert (s0, state.run[:2]) == (1, (1, UNBOUNDED_DWELL))
        with pytest.raises(InfeasibleProblemError) as err:
            rhc_step(cfg, state)
        assert err.value.reason == "waiting"

    def test_closed_loop_matches_enumeration_at_every_step(self):
        rng = np.random.default_rng(1)
        loops = steps = 0
        while loops < 24:
            template = random_ocp(rng)
            q = template.sys.q
            if q >= 2 and loops % 2:
                used = frozenset(s for s in range(1, q + 1) if rng.random() < 0.4)
                template = replace(
                    template, cycle_through_all=True, run=template.run._replace(used=used)
                )
            state = ControllerState(x=template.x, run=template.run)
            applied = []
            for _ in range(6):
                problem = replace(template, x=state.x, run=state.run)
                oracle = enumerate_ocp(problem)
                try:
                    s0, state, sol = rhc_step(template, state)
                except InfeasibleProblemError:
                    assert oracle is None
                    break
                assert (sol.cost, sol.path) == oracle
                applied.append(s0)
            sigs = tuple(applied)
            if template.enforce_waiting:
                assert _waiting_ok(template, sigs)
            if template.cycle_through_all:
                assert _cycle_ok(template, sigs)
            loops += 1
            steps += len(applied)
        assert steps >= 60

    def test_cancer_loop_effort_and_signals(self):
        # the linear cost-to-go bound cuts the 72-step loop from 17,080 nodes
        # to 2,439 without moving the applied schedule
        scen = builtin_scenario("cancer")
        record = run_closed_loop(scen.mpc, scen.x0, 72)
        assert sum(record.nodes_explored) <= 3000
        expected = "111133221111332211113322111133221111332211113322111133221111332211113322"
        assert "".join(map(str, record.signals)) == expected


def _broken_rule(problem, sigs):
    """The first rule that the full-length path `sigs` breaks, or None."""
    if problem.enforce_waiting and not _waiting_ok(problem, sigs):
        return "dwell"
    if problem.cycle_through_all and not _cycle_ok(problem, sigs):
        return "cycle"
    _, traj = eval_cost(problem, sigs)
    if not all(problem.sys.state_set.contains(x, STATE_TOL) for x in traj[1:-1]):
        return "state"
    if problem.enforce_terminal and not problem.target.contains(traj[-1], TERMINAL_TOL):
        return "terminal"
    return None


# dyadic entries tie exactly; the others round, so that mathematically equal
# costs of different paths can differ in the last bits
TIE_ENTRIES = (-1.0, -0.5, -0.3, 0.0, 0.1, 0.3, 0.5, 0.7, 1.0)
# applied run lengths: runs longer than any horizon make a priced run across
# the seam pay (length + w)^2, w its steps inside the window; at 10**6 the
# search prices it and switches away where it can, at 20 the optimum
# sometimes continues it
SEAM_RUNS = (1, 2, 3, 20, 10**6)


@st.composite
def near_tie_problems(draw, max_leaves=4096):
    """General families with q <= 4 and q^N <= max_leaves whose costs tie or
    nearly tie: rounded entries, optionally diagonal (commuting) matrices,
    and optionally one subsystem duplicated with its weights and dwell bounds."""
    n = draw(st.integers(1, 3))
    q = draw(st.integers(1, 4))
    N = draw(st.integers(1, max(k for k in range(1, 9) if q**k <= max_leaves)))
    # positive families with the halfspace target take the linear bound
    positive = draw(st.booleans())
    entry = st.sampled_from([v for v in TIE_ENTRIES if v >= 0.0 or not positive])
    diagonal = draw(st.booleans())
    mats = []
    for _ in range(q):
        if diagonal:
            mats.append(np.diag(draw(st.lists(entry, min_size=n, max_size=n))))
        else:
            flat = draw(st.lists(entry, min_size=n * n, max_size=n * n))
            mats.append(np.array(flat).reshape(n, n))
    stage = [draw(st.sampled_from((0.5, 1.0, 2.0))) for _ in range(q)]
    consecutive = [draw(st.sampled_from((0.0, 0.0, 0.25))) for _ in range(q)]
    waiting = []
    for _ in range(q):
        lo = draw(st.integers(1, 2))
        waiting.append((lo, draw(st.sampled_from((lo, lo + 1, lo + 3, UNBOUNDED_DWELL)))))
    if q >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(q)))[:2]
        for values in (mats, stage, consecutive, waiting):
            values[j] = values[i]
    # at large scales the partial cost dwarfs the cost-to-go bound
    scale = draw(st.sampled_from((1.0, 1e3, 1e7)))
    box = scale * draw(st.sampled_from((3.0, 1e3)))
    sys_ = SwitchedSystem(
        matrices=tuple(mats),
        state_set=Polytope.box([-box] * n, [box] * n),
        waiting=tuple(waiting),
    )
    w = draw(st.sampled_from((0.25, 0.5, 1.0)))
    box_part, half_part = Polytope.box([-w] * n, [w] * n), Polytope(np.ones((1, n)), np.zeros(1))
    parts = draw(st.sampled_from(((box_part,), (half_part,), (box_part, half_part))))
    x0 = draw(st.lists(st.sampled_from((-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)), min_size=n, max_size=n))
    sig = draw(st.sampled_from((None, *range(1, q + 1))))
    return OcpProblem(
        sys=sys_,
        x=tuple(scale * (abs(v) if positive else v) for v in x0),
        horizon=N,
        target=PolytopeUnion(parts),
        cost=CostSpec(tuple(stage), draw(st.sampled_from((0.5, 1.0))), tuple(consecutive)),
        run=RuleState() if sig is None else RuleState(sig, draw(st.sampled_from(SEAM_RUNS))),
        enforce_waiting=draw(st.booleans()),
        enforce_terminal=draw(st.booleans()),
        cycle_through_all=q >= 2 and draw(st.booleans()),
    )


class TestNearTies:
    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(near_tie_problems())
    def test_solve_matches_enumeration(self, prob):
        oracle = enumerate_ocp(prob)
        try:
            sol = solve_ocp(prob)
        except InfeasibleProblemError:
            assert oracle is None
            return
        assert (sol.cost, sol.path) == oracle

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(near_tie_problems(max_leaves=256))
    def test_closed_loop_matches_enumeration(self, template):
        # each step after the first is warm-started from the shifted plan
        state = ControllerState(x=template.x, run=template.run)
        for _ in range(4):
            oracle = enumerate_ocp(replace(template, x=state.x, run=state.run))
            try:
                _, state, sol = rhc_step(template, state)
            except InfeasibleProblemError:
                assert oracle is None
                return
            assert (sol.cost, sol.path) == oracle


class TestWarmStartPlan:
    def test_planted_plans_match_enumeration(self):
        # a plan only guides the warm-start rollout: the true shifted plan,
        # noise, plans that break each rule, wrong lengths and signals outside
        # 1..q must all give the enumeration optimum bit for bit
        rng = np.random.default_rng(31)
        planted = dict.fromkeys(
            ("shifted", "random", "dwell", "cycle", "state", "terminal", "length", "range"), 0
        )
        for loop in range(48):
            template = random_ocp(rng)
            if loop % 2:
                template = replace(template, enforce_terminal=True)
            elif loop % 4 == 0:
                template = replace(template, cycle_through_all=template.sys.q >= 2)
            else:
                # X keeps the states before the last away from the origin, so
                # plans that leave X can be cheaper than every admissible path
                box, x0 = template.sys.state_set, np.asarray(template.x)
                cut = Polytope(np.vstack([box.H, -x0]), np.append(box.h, -0.25 * x0 @ x0))
                template = replace(template, sys=replace(template.sys, state_set=cut))
            q, N = template.sys.q, template.horizon
            state = ControllerState(x=template.x, run=template.run)
            for _ in range(6):
                problem = replace(template, x=state.x, run=state.run)
                plans = {
                    "shifted": state.plan[1:],
                    "random": tuple(int(v) for v in rng.integers(1, q + 1, size=N - 1)),
                    "length": tuple(
                        int(v) for v in rng.integers(1, q + 1, size=N + 1 + int(rng.integers(0, N)))
                    ),
                    "range": tuple(int(v) for v in rng.integers(-1, q + 3, size=N)),
                }
                # constant paths break dwell bounds and run off along the
                # most expansive subsystem
                pool = [(s,) * N for s in range(1, q + 1)]
                pool += [tuple(int(v) for v in rng.integers(1, q + 1, size=N)) for _ in range(40)]
                for sigs in pool:
                    plans.setdefault(_broken_rule(problem, sigs), sigs)
                plans.pop(None, None)
                oracle = enumerate_ocp(problem)
                if oracle is None:
                    with pytest.raises(InfeasibleProblemError) as unplanned:
                        solve_ocp(problem)
                    for kind, plan in plans.items():
                        with pytest.raises(InfeasibleProblemError) as err:
                            solve_ocp(problem, plan=plan)
                        assert err.value.reason == unplanned.value.reason
                        planted[kind] += 1
                    break
                plain = solve_ocp(problem)
                assert (plain.cost, plain.path) == oracle
                assert np.array_equal(plain.trajectory, eval_cost(problem, oracle[1])[1])
                for kind, plan in plans.items():
                    sol = solve_ocp(problem, plan=plan)
                    assert (sol.cost, sol.path) == oracle, (kind, plan)
                    assert np.array_equal(sol.trajectory, plain.trajectory), (kind, plan)
                    planted[kind] += 1
                _, state, sol = rhc_step(template, state)
                assert (sol.cost, sol.path) == oracle
                assert state.plan == oracle[1]
        assert min(planted.values()) >= 10, planted

    def test_illustrative_loop_node_pin(self):
        # the shifted plan cuts the 30-step loop from 44,388 nodes to 16,116
        scen = builtin_scenario("illustrative")
        record = run_closed_loop(scen.mpc, scen.x0, 30)
        assert sum(record.nodes_explored) <= 20_000
        assert "".join(map(str, record.signals)) == "421131113131111113131111113111"


# the seven built-in closed loops: scenario, cancer case, steps
BUILTIN_LOOPS = (
    ("cancer", None, 72),
    ("cancer", 1, 72),
    ("cancer", 2, 72),
    ("cancer", 3, 72),
    ("viral-1", None, 12),
    ("viral-2", None, 12),
    ("illustrative", None, 30),
)


def _membership_boxes() -> list[Polytope]:
    inf, eps = math.inf, 2.0**-52
    return [
        Polytope.box([-1.0], [2.0]),
        Polytope.box([-1.0], [inf]),
        Polytope.box([-inf], [0.5]),
        Polytope.nonnegative_orthant(1),
        Polytope.nonnegative_orthant(2),
        Polytope.nonnegative_orthant(3),
        Polytope.box([-1.0, -2.0, 0.0], [3.0, 2.0, 0.0]),
        Polytope.box([-1.0, -inf], [inf, 4.0]),
        Polytope.box([0.5, -inf, -inf], [inf, inf, inf]),
        # rows within UNIT_NORM_TOL of unit norm keep their bits
        Polytope(np.array([[1.0 + eps, 0.0], [0.0, -(1.0 - eps / 2)]]), np.array([0.3, 0.7])),
        Polytope(np.array([[-(1.0 + eps)], [1.0 - eps / 2]]), np.array([-0.1, 1e-3])),
    ]


def _membership_points(P: Polytope, tol: float, rng: np.random.Generator) -> list[tuple]:
    """Points a few ulps either side of every row's b + tol, with the other
    coordinates inside, zero, huge, infinite or NaN, and random mixes."""
    n = P.dim
    lo, hi = P.box_bounds
    base = [min(max(0.0, lo[k]), hi[k]) for k in range(n)]
    special = [0.0, -0.0, 1e300, -1e300, math.inf, -math.inf, math.nan]
    values = [list(special) for _ in range(n)]
    for row, b in zip(P.H.tolist(), P.h.tolist()):
        k = next(i for i, a in enumerate(row) if a)
        v = (b + tol) / row[k]
        for _ in range(4):
            v = math.nextafter(v, -math.inf)
        for _ in range(9):
            values[k].append(v)
            v = math.nextafter(v, math.inf)
    points = []
    for k in range(n):
        for v in values[k]:
            points.append(tuple(v if i == k else base[i] for i in range(n)))
    for _ in range(400):
        points.append(tuple(values[k][int(rng.integers(len(values[k])))] for k in range(n)))
    return points


class TestSearchContext:
    def test_box_membership_matches_contains(self):
        rng = np.random.default_rng(19)
        boxes = _membership_boxes()
        assert boxes[-2].H[0, 0] == 1.0 + 2.0**-52 and boxes[-1].H[1, 0] == 1.0 - 2.0**-53
        assert all(P.box_bounds is not None for P in boxes)
        assert 0.0 < abs(np.linalg.norm(boxes[-2].H[0]) - 1.0) <= UNIT_NORM_TOL
        verdicts = set()
        for tol in (STATE_TOL, TERMINAL_TOL):
            for P in boxes:
                member, union_member = _part_member(P, tol), _member(as_union(P), tol)
                for x in _membership_points(P, tol, rng):
                    expected = P.contains(x, tol)
                    assert member(x) is expected, (P.H.tolist(), P.h.tolist(), x)
                    assert union_member(x) is expected
                    verdicts.add((expected, all(map(math.isfinite, x))))
        assert verdicts == {(True, True), (False, True), (True, False), (False, False)}
        # 0 * inf = NaN in another row's sum rejects any non-finite coordinate
        # in n >= 2; in 1-D, +inf passes a lower-bound-only row
        orthant = Polytope.nonnegative_orthant(2)
        assert not _part_member(orthant, STATE_TOL)((math.inf, 1.0))
        assert _part_member(Polytope.box([-1.0], [math.inf]), STATE_TOL)((math.inf,))

    def test_union_membership_matches_contains(self):
        rng = np.random.default_rng(7)
        union = PolytopeUnion(
            (
                Polytope.box([-1.0, 0.0], [0.0, 1.0]),
                Polytope(np.array([[1.0, 1.0]]), np.array([-2.0])),
                Polytope.nonnegative_orthant(2),
            )
        )
        member = _member(union, TERMINAL_TOL)
        for _ in range(2000):
            values = rng.choice([-3.0, -1.0, -1e-10, 0.0, 1e-10, 0.5, 1.0, math.inf, math.nan], 2)
            x = tuple(float(v) for v in values)
            assert member(x) is union.contains(x, TERMINAL_TOL), x

    @staticmethod
    def _loop_matches_fresh_solves(template, state, steps) -> int:
        """Step one context through rhc_step and compare every step with a
        fresh solve of the same problem; returns the number of steps made."""
        ctx = None
        for k in range(steps):
            plan = state.plan[1:]
            try:
                fresh = solve_ocp(replace(template, x=state.x, run=state.run), plan=plan)
            except InfeasibleProblemError as err:
                with pytest.raises(InfeasibleProblemError) as looped:
                    rhc_step(template, state)
                assert looped.value.reason == err.reason
                return k
            _, state, sol = rhc_step(template, state)
            assert (sol.path, sol.cost, sol.nodes_explored, sol.nodes_pruned) == (
                fresh.path,
                fresh.cost,
                fresh.nodes_explored,
                fresh.nodes_pruned,
            )
            assert sol.trajectory.tobytes() == fresh.trajectory.tobytes()
            ctx = ctx or _context(template)
            assert _context(template) is ctx
        return steps

    def test_loop_through_one_context_matches_fresh_solves(self):
        for name, case, steps in BUILTIN_LOOPS:
            scen = builtin_scenario(name, case=case)
            assert self._loop_matches_fresh_solves(scen.mpc, initial_state(scen.x0), steps) == steps
        rng = np.random.default_rng(19)
        made = 0
        for _ in range(24):
            for template in (random_ocp(rng), random_positive_ocp(rng)):
                state = ControllerState(x=template.x, run=template.run)
                made += self._loop_matches_fresh_solves(template, state, 6)
        assert made >= 150

    def test_linear_bound_is_chosen_per_solve(self):
        # the template qualifies for the linear bound from its x >= 0; a
        # state with a negative coordinate must not take it
        rng = np.random.default_rng(23)
        made = 0
        for k in range(16):
            template = random_positive_ocp(rng)
            n = template.sys.n
            big = 1e6 * (1.0 + max(template.x))
            wide = replace(template.sys, state_set=Polytope.box([-big] * n, [big] * n))
            template = replace(template, sys=wide, enforce_terminal=False)
            x = list(template.x)
            x[k % n] = -1.0 - x[k % n]
            assert _context(template).linear is not None
            made += self._loop_matches_fresh_solves(template, ControllerState(tuple(x), template.run), 4)
        assert made >= 40

    def test_context_is_not_pickled(self):
        scen = builtin_scenario("cancer")
        before = run_closed_loop(scen.mpc, scen.x0, 4)
        assert "_context" not in scen.mpc.__dict__
        copy = pickle.loads(pickle.dumps(scen.mpc))
        assert copy is not scen.mpc and _context(copy) is _context(scen.mpc)
        after = run_closed_loop(copy, scen.x0, 4)
        assert (after.signals, after.costs) == (before.signals, before.costs)

    def test_equal_templates_share_one_context(self):
        for name, case, _ in BUILTIN_LOOPS:
            scen = builtin_scenario(name, case=case)
            copy = scenario_from_dict(scenario_to_dict(scen))
            assert copy.mpc is not scen.mpc and copy.mpc.sys is not scen.sys
            assert _context(copy.mpc) is _context(scen.mpc)
            # x and run are not part of the context, the fields it reads are
            moved = replace(copy.mpc, x=tuple(2.0 * v for v in copy.mpc.x), run=RuleState(1, 1))
            assert _context(moved) is _context(scen.mpc)
            assert _context(replace(scen.mpc, horizon=scen.mpc.horizon + 1)) is not _context(scen.mpc)

    def test_context_cache_is_bounded_and_rebuilds_the_same_context(self):
        template = builtin_scenario("illustrative").mpc
        first = _context(template)
        before = solve_ocp(template)
        for k in range(300):
            cost = CostSpec(template.cost.stage_weights, terminal_weight=2.0 + k)
            _context(replace(template, cost=cost))
        assert _build_context.cache_info().currsize <= CACHE_SIZE == 256
        rebuilt = _context(template)
        assert rebuilt is not first
        after = solve_ocp(template)
        assert (after.path, after.cost, after.nodes_explored, after.nodes_pruned) == (
            before.path,
            before.cost,
            before.nodes_explored,
            before.nodes_pruned,
        )
        assert after.trajectory.tobytes() == before.trajectory.tobytes()

    def test_builtin_loops_pin(self):
        # signals, costs, states and node counts of the seven built-in loops,
        # bit for bit
        digest = hashlib.sha256()
        for name, case, steps in BUILTIN_LOOPS:
            scen = builtin_scenario(name, case=case)
            record = run_closed_loop(scen.mpc, scen.x0, steps)
            effort = (record.signals, record.costs, record.nodes_explored, record.nodes_pruned)
            digest.update(repr(effort).encode())
            digest.update(record.states.tobytes())
        assert digest.hexdigest() == (
            "819e66a7e19acdbc88c4fbf517b6ca4e3c15339a8ba20082510cdce4face375c"
        )
