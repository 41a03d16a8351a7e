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
    distance_to_set,
    eval_cost,
    initial_state,
    rhc_step,
    run_closed_loop,
    packs,
    simulate,
    solve_ocp,
    validate_waiting,
)
from swmpc.controller import (
    STATE_TOL, TERMINAL_TOL, _build_context, _child_step, _context, _member
)
from swmpc.geometry import UNIT_NORM_TOL, as_union
from swmpc.scenarios import scenario_from_dict, scenario_to_dict
from swmpc.switched import CACHE_SIZE, UNBOUNDED_DWELL, SwitchingRule

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
from .test_switched import STATES, bits, left_to_right


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
        assert np.allclose(simulate(prob.sys, prob.x, sol.path).states[:, 0], [2.0, 1.0])

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
            assert np.array_equal(traj, simulate(prob.sys, prob.x, sol.path).states)

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
            traj = simulate(prob.sys, prob.x, sol.path).states
            for j in range(prob.horizon):
                assert prob.sys.state_set.contains(traj[j], tol=1e-9)
            if prob.enforce_terminal:
                assert prob.target.contains(traj[-1], tol=1e-9)

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
        record = run_closed_loop(cfg, 8)
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
            run_closed_loop(cfg, 5)
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
        record = run_closed_loop(cfg, 6)
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
        record = run_closed_loop(cfg, 10)
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
            run_closed_loop(scen.mpc, -1)

    def test_non_finite_closed_loop_start_rejected(self):
        scen = builtin_scenario("cancer")
        with pytest.raises(ValueError, match="finite"):
            run_closed_loop(replace(scen.mpc, x=(float("nan"), 1.0)), 2)

    def test_cycle_coverage_counts_the_memory_run(self):
        # the applied run of drug 3 uses drug 3: drugs 1 and 2 must both
        # come before drug 3 is given again
        scen = builtin_scenario("cancer")
        template = replace(scen.mpc, run=RuleState(3, 2))
        record = run_closed_loop(template, 12)
        assert _cycle_ok(template, record.signals)

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
        record = run_closed_loop(scen.mpc, 72)
        assert sum(record.nodes_explored) <= 3000
        expected = "111133221111332211113322111133221111332211113322111133221111332211113322"
        assert "".join(map(str, record.signals)) == expected


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
        # each step after the first is warm-started from the branch the last
        # solve carried
        state = ControllerState(x=template.x, run=template.run)
        for _ in range(4):
            oracle = enumerate_ocp(replace(template, x=state.x, run=state.run))
            try:
                _, state, sol = rhc_step(template, state)
            except InfeasibleProblemError:
                assert oracle is None
                return
            assert (sol.cost, sol.path) == oracle


class TestCarriedWarmStart:
    def test_illustrative_loop_node_pin(self):
        # the carried branch cuts the 30-step loop from 44,388 nodes, with
        # every step warm-started from its x alone, to 16,116
        scen = builtin_scenario("illustrative")
        record = run_closed_loop(scen.mpc, 30)
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
                member, union_member = _child_step(None, P, tol), _member(as_union(P), tol)
                for x in _membership_points(P, tol, rng):
                    expected = P.contains(x, tol)
                    assert member(x) is expected, (P.H.tolist(), P.h.tolist(), x)
                    assert union_member(x) is expected
                    verdicts.add((expected, all(map(math.isfinite, x))))
        assert verdicts == {(True, True), (False, True), (True, False), (False, False)}
        # 0 * inf = NaN in another row's sum rejects any non-finite coordinate
        # in n >= 2; in 1-D, +inf passes a lower-bound-only row
        orthant = Polytope.nonnegative_orthant(2)
        assert not _child_step(None, orthant, STATE_TOL)((math.inf, 1.0))
        assert _child_step(None, Polytope.box([-1.0], [math.inf]), STATE_TOL)((math.inf,))

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
        fresh solve of the same problem from the same branch; returns the
        number of steps made."""
        ctx = None
        for k in range(steps):
            try:
                fresh = solve_ocp(replace(template, x=state.x, run=state.run), _carry=[state._branch])
            except InfeasibleProblemError as err:
                with pytest.raises(InfeasibleProblemError) as looped:
                    rhc_step(template, state)
                assert looped.value.reason == err.reason
                return k
            x = state.x
            _, state, sol = rhc_step(template, state)
            assert (sol.path, sol.cost, sol.nodes_explored, sol.nodes_pruned) == (
                fresh.path,
                fresh.cost,
                fresh.nodes_explored,
                fresh.nodes_pruned,
            )
            # the applied step lands on the fresh optimum's first predicted state
            predicted = simulate(template.sys, x, fresh.path).states
            assert np.array(state.x).tobytes() == predicted[1].tobytes()
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
        before = run_closed_loop(scen.mpc, 4)
        assert "_context" not in scen.mpc.__dict__
        copy = pickle.loads(pickle.dumps(scen.mpc))
        assert copy is not scen.mpc and _context(copy) is _context(scen.mpc)
        after = run_closed_loop(copy, 4)
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
        predicted = [simulate(template.sys, template.x, sol.path).states for sol in (after, before)]
        assert predicted[0].tobytes() == predicted[1].tobytes()

    def test_builtin_loops_pin(self):
        # signals, costs, states and node counts of the seven built-in loops,
        # bit for bit
        digest = hashlib.sha256()
        for name, case, steps in BUILTIN_LOOPS:
            scen = builtin_scenario(name, case=case)
            record = run_closed_loop(scen.mpc, steps)
            effort = (record.signals, record.costs, record.nodes_explored, record.nodes_pruned)
            digest.update(repr(effort).encode())
            digest.update(record.states.tobytes())
        assert digest.hexdigest() == (
            "819e66a7e19acdbc88c4fbf517b6ca4e3c15339a8ba20082510cdce4face375c"
        )


def _step_matches_fresh(template, state, stale=True):
    """rhc_step at `state` checked against a fresh, unguided solve of the same
    problem: the same path and cost, and the same node counts where the branch
    that `state` carries is stale, so that rhc_step starts unguided too; or the
    same infeasibility.  Returns the next state, or None when both are
    infeasible."""
    try:
        fresh = solve_ocp(replace(template, x=state.x, run=state.run))
    except InfeasibleProblemError as err:
        with pytest.raises(InfeasibleProblemError) as looped:
            rhc_step(template, state)
        assert looped.value.reason == err.reason
        return None
    _, state, sol = rhc_step(template, state)
    got = (sol.path, sol.cost, sol.nodes_explored, sol.nodes_pruned)
    want = (fresh.path, fresh.cost, fresh.nodes_explored, fresh.nodes_pruned)
    assert got == want if stale else got[:2] == want[:2]
    return state


def _step_matches_enumeration(template, state):
    """rhc_step at `state` against `enumerate_ocp`: the same path and cost, or
    infeasibility.  Returns the next state, or None when infeasible."""
    oracle = enumerate_ocp(replace(template, x=state.x, run=state.run))
    try:
        _, state, sol = rhc_step(template, state)
    except InfeasibleProblemError:
        assert oracle is None
        return None
    assert (sol.cost, sol.path) == oracle
    return state


def _carried_end(template, state) -> str | None:
    """Where the warm start from the branch that `state` carries ends: "X"
    when the old leaf leaves X, "last" when the rule admits no signal at the
    new last depth, "terminal" when the lookahead's leaf misses the target,
    else "taken"; None without a branch."""
    branch, sys_ = state._branch, template.sys
    if branch is None:
        return None
    leaf = branch.leaf
    if not sys_.state_set.contains(leaf, STATE_TOL):
        return "X"
    rule = SwitchingRule(sys_, template.enforce_waiting, template.cycle_through_all)
    sig, length, used = replace(template, x=state.x, run=state.run).run
    for s in branch.tail:
        length, used = rule.next(s, sig, length, used)  # a loop's own branch is admissible
        sig = s
    keys = [
        (distance_to_set(template.target, sys_.product(s)(leaf)), s)
        for s in range(1, sys_.q + 1)
        if rule.next(s, sig, length, used) is not None
    ]
    if not keys:
        return "last"
    y = sys_.product(min(keys)[1])(leaf)
    if template.enforce_terminal and not template.target.contains(y, TERMINAL_TOL):
        return "terminal"
    return "taken"


class TestCarriedBranch:
    """Each rhc_step warm-starts from the branch that the last solve searched.
    Where that branch does not match the step, it must give what an unguided
    fresh solve gives, node for node; where it does, the enumeration optimum."""

    def test_branch_of_another_template_is_not_carried(self):
        # distances to the first target would give a warm cost below the
        # optimum for the second, and prune the optimum away
        scen = builtin_scenario("illustrative")
        moved = replace(scen.mpc, target=as_union(Polytope.box([0.2, -0.3], [0.4, -0.1])))
        rng = np.random.default_rng(5)
        for _ in range(40):
            r, theta = rng.uniform(0.2, 1.0), rng.uniform(0.0, 2.0 * np.pi)
            state = initial_state((r * np.cos(theta), r * np.sin(theta)))
            for _ in range(3):
                state = _step_matches_fresh(scen.mpc, state, stale=False)
                assert state._branch is not None
            _step_matches_fresh(moved, state)

    def test_branch_of_another_state_or_run_is_not_carried(self):
        scen = builtin_scenario("illustrative")
        rng = np.random.default_rng(6)
        for _ in range(20):
            r, theta = rng.uniform(0.2, 1.0), rng.uniform(0.0, 2.0 * np.pi)
            state = initial_state((r * np.cos(theta), r * np.sin(theta)))
            for _ in range(3):
                _, state, _ = rhc_step(scen.mpc, state)
            moved = replace(state, x=tuple(-0.5 * v for v in state.x))
            assert moved._branch is state._branch
            _step_matches_fresh(scen.mpc, moved)
        # under dwell bounds and cycle coverage the branch's rule states hold
        # only for the run that it was searched from
        scen = builtin_scenario("cancer")
        state = initial_state(scen.x0)
        for _ in range(12):
            _, state, _ = rhc_step(scen.mpc, state)
            sig, length, used = state.run
            for run in (RuleState(sig, length + 1, used), RuleState(sig % 3 + 1, 1)):
                _step_matches_fresh(scen.mpc, replace(state, run=run))

    def test_carried_warm_start_matches_fresh_solves_where_it_breaks(self):
        rng = np.random.default_rng(41)
        ends = dict.fromkeys(("X", "last", "terminal", "taken"), 0)
        for loop in range(90):
            template = random_ocp(rng)
            if loop % 3 == 0:
                # X keeps the states away from the origin, which the leaves,
                # unchecked, approach
                box, x0 = template.sys.state_set, np.asarray(template.x)
                cut = Polytope(np.vstack([box.H, -x0]), np.append(box.h, -0.25 * x0 @ x0))
                template = replace(
                    template, sys=replace(template.sys, state_set=cut), enforce_terminal=False
                )
            elif loop % 3 == 1:
                # one signal: its run meets its upper dwell bound at the last depth
                sys_ = replace(template.sys, matrices=template.sys.matrices[:1],
                               waiting=template.sys.waiting[:1])
                template = OcpProblem(sys_, template.x, template.horizon, template.target,
                                      CostSpec(template.cost.stage_weights[:1]))
            else:
                template = replace(template, enforce_terminal=True)
            state = ControllerState(template.x, template.run)
            for _ in range(8):
                end = _carried_end(template, state)
                if end is not None:
                    ends[end] += 1
                if end in (None, "X"):  # no branch, or one dropped: an unguided start
                    _step_matches_fresh(template, state)
                state = _step_matches_enumeration(template, state)
                if state is None:
                    break
        assert min(ends.values()) >= 1, ends

    @pytest.mark.parametrize("bad", [(math.nan, 0.5), (0.5, -math.inf), (0.5,), (0.5, 0.5, 0.5)])
    def test_carried_branch_keeps_the_state_check(self, bad):
        scen = builtin_scenario("illustrative")
        state = initial_state(scen.x0)
        for _ in range(2):
            _, state, _ = rhc_step(scen.mpc, state)
        moved = replace(state, x=bad)
        assert moved._branch is state._branch is not None
        with pytest.raises(ValueError) as expected:
            replace(scen.mpc, x=bad)
        with pytest.raises(ValueError) as got:
            rhc_step(scen.mpc, moved)
        assert str(got.value) == str(expected.value)

    def test_branch_is_left_out_of_equality_repr_and_pickling(self):
        scen = builtin_scenario("cancer")
        state = initial_state(scen.x0)
        for _ in range(3):
            _, state, _ = rhc_step(scen.mpc, state)
        copy = pickle.loads(pickle.dumps(state))
        assert state._branch is not None and copy._branch is None
        assert copy == state and repr(copy) == repr(state) == repr(replace(state, _branch=None))
        # without the branch the warm start steps from x0: the same step, by
        # another search
        s, after, sol = rhc_step(scen.mpc, state)
        s_copy, after_copy, sol_copy = rhc_step(scen.mpc, copy)
        assert (s_copy, after_copy, sol_copy.path, sol_copy.cost) == (s, after, sol.path, sol.cost)

    @pytest.mark.parametrize("name, steps", [("cancer", 72), ("illustrative", 30)])
    def test_pickled_state_continues_the_same_loop(self, name, steps):
        scen = builtin_scenario(name)
        live = initial_state(scen.x0)
        for _ in range(3):
            _, live, _ = rhc_step(scen.mpc, live)
        copy = pickle.loads(pickle.dumps(live))
        assert copy._branch is None
        for k in range(3, steps):
            s, live, sol = rhc_step(scen.mpc, live)
            s_copy, copy, sol_copy = rhc_step(scen.mpc, copy)
            assert (s_copy, sol_copy.path, sol_copy.cost) == (s, sol.path, sol.cost)
            assert np.array(copy.x).tobytes() == np.array(live.x).tobytes()
            assert copy.run == live.run
            if k > 3:  # the first step searches unguided, the later ones from equal branches
                assert (sol_copy.nodes_explored, sol_copy.nodes_pruned) == (
                    sol.nodes_explored, sol.nodes_pruned
                )


def _reference_step(M: np.ndarray, X: Polytope, tol: float, x: tuple) -> tuple | None:
    """M x when every row sum of X at it, taken left to right from 0.0, is at
    most b + tol, else None."""
    y = left_to_right(M, x)
    for row, b in zip(X.H.tolist(), X.h.tolist()):
        s = 0.0
        for a, yi in zip(row, y):
            s += a * yi
        if not s <= b + tol:
            return None
    return y


def _doubled_preimage(p: tuple) -> tuple:
    """x with 2 x = p: the product by 2I overflows +-1.5e308 to +-inf, so that
    one coordinate of y can be infinite while the others stay finite (an
    infinite x would make them 0 * inf = NaN)."""
    return tuple(v / 2.0 if math.isfinite(v) or v != v else math.copysign(1.5e308, v) for v in p)


def _polygon_points(X: Polytope, tol: float, rng: np.random.Generator) -> list[tuple]:
    """Points on each row's planes a.y = b - tol, b, b + tol and b + 2 tol,
    nudged a few ulps per coordinate, with coordinates swapped for zeros,
    huge, infinite or NaN values, and random mixes of such values."""
    n = X.dim
    special = [0.0, -0.0, 0.5, -2.0, 1e300, -1e300, math.inf, -math.inf, math.nan]
    points = [tuple(float(v) for v in rng.choice(special, n)) for _ in range(300)]
    for row, b in zip(X.H.tolist(), X.h.tolist()):
        for level in (b - tol, b, b + tol, b + 2.0 * tol):
            base = [level * a for a in row]  # rows have unit norm
            for _ in range(12):
                p = list(base)
                for k in range(n):
                    for _ in range(int(rng.integers(0, 4))):
                        p[k] = math.nextafter(p[k], math.copysign(math.inf, rng.normal()))
                points.append(tuple(p))
            for k in range(n):
                for v in special:
                    points.append(tuple(v if i == k else base[i] for i in range(n)))
    return points


# non-box state sets: a bounded triangle; a wedge that no row bounds below
# along its second axis, alone and with a row that has a zero coefficient on
# that axis; and a 3-D set with zero coefficients in some rows
POLYGONS = (
    Polytope(np.array([[1.0, 1.0], [-1.0, 2.0], [0.5, -3.0]]), np.array([1.0, 2.0, 0.5])),
    Polytope(np.array([[1.0, 1.0], [-2.0, 1.0]]), np.array([1.0, 0.25])),
    Polytope(np.array([[1.0, 1.0], [1.0, 0.0], [-2.0, 1.0]]), np.array([1.0, 0.5, 0.25])),
    Polytope(np.array([[1.0, 0.0, 1.0], [0.0, -1.0, 2.0], [-1.0, 1.0, 0.0]]), np.array([1.0, 0.5, 2.0])),
)


class TestChildStep:
    """`_child_step` against `_reference_step`, compared as packed bytes."""

    @staticmethod
    def _check(X: Polytope, tol: float, points: list[tuple]) -> set:
        """Steps every point through I (y = x, but for -0.0 -> 0.0 and 0 * inf
        in other coordinates) and every doubled preimage through 2I (y = p
        but for NaN); returns the (member, finite) classes of the y seen."""
        n = X.dim
        classes = set()
        for M, preimage in ((np.eye(n), tuple), (2.0 * np.eye(n), _doubled_preimage)):
            step = _child_step(M, X, tol)
            for p in points:
                p = tuple(map(float, p))
                x = preimage(p)
                expected = _reference_step(M, X, tol, x)
                got = step(x)
                assert (got is None) is (expected is None), (X.H.tolist(), X.h.tolist(), M.tolist(), x)
                if got is not None:
                    assert bits(got) == bits(expected)
                y = left_to_right(M, x)
                # the point itself was stepped to, up to the sign of 0, where
                # halving it was exact
                if M[0, 0] == 2.0 and all(v == 0.0 or abs(v) >= 1e-300 for v in p):
                    assert y == p
                classes.add((expected is not None, all(map(math.isfinite, y))))
        return classes

    def test_boxes_match_the_row_sums(self):
        rng = np.random.default_rng(29)
        classes = set()
        for tol in (STATE_TOL, TERMINAL_TOL):
            for P in _membership_boxes():
                classes |= self._check(P, tol, _membership_points(P, tol, rng))
        assert classes == {(True, True), (False, True), (True, False), (False, False)}
        # in 1-D, +inf passes a lower-bound-only row; in the orthant of R^2 the
        # other row's 0 * inf is NaN
        step = _child_step(np.eye(1), Polytope.box([-1.0], [math.inf]), STATE_TOL)
        assert step((math.inf,)) == (math.inf,)
        assert _child_step(2.0 * np.eye(2), Polytope.nonnegative_orthant(2), STATE_TOL)((1.5e308, 1.0)) is None

    def test_polygons_match_the_row_sums(self):
        rng = np.random.default_rng(37)
        for X in POLYGONS:
            classes = self._check(X, STATE_TOL, _polygon_points(X, STATE_TOL, rng))
            assert {(True, True), (False, True), (False, False)} <= classes
        # y = (0, -inf) passes every row's nonzero terms of both wedges, but
        # the second one's 0 * -inf is NaN
        x = (0.0, -1.5e308)
        wedge, cut = POLYGONS[1], POLYGONS[2]
        assert wedge.contains((0.0, -math.inf), STATE_TOL)
        assert _child_step(2.0 * np.eye(2), wedge, STATE_TOL)(x) == (0.0, -math.inf)
        assert not cut.contains((0.0, -math.inf), STATE_TOL)
        assert _child_step(2.0 * np.eye(2), cut, STATE_TOL)(x) is None

    def test_random_matrices_and_state_sets(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            H = rng.normal(size=(int(rng.integers(1, 6)), n))
            H[rng.random(H.shape) < 0.3] = 0.0
            H[~H.any(axis=1), 0] = 1.0
            X = Polytope(H, rng.normal(size=H.shape[0]))
            M = rng.normal(size=(n, n))
            M[rng.random((n, n)) < 0.3] = rng.choice((0.0, -0.0, 1e308))
            step = _child_step(M, X, STATE_TOL)
            for _ in range(40):
                x = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)
                x[rng.random(n) < 0.2] = rng.choice(STATES)
                x = tuple(x.tolist())
                expected, got = _reference_step(M, X, STATE_TOL, x), step(x)
                assert (got is None) is (expected is None), (M.tolist(), H.tolist(), x)
                assert got is None or bits(got) == bits(expected)

    def test_closed_loops_with_a_polygon_state_set_match_enumeration(self):
        # X is the box cut by a random halfspace, or two halfspaces with no box
        # around them, so the search's state pruning runs on a non-box X
        rng = np.random.default_rng(47)
        made = cut = 0
        for loop in range(80):
            template = random_ocp(rng)
            n, box = template.sys.n, template.sys.state_set
            if n == 1:  # every 1-D polytope is a box
                continue
            x0 = np.asarray(template.x)
            a = rng.normal(size=(2, n))
            b = a @ x0 + np.linalg.norm(a, axis=1) * box.h[0] * rng.uniform(0.02, 0.3, size=2)
            if loop % 2:
                X = Polytope(np.vstack([box.H, a[:1]]), np.append(box.h, b[0]))
            else:
                X = Polytope(a, b)
            assert X.box_bounds is None
            template = replace(template, sys=replace(template.sys, state_set=X))
            state = ControllerState(x=template.x, run=template.run)
            for _ in range(6):
                problem = replace(template, x=state.x, run=state.run)
                oracle = enumerate_ocp(problem)
                unconstrained = replace(problem, sys=replace(problem.sys, state_set=Polytope.box(
                    [-1e300] * n, [1e300] * n)))
                cut += oracle != enumerate_ocp(unconstrained)
                if oracle is None:
                    with pytest.raises(InfeasibleProblemError):
                        rhc_step(template, state)
                    break
                _, state, sol = rhc_step(template, state)
                assert (sol.cost, sol.path) == oracle
                made += 1
        assert made >= 100 and cut >= 20, (made, cut)
