import numpy as np
import pytest

from swmpc import (
    CostSpec,
    CyclicSchedule,
    EnumerationCapError,
    OcpProblem,
    Polytope,
    SwitchedSystem,
    brute_force_optimal,
    builtin_scenario,
    performance_index,
    run_closed_loop,
    run_cycle,
    swatch_strategy,
    total_load,
    virologic_failure_strategy,
)

from .oracles import min_load_path


def scalar_system(*gains):
    return SwitchedSystem(
        matrices=tuple(np.array([[g]]) for g in gains),
        state_set=Polytope.box([-1e12], [1e12]),
    )


def _closed_loop(sys_, x0, steps):
    problem = OcpProblem(sys_, x0, horizon=2, target=Polytope.box([-1.0], [1.0]),
                         cost=CostSpec.uniform(sys_.q))
    return run_closed_loop(problem, steps)


@pytest.mark.parametrize(
    "run",
    [
        brute_force_optimal,
        virologic_failure_strategy,
        swatch_strategy,
        lambda sys_, x0, steps: run_cycle(sys_, x0, CyclicSchedule(((1, 2), (2, 1))), steps),
        _closed_loop,
    ],
    ids=["optimal", "vf", "swatch", "cycle", "closed-loop"],
)
def test_negative_steps_rejected(run):
    with pytest.raises(ValueError, match="steps must be >= 0"):
        run(scalar_system(0.5, 2.0), [1.0], -3)


class TestBruteForce:
    def test_zero_steps(self):
        sys_ = scalar_system(0.5, 2.0)
        res = brute_force_optimal(sys_, [3.0], 0)
        assert len(res.signals) == 0
        assert res.index == 3.0

    def test_scalar_four_leaf_enumeration(self):
        sys_ = scalar_system(0.5, 2.0)
        res = brute_force_optimal(sys_, [1.0], 2)
        assert res.signals == (1, 1)
        assert res.index == pytest.approx(1.75, abs=1e-12)

    def test_lexicographic_tie_break(self):
        sys_ = scalar_system(0.5, 0.5)
        res = brute_force_optimal(sys_, [1.0], 3)
        assert res.signals == (1, 1, 1)

    def test_cap_exceeded(self):
        sys_ = scalar_system(0.5, 2.0)
        with pytest.raises(EnumerationCapError):
            brute_force_optimal(sys_, [1.0], 21)

    def test_oracle_dominance(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            gains = rng.uniform(0.3, 1.8, size=2)
            sys_ = scalar_system(*gains)
            x0 = [float(rng.uniform(0.5, 3.0))]
            T = 6
            best = brute_force_optimal(sys_, x0, T)
            assert best.index <= virologic_failure_strategy(sys_, x0, T).index + 1e-12
            assert best.index <= swatch_strategy(sys_, x0, T).index + 1e-12
            cyc = run_cycle(sys_, x0, CyclicSchedule(((1, 2), (2, 1))), T)
            assert best.index <= cyc.index + 1e-12


def random_positive_family(rng):
    """Nonnegative matrices, some exact duplicates or rounded, T <= 8 and x0
    over 10^-3..10^8."""
    n, q, T = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(0, 9))
    mats = []
    for _ in range(q):
        A = rng.uniform(0.0, 1.0, size=(n, n)) * (rng.random((n, n)) < 0.7)
        eig = np.max(np.abs(np.linalg.eigvals(A)))
        if eig > 1e-6:
            A = A * (float(rng.uniform(0.3, 1.6)) / eig)
        if rng.random() < 0.2:
            A = np.round(A, 1)
        mats.append(A)
    if q >= 2 and rng.random() < 0.3:
        i, j = (int(v) for v in rng.choice(q, size=2, replace=False))
        mats[j] = mats[i].copy()
    x0 = 10.0 ** float(rng.uniform(-3.0, 8.0)) * rng.uniform(0.0, 1.0, size=n)
    sys_ = SwitchedSystem(matrices=tuple(mats), state_set=Polytope.nonnegative_orthant(n))
    return sys_, [float(v) for v in x0], T


class TestOptimalAgainstOracle:
    def test_matches_min_load_path(self):
        rng = np.random.default_rng(4242)
        for i in range(300):
            sys_, x0, T = random_positive_family(rng)
            load, signals = min_load_path(sys_.matrices, x0, T)
            res = brute_force_optimal(sys_, x0, T)
            assert res.signals == signals, f"instance {i}"
            assert res.index == load, f"instance {i}"

    def test_state_constraint_is_ignored(self):
        # like the exhaustive search it replaces, the optimum ranges over all
        # q^T sequences, also those that leave the state set
        sys_ = SwitchedSystem(
            matrices=(np.array([[3.0]]), np.array([[0.5]])),
            state_set=Polytope.box([0.0], [2.0]),
        )
        assert brute_force_optimal(sys_, [1.0], 3).signals == (2, 2, 2)
        grow = SwitchedSystem(matrices=(np.array([[3.0]]),), state_set=sys_.state_set)
        res = brute_force_optimal(grow, [1.0], 2)
        assert res.signals == (1, 1) and res.index == 13.0

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            brute_force_optimal(scalar_system(0.5, -0.5), [1.0], 3)
        with pytest.raises(ValueError, match="nonnegative"):
            brute_force_optimal(scalar_system(0.5, 0.7), [-1.0], 3)


class TestVirologicFailure:
    def test_quiet_trajectory_keeps_first_regimen(self):
        sys_ = scalar_system(0.5, 2.0)
        res = virologic_failure_strategy(sys_, [100.0], 6)
        assert res.signals == (1,) * 6

    def test_strictly_above_threshold_switches(self):
        sys_ = scalar_system(1000.01, 0.5)
        res = virologic_failure_strategy(sys_, [1.0], 3)
        assert res.signals[0] == 1
        assert res.signals[1] == 2  # total hits 1000.01 > 1000 at step 1

    def test_threshold_is_strict(self):
        sys_ = scalar_system(1000.0, 0.5)
        res = virologic_failure_strategy(sys_, [1.0], 2)
        assert res.signals[1] == 1  # exactly 1000 does not trigger

    def test_initial_instant_never_switches(self):
        sys_ = scalar_system(0.001, 2.0)
        res = virologic_failure_strategy(sys_, [5000.0], 2)
        assert res.signals[0] == 1

    def test_changes_only_when_threshold_exceeded(self):
        sys_ = scalar_system(1.4, 0.5)
        res = virologic_failure_strategy(sys_, [300.0], 10)
        for k in range(1, len(res.signals)):
            if res.signals[k] != res.signals[k - 1]:
                assert total_load(res.states[k]) > 1000.0

    def test_requires_two_regimens(self):
        sys_ = scalar_system(0.5)
        with pytest.raises(ValueError):
            virologic_failure_strategy(sys_, [1.0], 3)


class TestSwatch:
    def test_period_one(self):
        sys_ = scalar_system(1.0, 1.0)
        res = swatch_strategy(sys_, [1.0], 4, period=1)
        assert res.signals == (1, 2, 1, 2)

    def test_period_three_full_year(self):
        sys_ = scalar_system(1.0, 1.0)
        res = swatch_strategy(sys_, [1.0], 12)
        assert res.signals == (1, 1, 1, 2, 2, 2, 1, 1, 1, 2, 2, 2)

    def test_long_period_unrolls_only_the_steps(self):
        sys_ = scalar_system(1.0, 1.0)
        res = swatch_strategy(sys_, [1.0], 4, period=10**15)
        assert res.signals == (1, 1, 1, 1)

    def test_period_validation(self):
        sys_ = scalar_system(1.0, 1.0)
        with pytest.raises(ValueError):
            swatch_strategy(sys_, [1.0], 4, period=0)


class TestRunCycle:
    def test_single_block_constant(self):
        sys_ = scalar_system(0.9, 1.1)
        res = run_cycle(sys_, [1.0], CyclicSchedule(((1, 1),)), 5)
        assert res.signals == (1,) * 5

    def test_truncated_unroll(self):
        sys_ = scalar_system(0.9, 1.1)
        res = run_cycle(sys_, [1.0], CyclicSchedule(((1, 2), (2, 1))), 5)
        assert res.signals == (1, 1, 2, 1, 1)

    def test_cancer_reference_cycle_two_rounds(self):
        mats = (
            np.array([[0.755, 0.081], [0.169, 0.843]]),
            np.array([[0.896, 0.0], [0.186, 1.083]]),
            np.array([[1.030, 0.231], [0.022, 0.821]]),
        )
        sys_ = SwitchedSystem(
            matrices=mats, state_set=Polytope.nonnegative_orthant(2)
        )
        res = run_cycle(sys_, [220.0, 612.0], CyclicSchedule(((1, 4), (3, 2), (2, 2))), 16)
        assert res.signals == (1, 1, 1, 1, 3, 3, 2, 2) * 2

    def test_block_validation(self):
        with pytest.raises(ValueError):
            CyclicSchedule(((1, 0),))


class TestPerformanceIndex:
    def test_single_state(self):
        assert performance_index([[1.0, 2.0, 3.0, 4.0]]) == 10.0

    def test_two_states(self):
        assert performance_index([[1, 0, 0, 0], [0.5, 0, 0, 0]]) == 1.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            performance_index([])

    def test_additive_over_concatenation(self):
        rng = np.random.default_rng(8)
        traj = rng.uniform(0, 5, size=(9, 3))
        whole = performance_index(traj)
        first = performance_index(traj[:5])
        second = performance_index(traj[4:])
        junction = float(np.sum(traj[4]))
        assert whole == pytest.approx(first + second - junction, rel=1e-12)


def test_solves_go_through_the_controller_module(monkeypatch):
    # one binding sees every solve: each closed-loop step's and the optimal schedule's
    import swmpc.controller

    calls = []
    real = swmpc.controller.solve_ocp

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(swmpc.controller, "solve_ocp", counting)
    scen = builtin_scenario("viral-1")
    run_closed_loop(scen.mpc, 3)
    assert len(calls) == 3
    brute_force_optimal(scen.sys, scen.x0, 4)
    assert len(calls) == 4
