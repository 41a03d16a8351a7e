import numpy as np
import pytest
from scipy.linalg import expm

from swmpc import (
    build_cancer_system,
    build_illustrative_system,
    build_viral_system,
    builtin_names,
    builtin_scenario,
    scenario_from_dict,
    scenario_to_dict,
    simulate,
    total_load,
)
from swmpc.scenarios import (
    CANCER_DRUGS,
    CANCER_MATRICES,
    CANCER_X0,
    CLEARANCE_RATE,
    MUTATION_GRAPH,
    MUTATION_RATE,
    SAMPLING_DAYS,
    VIRAL_RATES,
    VIRAL_X0,
)

SCHEMA_KEYS = {
    "kind",
    "matrices",
    "waiting",
    "x0",
    "tau_days",
    "horizon_steps",
    "cost",
    "target",
}


class TestMatrixExponential:
    def test_diagonal_closed_form(self):
        d = np.array([-5.32, 1.12, -6.44, 0.84])
        A = expm(np.diag(d))
        assert np.allclose(np.diag(A), np.exp(d), rtol=1e-12)
        off = A - np.diag(np.diag(A))
        assert np.max(np.abs(off)) < 1e-15

    def test_nilpotent_closed_form(self):
        Z = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(expm(Z), [[1.0, 1.0], [0.0, 1.0]], rtol=1e-12, atol=1e-15)

    def test_semigroup_property_on_scenario_generators(self):
        for sid in (1, 2):
            for rates in VIRAL_RATES[sid]:
                Z = (
                    np.diag(rates)
                    - CLEARANCE_RATE * np.eye(4)
                    + MUTATION_RATE * MUTATION_GRAPH
                ) * SAMPLING_DAYS
                left = expm(Z) @ expm(Z)
                right = expm(2.0 * Z)
                assert np.allclose(left, right, rtol=1e-9, atol=1e-12)


class TestViralSystem:
    def test_invalid_scenario_id(self):
        with pytest.raises(ValueError):
            build_viral_system(3)

    def test_initial_condition_formula(self):
        assert np.allclose(VIRAL_X0, [1000.0, 0.1, 0.1, 2e-5])
        assert total_load(VIRAL_X0) == pytest.approx(1000.20002, abs=1e-9)

    def test_mutation_graph_pattern(self):
        M = MUTATION_GRAPH
        assert np.array_equal(M, M.T)
        assert np.all(np.diag(M) == 0)
        assert np.array_equal(
            M, [[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]]
        )
        assert np.all(M.sum(axis=1) == 2)

    def test_dominant_diagonal_matches_scalar_exponential(self):
        sys_ = build_viral_system(1)
        a11 = sys_.matrices[0][0, 0]
        # mutation coupling perturbs the decoupled exponential by ~1.2e-4 relative
        assert a11 == pytest.approx(np.exp((0.05 - 0.24) * 28.0), rel=2e-4)

    def test_off_diagonal_mass_small_but_positive(self):
        sys_ = build_viral_system(1)
        for A in sys_.matrices:
            off = A - np.diag(np.diag(A))
            assert np.all(A > 0.0)  # Metzler generator: strictly positive propagator
            assert np.max(off.sum(axis=1)) < 1e-2

    def test_decision_steps(self):
        assert builtin_scenario("viral-2").horizon_steps == 12


class TestCancerSystem:
    def test_matrix_literals_bit_exact(self):
        sys_ = build_cancer_system()
        assert np.array_equal(
            sys_.matrices[0], [[0.755, 0.081], [0.169, 0.843]]
        )
        assert np.array_equal(sys_.matrices[1], [[0.896, 0.0], [0.186, 1.083]])
        assert np.array_equal(sys_.matrices[2], [[1.030, 0.231], [0.022, 0.821]])
        assert CANCER_DRUGS == ("P", "B", "T")
        assert sys_.waiting == ((2, 4), (2, 8), (2, 6))

    def test_stability_classification(self):
        sys_ = build_cancer_system()
        radii = [np.max(np.abs(np.linalg.eigvals(A))) for A in sys_.matrices]
        assert radii[0] == pytest.approx(0.924, abs=5e-4)
        assert radii[0] < 1.0
        assert radii[1] > 1.0 and radii[1] == pytest.approx(1.083, abs=1e-12)
        assert radii[2] > 1.0

    def test_one_step_of_combination_drug(self):
        sys_ = build_cancer_system()
        res = simulate(sys_, CANCER_X0, [CANCER_DRUGS.index("P") + 1])
        assert np.allclose(res.states[1], [215.672, 553.096], atol=1e-12)

    def test_total_load_sum(self):
        assert total_load([0.0, 0.0, 0.0, 0.0]) == 0.0
        assert total_load([220.0, 612.0]) == 832.0

    def test_building_leaves_the_module_matrices_writable(self):
        scen = builtin_scenario("cancer")
        assert all(M.flags.writeable for M in CANCER_MATRICES.values())
        assert not any(M.flags.writeable for M in scen.sys.matrices)


class TestIllustrativeSystem:
    def test_rotation_subsystems(self):
        sys_ = build_illustrative_system()
        theta = 2.0 * np.pi / 5.0
        assert np.allclose(sys_.matrices[1] @ [1.0, 0.0], [1.1 * np.cos(theta), 1.1 * np.sin(theta)])
        assert np.allclose(
            sys_.matrices[2] @ [1.0, 0.0],
            [1.05 * np.cos(theta - 1.0), 1.05 * np.sin(theta - 1.0)],
        )

    def test_no_subsystem_is_schur(self):
        sys_ = build_illustrative_system()
        for A in sys_.matrices:
            assert np.max(np.abs(np.linalg.eigvals(A))) > 1.0


class TestScenarioSchema:
    @pytest.mark.parametrize("name", ["viral-1", "viral-2", "cancer", "illustrative"])
    def test_schema_keys_present(self, name):
        data = scenario_to_dict(builtin_scenario(name))
        assert SCHEMA_KEYS.issubset(data.keys())
        assert data["kind"] in ("viral", "cancer", "custom")
        assert set(data["cost"]) == {"stage", "terminal", "consecutive"}

    @pytest.mark.parametrize("name", ["viral-1", "viral-2", "cancer", "illustrative"])
    def test_round_trip_preserves_dynamics(self, name):
        scen = builtin_scenario(name)
        again = scenario_from_dict(scenario_to_dict(scen))
        assert again.kind == scen.kind
        assert again.horizon_steps == scen.horizon_steps
        assert again.mpc.horizon == scen.mpc.horizon
        assert again.mpc.enforce_waiting == scen.mpc.enforce_waiting
        assert again.mpc.enforce_terminal == scen.mpc.enforce_terminal
        assert again.mpc.cycle_through_all == scen.mpc.cycle_through_all
        assert np.allclose(again.x0, scen.x0)
        for A, B in zip(scen.sys.matrices, again.sys.matrices):
            assert np.array_equal(A, B)
        assert again.sys.waiting == scen.sys.waiting
        path = [1] * 3
        a = simulate(scen.sys, scen.x0, path).states
        b = simulate(again.sys, again.x0, path).states
        assert np.array_equal(a, b)

    def test_builtin_names_stable(self):
        assert set(builtin_names()) == {"viral-1", "viral-2", "cancer", "illustrative"}

    def test_cancer_cases_are_presets(self):
        base = builtin_scenario("cancer")
        case3 = builtin_scenario("cancer", case=3)
        assert base.mpc.cycle_through_all and not case3.mpc.cycle_through_all
        assert case3.mpc.cost.consecutive_weights == (20.0, 1.0, 2.0)
        assert all(up >= 10**6 for _, up in case3.sys.waiting)
        assert all(lo == 2 for lo, _ in case3.sys.waiting)
