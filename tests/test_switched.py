import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swmpc import JPack, Polytope, SwitchedSystem, packs, simulate, validate_waiting
from swmpc.strategies import CyclicSchedule


@pytest.fixture
def cancer_like():
    mats = (
        np.array([[0.755, 0.081], [0.169, 0.843]]),
        np.array([[0.896, 0.0], [0.186, 1.083]]),
        np.array([[1.030, 0.231], [0.022, 0.821]]),
    )
    return SwitchedSystem(
        matrices=mats,
        state_set=Polytope.nonnegative_orthant(2),
        waiting=((2, 4), (2, 8), (2, 6)),
    )


def scalar_system(*gains, waiting=()):
    return SwitchedSystem(
        matrices=tuple(np.array([[g]]) for g in gains),
        state_set=Polytope.box([-1e9], [1e9]),
        waiting=waiting,
    )


def step(sys_, x, sigma):
    """One transition x -> A_sigma x."""
    return simulate(sys_, x, [sigma]).states[-1]


class TestStep:
    def test_identity(self):
        sys_ = SwitchedSystem(
            matrices=(np.eye(2),), state_set=Polytope.box([-10, -10], [10, 10])
        )
        assert np.allclose(step(sys_, [3.0, -2.0], 1), [3.0, -2.0])

    def test_cancer_matrix_product(self, cancer_like):
        out = step(cancer_like, [220.0, 612.0], 2)  # drug B
        assert np.allclose(out, [197.12, 703.716], atol=1e-12)

    def test_illustrative_first_matrix(self):
        sys_ = SwitchedSystem(
            matrices=(np.array([[1.5, 0.0], [0.0, -0.8]]),),
            state_set=Polytope.box([-10, -10], [10, 10]),
        )
        assert np.allclose(step(sys_, [-0.5, 0.5], 1), [-0.75, -0.4], atol=1e-15)

    def test_signal_out_of_range(self, cancer_like):
        with pytest.raises(ValueError):
            step(cancer_like, [1.0, 1.0], 4)

    def test_dimension_mismatch(self, cancer_like):
        with pytest.raises(ValueError):
            step(cancer_like, [1.0, 1.0, 1.0], 1)

    def test_system_freezes_a_copy_of_the_callers_matrices(self):
        A = np.eye(2)
        sys_ = SwitchedSystem((A,), Polytope.box([-1, -1], [1, 1]))
        A[0, 0] = 2.0
        assert sys_.matrices[0][0, 0] == 1.0
        with pytest.raises(ValueError, match="read-only"):
            sys_.matrices[0][0, 0] = 3.0


class TestSimulate:
    def test_empty_path(self, cancer_like):
        res = simulate(cancer_like, [220.0, 612.0], [])
        assert res.states.shape == (1, 2)
        assert np.allclose(res.states[0], [220.0, 612.0])

    def test_scalar_doubling(self):
        sys_ = scalar_system(2.0)
        res = simulate(sys_, [1.0], [1, 1, 1])
        assert np.allclose(res.states[:, 0], [1.0, 2.0, 4.0, 8.0])

    def test_cancer_two_steps_match_matrix_products(self, cancer_like):
        A_P = cancer_like.matrices[0]
        res = simulate(cancer_like, [220.0, 612.0], [1, 1])
        assert np.allclose(res.states[1], A_P @ [220.0, 612.0])
        assert np.allclose(res.states[2], A_P @ (A_P @ [220.0, 612.0]))

    def test_composition_is_exact(self):
        rng = np.random.default_rng(5)
        sys_ = SwitchedSystem(
            matrices=tuple(rng.normal(size=(3, 3)) for _ in range(2)),
            state_set=Polytope.box([-1e6] * 3, [1e6] * 3),
        )
        x0 = rng.normal(size=3)
        p1, p2 = [1, 2, 2, 1], [2, 1, 1]
        whole = simulate(sys_, x0, p1 + p2)
        first = simulate(sys_, x0, p1)
        second = simulate(sys_, first.states[-1], p2)
        assert np.array_equal(whole.states[len(p1):], second.states)


class TestJPack:
    def test_reference_path_inner_pack(self):
        assert packs((1, 2, 2, 2, 3, 3, 2))[1] == JPack(start=1, length=3, signal=2)

    def test_reference_path_final_pack(self):
        assert packs((1, 2, 2, 2, 3, 3, 2))[-1] == JPack(start=6, length=1, signal=2)

    def test_singleton_path(self):
        assert packs((5,)) == [JPack(start=0, length=1, signal=5)]

    @given(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=24))
    def test_packs_partition_the_index_range(self, sigs):
        ps = packs(sigs)
        covered = []
        for p in ps:
            covered.extend(range(p.start, p.stop))
            assert set(sigs[p.start:p.stop]) == {p.signal}
        assert covered == list(range(len(sigs)))
        assert all(a.signal != b.signal for a, b in zip(ps, ps[1:]))  # maximal runs


class TestValidateWaiting:
    def test_unconstrained_always_ok(self):
        sys_ = scalar_system(1.0, 2.0)
        assert validate_waiting(sys_, [1, 2, 1, 1, 2]).ok

    def test_cancer_cycle_path_ok(self, cancer_like):
        # drugs P=1, B=2, T=3: the (P,4),(T,2),(B,2) cycle
        assert validate_waiting(cancer_like, [1, 1, 1, 1, 3, 3, 2, 2]).ok

    def test_upper_violation_reported_at_pack_start(self, cancer_like):
        rep = validate_waiting(cancer_like, [1, 1, 1, 1, 1])
        assert not rep.ok
        assert rep.index == 0
        assert rep.kind == "upper"

    def test_lower_violation(self, cancer_like):
        rep = validate_waiting(cancer_like, [1, 1, 3, 1, 1])
        assert not rep.ok
        assert (rep.index, rep.kind) == (2, "lower")

    def test_relax_trailing_skips_final_lower_bound(self, cancer_like):
        path = [1, 1, 3]
        assert not validate_waiting(cancer_like, path).ok
        assert validate_waiting(cancer_like, path, relax_trailing=True).ok

    @settings(max_examples=50)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=3),
                st.integers(min_value=2, max_value=4),
            ),
            min_size=1,
            max_size=4,
        ),
        st.integers(min_value=1, max_value=3),
    )
    def test_full_cycles_within_bounds_validate_ok(self, raw_blocks, repeats):
        # consecutive equal-signal blocks merge, so keep signals distinct in a cycle
        blocks = []
        for s, h in raw_blocks:
            if blocks and blocks[-1][0] == s:
                continue
            blocks.append((s, h))
        if not blocks or blocks[0][0] == blocks[-1][0] and len(blocks) > 1:
            return
        sys_ = scalar_system(
            1.0, 1.0, 1.0, waiting=((2, 4), (2, 4), (2, 4))
        )
        path = []
        for _ in range(repeats):
            for s, h in blocks:
                path.extend([s] * h)
        if len(blocks) == 1 and repeats > 1:
            return  # single-block cycles merge across repeats
        assert validate_waiting(sys_, path).ok

    def test_cycle_schedule_unroll_matches_validator(self, cancer_like):
        sched = CyclicSchedule(((1, 4), (3, 2), (2, 2)))
        path = sched.unroll(16)
        assert validate_waiting(cancer_like, path).ok


class TestSwitchedSystemValidation:
    def test_matrix_shape_mismatch(self):
        with pytest.raises(ValueError):
            SwitchedSystem(
                matrices=(np.eye(2), np.eye(3)),
                state_set=Polytope.box([-1, -1], [1, 1]),
            )

    def test_waiting_bounds_validated(self):
        with pytest.raises(ValueError):
            SwitchedSystem(
                matrices=(np.eye(1),),
                state_set=Polytope.box([-1], [1]),
                waiting=((3, 2),),
            )

    def test_path_signals_one_based(self, cancer_like):
        with pytest.raises(ValueError):
            simulate(cancer_like, [1.0, 1.0], (0, 1))
        with pytest.raises(ValueError):
            validate_waiting(cancer_like, (0, 1))
