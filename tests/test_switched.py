import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swmpc import (
    JPack,
    Polytope,
    SwitchedSystem,
    builtin_scenario,
    packs,
    run_closed_loop,
    simulate,
    validate_waiting,
)
from swmpc.strategies import CyclicSchedule
from swmpc.switched import _product


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


def left_to_right(M, x):
    """The reference product: each entry summed from 0.0, left to right."""
    out = []
    for row in np.asarray(M).tolist():
        s = 0.0
        for a, xi in zip(row, x):
            s += a * xi
        out.append(s)
    return tuple(out)


def bits(values):
    """The packed bytes, every NaN as one NaN: which operand's NaN a sum of two
    NaNs keeps differs between CPython's generic and specialized float add, so
    the same code gives either sign as it warms up."""
    return struct.pack(f"<{len(values)}d", *(math.nan if v != v else v for v in values))


def box_system(*mats):
    n = mats[0].shape[0]
    return SwitchedSystem(matrices=mats, state_set=Polytope.box([-1.0] * n, [1.0] * n))


TINY = 5e-324  # the least subnormal
ENTRIES = (0.0, -0.0, TINY, -TINY, 2.5e-310, -1.5e-309, 1e308, -1e308, 1.0, -0.7, 3.3e-5)
STATES = (0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 7e307, 1.0, -2.5, TINY)


class TestProduct:
    """`SwitchedSystem.product` against `left_to_right`, compared as packed bytes."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_left_to_right_sum_bit_for_bit(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(60):
            # a mix of the listed edge entries and ordinary values of varied scale
            M = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-3, 4, size=(n, n))
            pick = rng.random((n, n)) < 0.5
            M[pick] = rng.choice(ENTRIES, size=int(pick.sum()))
            product = box_system(M).product(1)
            for _ in range(20):
                x = rng.normal(size=n) * 10.0 ** rng.integers(-5, 300, size=n)
                pick = rng.random(n) < 0.4
                x[pick] = rng.choice(STATES, size=int(pick.sum()))
                x = tuple(x.tolist())
                assert bits(product(x)) == bits(left_to_right(M, x)), (M.tolist(), x)

    def test_sums_that_overflow_or_cancel_keep_their_order(self):
        M = np.array([[1e308, 1e308, -1e308], [-1e308, 1e308, 1e308], [1.0, 1e-16, 1e-16]])
        x = (1.0, 1.0, 1.0)
        out = box_system(M).product(1)(x)
        assert bits(out) == bits(left_to_right(M, x))
        assert out[0] == math.inf and out[1] == 1e308 and out[2] == 1.0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_a_row_of_negative_zero_products_sums_to_positive_zero(self, n):
        # each a * x is -0.0, and 0.0 + -0.0 is +0.0
        for M, x in ((np.zeros((n, n)), (-1.0,) * n), (np.full((n, n), -0.0), (2.0,) * n)):
            out = box_system(M).product(1)(x)
            assert bits(out) == bits((0.0,) * n) == bits(left_to_right(M, x))

    def test_equal_matrix_bytes_share_one_product(self):
        A = np.array([[0.5, -0.25], [1.0, 0.0]])
        first = box_system(A, np.eye(2))
        second = SwitchedSystem(matrices=(np.eye(2), A.copy()), state_set=Polytope.box([-5, -5], [5, 5]))
        assert first.product(1) is second.product(2)
        assert first.product(2) is second.product(1)
        assert first.product(1) is not first.product(2)

    def test_a_negative_zero_entry_gets_its_own_product(self):
        A = np.array([[0.5, 0.0], [1.0, 2.0]])
        B = np.array([[0.5, -0.0], [1.0, 2.0]])
        assert np.array_equal(A, B)  # equal as floats, not as bytes
        sys_a, sys_b = box_system(A), box_system(B)
        assert sys_a.product(1) is not sys_b.product(1)
        x = (1.0, -1.0)
        assert bits(sys_b.product(1)(x)) == bits(left_to_right(B, x))

    def test_each_product_compiles_under_its_own_filename(self):
        rng = np.random.default_rng(3)
        sys_ = box_system(*(rng.normal(size=(4, 4)) for _ in range(3)))
        names = {sys_.product(s).__code__.co_filename for s in (1, 2, 3)}
        assert len(names) == 3
        assert all(name.startswith("<swmpc product 4x4 #") for name in names)

    def test_the_cache_stays_bounded_and_regenerates_the_same_bits(self):
        bound = _product.cache_info().maxsize
        rng = np.random.default_rng(4)
        M = rng.normal(size=(3, 3))
        M[0, 1] = -0.0
        first = box_system(M).product(1)
        for _ in range(bound + 20):  # distinct matrices, each one product
            box_system(rng.normal(size=(3, 3))).product(1)
            assert _product.cache_info().currsize <= bound
        again = box_system(M).product(1)  # evicted, so generated anew
        assert again is not first
        assert again.__code__.co_filename != first.__code__.co_filename
        for _ in range(50):
            x = rng.normal(size=3) * 10.0 ** rng.integers(-5, 300, size=3)
            x[rng.random(3) < 0.3] = rng.choice(STATES)
            x = tuple(x.tolist())
            assert bits(again(x)) == bits(left_to_right(M, x)) == bits(first(x))



class TestValues:
    """Public objects compare and hash by value; instance-dict caches do not count."""

    def test_polytopes_compare_and_hash_by_value(self):
        P, Q = Polytope.box([0], [1]), Polytope.box([0], [1])
        assert P == Q and hash(P) == hash(Q) and len({P, Q}) == 1
        assert P != Polytope.box([0], [2])
        assert P != Polytope(np.ones((1, 2)), np.ones(1))
        assert P != "a polytope"

    def test_systems_compare_by_matrices_waiting_and_state_set(self, cancer_like):
        same = SwitchedSystem(
            matrices=tuple(M.copy() for M in cancer_like.matrices),
            state_set=Polytope.nonnegative_orthant(2),
            waiting=((2, 4), (2, 8), (2, 6)),
        )
        assert same == cancer_like and hash(same) == hash(cancer_like)
        assert SwitchedSystem(cancer_like.matrices, cancer_like.state_set) != cancer_like
        assert SwitchedSystem(
            cancer_like.matrices, Polytope.box([0, 0], [1e9, 1e9]), cancer_like.waiting
        ) != cancer_like

    def test_scenarios_compare_by_value_whatever_their_caches(self):
        ran = builtin_scenario("cancer")
        run_closed_loop(ran.mpc, ran.x0, 3)  # fills the context, the products and geometry caches
        assert "_key" in ran.sys.__dict__ and "_key" in ran.sys.state_set.__dict__
        fresh = builtin_scenario("cancer")
        assert ran == fresh and hash(ran) == hash(fresh)
        assert ran.mpc == fresh.mpc and ran.sys == fresh.sys
        assert builtin_scenario("cancer", case=1) != fresh
        assert builtin_scenario("viral-1") != builtin_scenario("viral-2")

    def test_pickled_after_a_closed_loop_round_trips_and_steps_the_same(self):
        scen = builtin_scenario("illustrative")
        before = run_closed_loop(scen.mpc, scen.x0, 6)
        path = before.signals
        for obj in (scen.sys, scen.mpc, scen):
            copy = pickle.loads(pickle.dumps(obj))
            assert copy == obj and hash(copy) == hash(obj)
        sys_copy = pickle.loads(pickle.dumps(scen.sys))
        assert all(sys_copy.product(s) is scen.sys.product(s) for s in range(1, scen.sys.q + 1))
        assert simulate(sys_copy, scen.x0, path).states.tobytes() == before.states.tobytes()
        for mpc in (pickle.loads(pickle.dumps(scen.mpc)), pickle.loads(pickle.dumps(scen)).mpc):
            after = run_closed_loop(mpc, scen.x0, 6)
            assert after.states.tobytes() == before.states.tobytes()
            assert (after.signals, after.costs) == (before.signals, before.costs)


@pytest.mark.parametrize(
    "name, case, x0, steps",
    [
        ("cancer", None, None, 72),
        ("cancer", 3, None, 72),
        ("viral-1", None, None, 12),
        ("illustrative", None, None, 30),
        # on an axis: A_1's first row then sums two -0.0 products
        ("illustrative", None, (-0.0, -0.5), 8),
    ],
)
def test_closed_loop_states_are_the_reference_rollout(name, case, x0, steps):
    scen = builtin_scenario(name, case=case)
    x0 = scen.mpc.x if x0 is None else x0
    run = run_closed_loop(scen.mpc, x0, steps)
    x, states = tuple(x0), [tuple(x0)]
    for s in run.signals:
        x = left_to_right(scen.sys.matrices[s - 1], x)
        states.append(x)
    assert [bits(v) for v in run.states.tolist()] == [bits(v) for v in states]
