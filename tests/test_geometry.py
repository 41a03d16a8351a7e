import math
import re
import struct
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import OptimizeResult, linprog, nnls
from scipy.optimize._highspy._core import HighsModelStatus, HighsStatus

import swmpc.geometry
from swmpc import (
    CostSpec,
    InfeasibleProblemError,
    OcpProblem,
    Polytope,
    PolytopeUnion,
    SingularMatrixError,
    SwitchedSystem,
    build_illustrative_system,
    builtin_scenario,
    controllable_set,
    distance_to_set,
    inclusion_in_union,
    is_switched_invariant,
    non_stabilizability_certificate,
    solve_ocp,
    stabilizability_certificate,
)
from swmpc.controller import _build_distance, _project_onto_polytope
from swmpc.geometry import (
    BAND,
    EMPTY_TOL,
    INTERIOR_INFLATION,
    PART_CAP_ENV,
    GeometryCapError,
    NumericalError,
    _least_distance,
    _lp,
    _norm_bound,
    _radius_at_least,
    _uncovered_pieces,
    as_union,
    part_cap,
)
from .oracles import polytope_samples, unreached_within


def scalar_system(*gains, box=1e9):
    return SwitchedSystem(
        matrices=tuple(np.array([[g]]) for g in gains),
        state_set=Polytope.box([-box], [box]),
    )


def planar_system(*mats, box=1e6):
    return SwitchedSystem(
        matrices=tuple(np.asarray(M, dtype=float) for M in mats),
        state_set=Polytope.box([-box, -box], [box, box]),
    )


def regular_polygon(sides, inradius, rotation):
    angles = rotation + 2.0 * np.pi * np.arange(sides) / sides
    return Polytope(np.column_stack([np.cos(angles), np.sin(angles)]), np.full(sides, inradius))


def cut(P, H, h):
    """P intersected with {x : H x <= h}; a 1-d H is one row."""
    return Polytope(np.vstack([P.H, H]), np.append(P.h, h))


def rotation_matrix(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def sample_in_union(rng, union, count):
    """Uniform-ish samples from a union of boxes (rejection inside each part)."""
    out = []
    parts = union.parts
    while len(out) < count:
        P = parts[rng.integers(0, len(parts))]
        lo, hi = P.coordinate_ranges
        x = rng.uniform(lo, hi)
        if P.contains(x, tol=0.0):
            out.append(x)
    return out


def _pruned_by_lp_per_row(P):
    """(indices of the rows that pruning keeps, LPs made), by scipy's `linprog`
    for each row in turn: a row goes when its maximum over the other rows kept
    so far lies within 1e-9 of its bound."""
    keep, lps = list(range(P.nrows)), 0
    for i in range(P.nrows):
        if len(keep) <= 1:
            break
        others = [j for j in keep if j != i]
        res = linprog(-P.H[i], A_ub=P.H[others], b_ub=P.h[others], bounds=(None, None))
        lps += 1
        if res.status == 0 and -res.fun <= P.h[i] + 1e-9:
            keep = others
    return keep, lps


class TestPolytope:
    def test_rows_are_normalized(self):
        P = Polytope(np.array([[2.0, 0.0]]), np.array([4.0]))
        assert np.allclose(P.H, [[1.0, 0.0]])
        assert np.allclose(P.h, [2.0])

    def test_box_contains(self):
        P = Polytope.box([-1, -1], [1, 1])
        assert P.contains([0.5, -0.5])
        assert not P.contains([1.5, 0.0])

    def test_chebyshev_radius_box(self):
        P = Polytope.box([-2, -1], [2, 1])
        assert P.chebyshev_radius == pytest.approx(1.0, abs=1e-8)

    def test_empty_by_radius(self):
        P = Polytope(np.array([[1.0], [-1.0]]), np.array([1.0, -2.0]))  # 2 <= x <= 1
        assert P.is_empty()

    def test_unbounded_detection(self):
        orthant = Polytope.nonnegative_orthant(2)
        assert not orthant.is_bounded
        assert Polytope.box([-1, -1], [1, 1]).is_bounded

    def test_is_empty_reads_the_kept_verdict_and_a_box_needs_no_lp(self, monkeypatch):
        monkeypatch.setattr(swmpc.geometry, "linprog", lambda *a, **k: pytest.fail("an LP"))
        crossed = Polytope(np.array([[1.0], [-1.0]]), np.array([1.0, -2.0]))  # 2 <= x <= 1
        for P, empty in ((Polytope.box([-1, -2], [1, 2]), False), (crossed, True)):
            assert P.is_empty() is empty is not P._nonempty

    def test_box_boundedness_needs_no_lp(self, monkeypatch):
        monkeypatch.setattr(swmpc.geometry, "linprog", lambda *a, **k: pytest.fail("an LP"))
        assert Polytope.box([-1, -2], [1, 2]).is_bounded
        assert not Polytope.nonnegative_orthant(2).is_bounded
        # 1 <= x1 <= 0: as with the LPs, whose supports of an empty set are
        # infeasible, an empty box does not count as bounded
        H = np.vstack([np.eye(2), -np.eye(2)])
        assert not Polytope(H, np.array([0.0, 1.0, -1.0, 1.0])).is_bounded

    def test_singleton_point(self):
        P = Polytope.origin(3)
        assert np.allclose(P.singleton_point(), [0.0, 0.0, 0.0])
        assert Polytope.box([-1], [1]).singleton_point() is None

    def test_box_singleton_needs_no_lp(self, monkeypatch):
        monkeypatch.setattr(swmpc.geometry, "linprog", lambda *a, **k: pytest.fail("an LP"))
        point = Polytope.box([1.0, -2.0], [1.0, -2.0 + 1e-10]).singleton_point()
        assert np.allclose(point, [1.0, -2.0], rtol=0.0, atol=1e-10)
        assert Polytope.box([0.0, 0.0], [0.0, 1e-8]).singleton_point() is None
        # 1 <= x1 <= 0 is empty, not a point
        H = np.vstack([np.eye(2), -np.eye(2)])
        assert Polytope(H, np.array([0.0, 0.0, -1.0, 0.0])).singleton_point() is None

    @pytest.mark.parametrize("build, message", [
        (lambda: Polytope(np.eye(2), np.ones(3)), "H has 2 rows but h has 3 entries"),
        (lambda: Polytope(np.zeros((0, 2)), np.zeros(0)), "a polytope needs at least one inequality row"),
        (lambda: Polytope(np.eye(2), [1.0, math.inf]), "H-representation entries must be finite"),
        (lambda: Polytope.box([0.0, 0.0], [1.0]), "lb and ub must be 1-d arrays of equal length"),
        (lambda: Polytope.box([1.0], [0.0]), "box needs lb <= ub"),
        (lambda: Polytope.box([math.nan, 0.0], [1.0, 1.0]), "box needs lb <= ub"),
        (lambda: Polytope.box([0.0], [math.nan]), "box needs lb <= ub"),
        (lambda: Polytope.box([-math.inf], [math.inf]), "box must be bounded in at least one direction"),
        (lambda: Polytope.box([-1.0], [1.0]).scale(0.0), "scale factor must be positive"),
        (lambda: PolytopeUnion((Polytope.box([-1], [1]), Polytope.box([-1, -1], [1, 1]))),
         "all parts of a union must share one dimension"),
    ], ids=["row-mismatch", "no-rows", "non-finite", "box-shapes", "box-order", "box-nan-lb",
            "box-nan-ub", "box-open", "scale-factor", "union-dimensions"])
    def test_each_check_names_what_is_wrong(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    def test_too_few_rows_to_be_bounded_take_no_lp(self, monkeypatch):
        # at most n rows bound no nonempty set in R^n, so neither needs the
        # 2n support LPs of its coordinate ranges
        monkeypatch.setattr(swmpc.geometry, "linprog", lambda *a, **k: pytest.fail("an LP"))
        halfplane = Polytope(np.array([[1.0, 1.0]]), np.array([1.0]))
        wedge = Polytope(np.array([[-1.0, 1.0], [-1.0, -1.0]]), np.zeros(2))
        for P in (halfplane, wedge):
            assert not P.is_bounded
            assert P.singleton_point() is None

    def test_pruned_is_computed_once(self, monkeypatch):
        P = cut(Polytope.box([-1, -1], [1, 1]), [1.0, 1.0], 5.0)  # a redundant fifth row
        kept = regular_polygon(5, 1.0, 0.3)  # no redundant row: its own pruned copy
        first, same = P.pruned(), kept.pruned()
        assert first.nrows == 4 and same is kept
        monkeypatch.setattr(swmpc.geometry, "linprog", lambda *a, **k: pytest.fail("an LP"))
        assert P.pruned() is first and first.pruned() is first
        assert kept.pruned() is kept

    def test_pruned_drops_redundant_rows(self):
        P = Polytope(
            np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 0.0]]),
            np.array([1.0, 1.0, 1.0, 1.0, 5.0]),
        )
        # duplicate-direction row with slack 5 is redundant; dedup keeps 4 rows
        assert P.pruned().nrows == 4

    def test_pruned_matches_an_lp_per_row(self, monkeypatch):
        # parts about the origin and off it, with rows redundant by 1e-8, 1e-6
        # and 0.1 and rows that cut by 1e-8 and 1e-6: the witnesses keep only
        # rows that the LP keeps, and save LPs only where 0 is inside
        rng = np.random.default_rng(11)
        calls = []
        real = swmpc.geometry.linprog
        monkeypatch.setattr(
            swmpc.geometry, "linprog", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        made = {True: 0, False: 0}
        oracle = {True: 0, False: 0}
        dropped = 0
        for trial in range(120):
            n = int(rng.integers(2, 5))
            inside = trial % 2 == 0
            center = rng.normal(scale=0.05, size=n)
            if not inside:
                center = 3.0 * center / np.linalg.norm(center)
            H, h = _random_rows(rng, n, int(rng.integers(n + 1, 3 * n)), center, 0.2, 1.0)
            box = Polytope.box(center - 1.0, center + 1.0)
            P = cut(Polytope(H, h), box.H, box.h)
            for slack in (1e-8, -1e-8, 1e-6, -1e-6, 0.1):
                a = rng.normal(size=n)
                a /= np.linalg.norm(a)
                P = cut(P, a, P.support(a) + slack)
            assert (P.h.min() > 0.0) == inside
            keep, lps = _pruned_by_lp_per_row(P)
            _norm_bound(P, solve=True)  # the bound a smaller copy takes, solved here
            calls.clear()
            got = P.pruned()
            assert got.H.tobytes() == P.H[keep].tobytes()
            assert got.h.tobytes() == P.h[keep].tobytes()
            made[inside] += len(calls)
            oracle[inside] += lps
            dropped += P.nrows - len(keep)
        assert made[False] == oracle[False]
        assert made[True] < 0.75 * oracle[True]  # 661 of 996
        assert dropped >= 3 * 120

    def test_infeasible_chebyshev_lp_reads_minus_inf(self):
        # the free radius makes the LP feasible for any part whose rows are all
        # nonzero, so only a zero row with a negative bound makes it infeasible
        assert Polytope([[1.0], [-1.0]], [-1.0, -1.0]).chebyshev_radius == -1.0
        assert Polytope([[0.0, 0.0], [1.0, 0.0]], [-1.0, 1.0]).chebyshev_ball == (-math.inf, None)

    def test_pruning_stops_at_one_row(self, monkeypatch):
        calls = []
        real = swmpc.geometry.linprog
        monkeypatch.setattr(
            swmpc.geometry, "linprog", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        P = Polytope([[1.0], [1.0], [1.0]], [-1.0, -2.0, -3.0]).pruned()
        assert (P.H.tolist(), P.h.tolist(), len(calls)) == ([[1.0]], [-3.0], 2)

    def test_lp_failure_raises(self, monkeypatch):
        def failing(*args, **kwargs):
            return OptimizeResult(status=4, message="numerical difficulties", x=None, fun=None)

        monkeypatch.setattr(swmpc.geometry, "linprog", failing)
        P = Polytope.box([-1, -1], [1, 1])
        with pytest.raises(NumericalError):
            P.support([1.0, 0.0])
        with pytest.raises(NumericalError):
            P.chebyshev_radius
        # a witness keeps each of the box's rows, but the fifth row needs its LP
        assert P.pruned() is P
        with pytest.raises(NumericalError):
            cut(P, [1.0, 1.0], 5.0).pruned()

    def test_dict_round_trip(self):
        P = Polytope.box([-1, 0], [2, 3])
        Q = Polytope.from_dict(P.to_dict())
        assert np.array_equal(P.H, Q.H) and np.array_equal(P.h, Q.h)

    def test_dict_round_trip_is_bit_identical(self):
        # normalizing rows that are already of unit norm must not move them by an ulp
        rng = np.random.default_rng(0)
        polytopes = [Polytope(np.ones((1, n)), np.ones(1)) for n in range(1, 17)]
        for _ in range(2000):
            n, m = rng.integers(1, 9), rng.integers(1, 10)
            H = rng.normal(size=(m, n)) * rng.uniform(0.1, 10.0)
            polytopes.append(Polytope(H, rng.normal(size=m)))
        for P in polytopes:
            Q = Polytope.from_dict(P.to_dict())
            assert P.H.tobytes() == Q.H.tobytes() and P.h.tobytes() == Q.h.tobytes()


class TestPreimage:
    def test_identity_preimage_is_identical(self):
        P = Polytope.box([-1, -1], [1, 1])
        Q = P.preimage(np.eye(2))
        assert np.array_equal(P.H, Q.H) and np.array_equal(P.h, Q.h)

    def test_scalar_scaling(self):
        P = Polytope(np.array([[1.0]]), np.array([4.0]))  # x <= 4
        Q = P.preimage(np.array([[2.0]]))
        assert Q.contains([2.0]) and not Q.contains([2.0 + 1e-6])

    def test_illustrative_matrix_box_vertices(self):
        A = np.array([[1.5, 0.0], [0.0, -0.8]])
        Q = Polytope.box([-1, -1], [1, 1]).preimage(A)
        for sx in (-1, 1):
            for sy in (-1, 1):
                assert Q.contains([sx * 2.0 / 3.0, sy * 1.25], tol=1e-9)
        assert not Q.contains([2.0 / 3.0 + 1e-6, 0.0])
        assert not Q.contains([0.0, 1.25 + 1e-6])

    def test_singular_matrix_rejected(self):
        with pytest.raises(SingularMatrixError):
            Polytope.box([-1, -1], [1, 1]).preimage(np.zeros((2, 2)))

    def test_a_preimage_is_its_own_pruned_copy(self, monkeypatch):
        Q = regular_polygon(6, 1.0, 0.2).preimage(np.array([[1.2, 0.3], [-0.4, 0.9]]))
        monkeypatch.setattr(swmpc.geometry, "linprog", lambda *a, **k: pytest.fail("an LP"))
        assert Q.pruned() is Q

    def test_preimage_rows_are_a_constructed_polytope_s(self, monkeypatch):
        # built without the constructor's duplicate search, yet bit for bit the
        # polytope constructed from the pruned rows, over random maps
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            H, h = _random_rows(rng, n, int(rng.integers(n + 1, 3 * n)),
                                rng.normal(scale=0.05, size=n), 0.2, 1.0)
            P = cut(Polytope(H, h), _cubes(1.0)[n].H, _cubes(1.0)[n].h)
            R = P.pruned()
            maps = [10.0 ** rng.uniform(-2.0, 3.0) * rng.normal(size=(n, n)) for _ in range(3)]
            with monkeypatch.context() as m:
                m.setattr(Polytope, "__post_init__", lambda self: pytest.fail("a constructor"))
                got = [P.preimage(A) for A in maps]
            for A, Q in zip(maps, got):
                want = Polytope(R.H @ A, R.h)
                assert Q.H.tobytes() == want.H.tobytes() and Q.h.tobytes() == want.h.tobytes()
                assert Q._key == want._key and Q == want
                assert not (Q.H.flags.writeable or Q.h.flags.writeable)

    def test_shape_mismatch_rejected(self):
        P = Polytope.box([-1, -1], [1, 1])
        for A in (np.eye(3), np.ones((1, 4)), np.ones(4)):
            with pytest.raises(ValueError, match="must be 2x2"):
                P.preimage(A)

    def test_preimage_points_map_into_target(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
        P = Polytope.box([-1.5, -0.5], [0.5, 2.0])
        Q = P.preimage(A)
        lo, hi = Q.coordinate_ranges
        hits = 0
        while hits < 1000:
            y = rng.uniform(lo, hi)
            if Q.contains(y, tol=0.0):
                hits += 1
                assert P.contains(A @ y, tol=1e-9)

    def test_points_mapping_into_target_are_in_preimage(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
        P = Polytope.box([-1.5, -0.5], [0.5, 2.0])
        Q = P.preimage(A)
        hits = 0
        while hits < 1000:
            y = rng.uniform([-3, -3], [3, 3])
            if P.contains(A @ y, tol=0.0):
                hits += 1
                assert Q.contains(y, tol=1e-9)

    def test_preimage_is_built_once(self, monkeypatch):
        P = Polytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0]]),
                     np.ones(5))
        A = np.array([[1.2, 0.3], [-0.4, 0.9]])
        first = P.preimage(A)
        calls = []
        real = swmpc.geometry.linprog
        monkeypatch.setattr(
            swmpc.geometry, "linprog", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        assert P.preimage(A.copy()) is first
        assert calls == []

    @staticmethod
    def _counting_lps(monkeypatch):
        calls = []
        real = swmpc.geometry.linprog
        monkeypatch.setattr(
            swmpc.geometry, "linprog", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        return calls

    def test_preimage_of_a_pruned_polytope_is_exact_and_makes_no_lp(self, monkeypatch):
        # Rows cut off a vertex by 10^-8.5 to 10^-6.2, under maps up to 1e4 in
        # norm: scaled by 1 / ||H_i A||, many of these slacks fall below the
        # pruning tolerance, so pruning the preimage afresh would drop a row,
        # yet every row stays, so the preimage is exact.
        rng = np.random.default_rng(5)
        calls = self._counting_lps(monkeypatch)
        checked = fresh_drops = 0
        for _ in range(60):
            n = int(rng.integers(2, 4))
            P = Polytope(rng.normal(size=(3 * n, n)), np.ones(3 * n))
            if not P.is_bounded:
                continue
            for _ in range(2):
                a = rng.normal(size=n)
                a /= np.linalg.norm(a)
                P = cut(P, a, P.support(a) - 10.0 ** rng.uniform(-8.5, -6.2))
            R = P.pruned()
            _norm_bound(R, solve=True)  # the bound a preimage scales, solved here
            for _ in range(3):
                Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
                A = 10.0 ** rng.uniform(0.0, 4.0) * Q @ np.diag(rng.uniform(0.5, 2.0, size=n))
                calls.clear()
                got = R.preimage(A)
                assert calls == []
                assert got.nrows == R.nrows
                expected = Polytope(R.H @ A, R.h)
                assert got.H.tobytes() == expected.H.tobytes()
                assert got.h.tobytes() == expected.h.tobytes()
                checked += 1
                fresh_drops += expected.pruned().nrows < R.nrows
        assert checked > 100 and fresh_drops > 50

    def test_unpruned_polytope_is_pruned_once_for_all_its_preimages(self, monkeypatch):
        box = Polytope.box([-1, -1], [1, 1])
        P = cut(box, [1.0, 1.0], 5.0)  # a redundant fifth row
        calls = self._counting_lps(monkeypatch)
        first = P.preimage(np.array([[1.2, 0.3], [-0.4, 0.9]]))
        assert calls and first.nrows == 4
        calls.clear()
        second = P.preimage(np.array([[0.5, 0.0], [0.2, 2.0]]))
        assert calls == []
        assert second.nrows == 4


class TestControllableSets:
    def test_identity_single_subsystem(self):
        sys_ = planar_system(np.eye(2))
        S = controllable_set(sys_, Polytope.box([-1, -1], [1, 1]))
        assert len(S) == 1
        assert np.allclose(S.parts[0].h, [1, 1, 1, 1])

    def test_scalar_two_subsystem_union(self):
        sys_ = scalar_system(2.0, 0.5)
        S = controllable_set(sys_, Polytope.box([-1], [1]))
        assert len(S) == 2
        assert S.contains([0.4]) and S.contains([1.9])
        assert S.parts[0].contains([0.5]) and not S.parts[0].contains([0.51])
        assert S.parts[1].contains([2.0]) and not S.parts[1].contains([2.01])

    def test_empty_target_gives_empty_union(self):
        sys_ = scalar_system(2.0)
        S = controllable_set(sys_, PolytopeUnion(()))
        assert len(S) == 0

    def test_second_controllable_set_decides_and_factors_nothing(self, monkeypatch):
        # each part keeps its emptiness verdict, each matrix its checks
        sys_ = build_illustrative_system()
        for omega in (Polytope.box([-0.1, -0.1], [0.1, 0.1]), regular_polygon(5, 0.1, 0.3)):
            levels = [omega]
            for _ in range(2):
                levels.append(controllable_set(sys_, levels[-1]))
            with monkeypatch.context() as m:
                for owner, name in ((swmpc.geometry, "_radius_at_least"),
                                    (np.linalg, "det"), (np.linalg, "svd")):
                    m.setattr(owner, name, lambda *a, name=name, **k: pytest.fail(name))
                again = [controllable_set(sys_, S) for S in levels[:-1]]
            assert again == levels[1:]

    def test_singular_subsystem_named(self):
        sys_ = scalar_system(2.0, 0.0)
        with pytest.raises(SingularMatrixError, match="subsystem 2"):
            controllable_set(sys_, Polytope.box([-1], [1]))

    def test_two_step_scalar_grows(self):
        sys_ = scalar_system(2.0, 0.5)
        S2 = Polytope.box([-1], [1])
        for _ in range(2):
            S2 = controllable_set(sys_, S2)
        assert S2.contains([3.9])  # the |x| <= 4 part
        assert any(p.contains([4.0]) and not p.contains([4.01]) for p in S2.parts)

    def test_three_step_contraction_single_part(self):
        sys_ = planar_system(0.5 * np.eye(2))
        S3 = Polytope.box([-1, -1], [1, 1])
        for _ in range(3):
            S3 = controllable_set(sys_, S3)
        assert len(S3) == 1
        lo, hi = S3.parts[0].coordinate_ranges
        assert np.allclose(lo, [-8, -8]) and np.allclose(hi, [8, 8])


class TestInclusion:
    def test_self_inclusion(self):
        P = Polytope.box([-1, -1], [1, 1])
        assert inclusion_in_union(P, P)

    def test_overlapping_cover(self):
        box = Polytope.box([-1, -1], [1, 1])
        left = cut(box, [1.0, 0.0], 0.0)  # x1 <= 0
        right = cut(box, [-1.0, 0.0], 0.1)  # x1 >= -0.1
        assert inclusion_in_union(box, PolytopeUnion((left, right)))

    def test_missing_half_detected(self):
        box = Polytope.box([-1, -1], [1, 1])
        left = cut(box, [1.0, 0.0], 0.0)
        assert not inclusion_in_union(box, PolytopeUnion((left,)))

    def test_p_thinner_than_empty_tol_is_covered_by_anything(self):
        # P's radius is below EMPTY_TOL, so the region difference ends before
        # it tries a single part
        thin = Polytope.box([0.0, 0.0], [1e-12, 1.0])
        assert inclusion_in_union(thin, Polytope.box([5.0, 5.0], [6.0, 6.0]))


class TestSwitchedInvariance:
    def test_origin_singleton_is_invariant(self):
        sys_ = planar_system(np.array([[3.0, 1.0], [0.0, 2.0]]))
        report = is_switched_invariant(sys_, Polytope.origin(2))
        assert report.is_sis

    def test_scalar_invariant_pair(self):
        sys_ = scalar_system(2.0, 0.4)
        report = is_switched_invariant(sys_, Polytope.box([-1], [1]))
        assert report.is_sis

    def test_scalar_non_invariant_pair(self):
        sys_ = scalar_system(2.0, 1.5)
        report = is_switched_invariant(sys_, Polytope.box([-1], [1]))
        assert not report.is_sis
        x = report.counterexample
        assert x is not None
        for A in sys_.matrices:
            assert not Polytope.box([-1], [1]).contains(A @ x, tol=1e-12)

    def test_union_invariant_only_jointly(self):
        # rotation by 90 degrees: neither half keeps the cross invariant alone,
        # the pair of subsystems (rotation and contraction) does
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        sys_ = planar_system(rot, 0.5 * np.eye(2))
        cross = PolytopeUnion(
            (Polytope.box([-2, -0.5], [2, 0.5]), Polytope.box([-0.5, -2], [0.5, 2]))
        )
        report = is_switched_invariant(sys_, cross)
        assert report.is_sis

    def test_reported_sis_agrees_with_pointwise_definition(self):
        rng = np.random.default_rng(7)
        sys_ = scalar_system(2.0, 0.4)
        omega = as_union(Polytope.box([-1], [1]))
        report = is_switched_invariant(sys_, omega)
        assert report.is_sis
        for x in sample_in_union(rng, omega, 1000):
            assert any(omega.contains(A @ x) for A in sys_.matrices)

    def test_a_point_part_that_no_subsystem_keeps_is_the_counterexample(self):
        box = Polytope.box([-0.1, -0.1], [0.1, 0.1])
        omega = PolytopeUnion((box, Polytope.box([5.0, 5.0], [5.0, 5.0])))
        report = is_switched_invariant(build_illustrative_system(), omega)
        assert not report.is_sis
        assert report.counterexample.tolist() == [5.0, 5.0]

    def test_unbounded_part_rejected(self):
        sys_ = planar_system(np.eye(2))
        with pytest.raises(ValueError):
            is_switched_invariant(sys_, Polytope.nonnegative_orthant(2))

    @pytest.mark.parametrize(
        "omega, message",
        [
            (PolytopeUnion(()), "omega must be nonempty"),
            (PolytopeUnion((Polytope.box([-1, -1], [1, 1]), Polytope.nonnegative_orthant(2))),
             "omega part 1 is unbounded"),
        ],
        ids=["empty", "unbounded"],
    )
    def test_invariance_and_certificates_share_the_bounded_union_check(self, omega, message):
        sys_ = planar_system(0.5 * np.eye(2))
        for check in (
            lambda: is_switched_invariant(sys_, omega),
            lambda: stabilizability_certificate(sys_, omega, 1),
            lambda: non_stabilizability_certificate(sys_, omega, 1),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                check()


class TestCertificates:
    def test_schur_subsystem_certifies_at_zero(self):
        sys_ = planar_system(0.5 * np.eye(2))
        assert stabilizability_certificate(sys_, Polytope.box([-1, -1], [1, 1]), 3) == 0

    def test_expansive_family_not_stabilizable(self):
        sys_ = planar_system(2.0 * np.eye(2), 2.0 * np.eye(2))
        omega = Polytope.box([-1, -1], [1, 1])
        assert stabilizability_certificate(sys_, omega, 5) is None
        assert non_stabilizability_certificate(sys_, omega, 5) in (0, 1)

    def test_contractive_family_never_non_stabilizable(self):
        sys_ = planar_system(0.5 * np.eye(2))
        omega = Polytope.box([-1, -1], [1, 1])
        assert non_stabilizability_certificate(sys_, omega, 4) is None

    def test_empty_omega_rejected(self):
        sys_ = planar_system(np.eye(2))
        with pytest.raises(ValueError):
            stabilizability_certificate(sys_, PolytopeUnion(()), 2)
        with pytest.raises(ValueError):
            non_stabilizability_certificate(sys_, PolytopeUnion(()), 2)

    def test_origin_must_be_interior(self):
        sys_ = planar_system(np.eye(2))
        shifted = Polytope.box([1, 1], [2, 2])
        with pytest.raises(ValueError):
            stabilizability_certificate(sys_, shifted, 2)

    def test_negative_kmax_rejected(self):
        sys_ = planar_system(0.5 * np.eye(2))
        for certify in (stabilizability_certificate, non_stabilizability_certificate):
            with pytest.raises(ValueError, match="^kmax must be >= 0$"):
                certify(sys_, Polytope.box([-1, -1], [1, 1]), -1)

    @pytest.mark.parametrize(
        "cap, check, message",
        [
            (3, lambda: controllable_set(build_illustrative_system(), Polytope.box([-0.1, -0.1], [0.1, 0.1])),
             "controllable set exceeded 3 parts"),
            (1, lambda: inclusion_in_union(
                Polytope.box([-1, -1], [1, 1]), Polytope.box([-1, -1], [0, 1])),
             "region difference exceeded 1 pieces"),
            (2, lambda: stabilizability_certificate(scalar_system(2.0), Polytope.box([-1], [1]), 2),
             "accumulated controllable sets exceeded 2 parts"),
            (4, lambda: non_stabilizability_certificate(
                build_illustrative_system(), Polytope.box([-0.1, -0.1], [0.1, 0.1]), 2),
             "accumulated union exceeded 4 parts"),
        ],
        ids=["controllable-set", "region-difference", "accumulated-sets", "accumulated-union"],
    )
    def test_each_part_cap_names_what_it_counted(self, monkeypatch, cap, check, message):
        monkeypatch.setenv(PART_CAP_ENV, str(cap))
        with pytest.raises(GeometryCapError) as err:
            check()
        assert str(err.value) == f"{message} (see SWMPC_PART_CAP)"

    @pytest.mark.parametrize("value", ["0", "-3", "abc"])
    def test_part_cap_must_be_an_integer_of_at_least_1(self, monkeypatch, value):
        monkeypatch.setenv(PART_CAP_ENV, value)
        with pytest.raises(ValueError) as err:
            part_cap()
        assert str(err.value) == f"SWMPC_PART_CAP must be an integer >= 1, got {value!r}"

    def test_part_cap_reads_the_variable_or_the_default(self, monkeypatch):
        monkeypatch.setenv(PART_CAP_ENV, "1")
        assert part_cap() == 1
        monkeypatch.delenv(PART_CAP_ENV)
        assert part_cap() == swmpc.geometry.DEFAULT_PART_CAP

    def test_accumulated_union_is_monotone(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            gains = rng.uniform(0.4, 2.0, size=2)
            sys_ = scalar_system(*gains)
            omega = as_union(Polytope.box([-1], [1]))
            current = omega
            accumulated = list(omega.parts)
            for _ in range(3):
                current = controllable_set(sys_, current)
                new_acc = accumulated + list(current.parts)
                for P in accumulated:
                    assert inclusion_in_union(P, PolytopeUnion(tuple(new_acc)))
                accumulated = new_acc

    def test_mutual_exclusion_on_scalar_ground_truth(self):
        rng = np.random.default_rng(11)
        omega = Polytope.box([-1], [1])
        for _ in range(40):
            q = int(rng.integers(1, 3))
            gains = []
            for _ in range(q):
                mag = rng.uniform(0.4, 0.9) if rng.random() < 0.5 else rng.uniform(1.1, 2.5)
                gains.append(float(mag * rng.choice([-1.0, 1.0])))
            sys_ = scalar_system(*gains)
            stab = stabilizability_certificate(sys_, omega, 4)
            non = non_stabilizability_certificate(sys_, omega, 4)
            assert not (stab is not None and non is not None)
            # scalar ground truth: stabilizable iff some |gain| < 1 (products
            # of magnitudes >= 1.1 can only grow; brute-force check below)
            truly_stabilizable = min(abs(g) for g in gains) < 1.0
            if not truly_stabilizable:
                shrinking = [
                    np.prod([abs(gains[i]) for i in word])
                    for length in range(1, 9)
                    for word in np.ndindex(*(q,) * length)
                ]
                assert min(shrinking) >= 1.0
            if stab is not None:
                assert truly_stabilizable
            if non is not None:
                assert not truly_stabilizable

    def test_expansive_certificate_survives_falsification(self):
        # every subsystem is a rotation scaled by more than the hexagon's
        # outer-to-inner radius ratio, so S_1 lies inside omega and the
        # non-stabilizability certificate holds at k = 0: every sampled point
        # of S_1 must lie in omega
        rng = np.random.default_rng(5)
        omega = regular_polygon(6, 1.0, rng.uniform(0.0, 2.0 * np.pi))
        rho_min = 1.2 / np.cos(np.pi / 6)
        sys_ = planar_system(
            *(
                rho_min * rng.uniform(1.0, 1.5) * rotation_matrix(rng.uniform(0.0, 2.0 * np.pi))
                for _ in range(3)
            ),
            box=100.0,
        )
        assert non_stabilizability_certificate(sys_, omega, 2) == 0
        S1 = controllable_set(sys_, omega)
        assert len(S1) == 3
        points = np.vstack([polytope_samples(P.H, P.h, rng, 200, 100) for P in S1.parts])
        assert np.all(points @ omega.H.T <= omega.h + 1e-9)


class TestDistance:
    def test_member_has_zero_distance(self):
        assert distance_to_set(Polytope.box([-1, -1], [1, 1]), [0.3, -0.9]) == 0.0

    def test_singleton_distance_is_norm(self):
        assert distance_to_set(Polytope.origin(2), [3.0, 4.0]) == pytest.approx(5.0, abs=1e-12)

    def test_box_corner_distance(self):
        d = distance_to_set(Polytope.box([-1, -1], [1, 1]), [2.0, 3.0])
        assert d == pytest.approx(math.sqrt(5.0), abs=1e-12)

    def test_general_polytope_projection(self):
        # halfplane x1 + x2 <= 0: distance from (1, 1) is sqrt(2)
        P = Polytope(np.array([[1.0, 1.0]]), np.array([0.0]))
        assert distance_to_set(P, [1.0, 1.0]) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_union_takes_min(self):
        union = PolytopeUnion((Polytope.box([10], [11]), Polytope.box([-1], [1])))
        assert distance_to_set(union, [2.0]) == pytest.approx(1.0, abs=1e-12)

    def test_empty_union_rejected(self):
        with pytest.raises(ValueError):
            distance_to_set(PolytopeUnion(()), [0.0])

    def test_zero_iff_member(self):
        rng = np.random.default_rng(2)
        P = Polytope(np.array([[1.0, 2.0], [-1.0, 0.3], [0.0, -1.0]]), np.array([2.0, 1.0, 1.5]))
        for _ in range(300):
            x = rng.uniform(-4, 4, size=2)
            d = distance_to_set(P, x)
            if P.contains(x, tol=0.0):
                assert d == 0.0
            else:
                assert d > 0.0
            assert (d <= 1e-9) == P.contains(x, tol=2e-9) or d > 1e-9

    def test_distance_is_one_lipschitz(self):
        rng = np.random.default_rng(4)
        P = Polytope(np.array([[1.0, 2.0], [-1.0, 0.3], [0.0, -1.0]]), np.array([2.0, 1.0, 1.5]))
        for _ in range(200):
            x = rng.uniform(-4, 4, size=2)
            y = x + rng.normal(scale=0.5, size=2)
            dx, dy = distance_to_set(P, x), distance_to_set(P, y)
            assert abs(dx - dy) <= np.linalg.norm(x - y) + 1e-9

    def test_projection_matches_quadratic_oracle(self):
        # brute-force oracle: dense grid minimization refined by local search
        rng = np.random.default_rng(6)
        P = Polytope(
            np.array([[1.0, 1.0], [-1.0, 2.0], [0.0, -1.0], [-1.0, -1.0]]),
            np.array([1.0, 2.0, 0.5, 1.0]),
        )
        lo, hi = P.coordinate_ranges
        grid = [
            np.array([a, b])
            for a in np.linspace(lo[0], hi[0], 201)
            for b in np.linspace(lo[1], hi[1], 201)
        ]
        inside = [g for g in grid if P.contains(g, tol=1e-12)]
        for _ in range(10):
            x = rng.uniform(-4, 4, size=2)
            d = distance_to_set(P, x)
            d_grid = min(np.linalg.norm(x - g) for g in inside)
            assert d <= d_grid + 1e-9
            assert d >= d_grid - 0.02  # grid resolution slack

    def test_projection_of_a_point_inside_is_the_point(self, monkeypatch):
        monkeypatch.setattr(swmpc.geometry, "nnls", lambda *a: pytest.fail("an NNLS solve"))
        P = Polytope.box([-1.0, -1.0], [1.0, 1.0])
        for x in ([0.0, 0.0], [0.3, -0.9], [1.0, -1.0]):  # the last one on two rows
            x = np.array(x)
            p = _project_onto_polytope(P, x)
            assert p is not x and np.array_equal(p, x)

    def test_projection_of_a_large_state(self):
        # a state predicted by the viral-1 loop; the only candidate misses an
        # absolute 1e-9 feasibility check by 1.86e-9
        x = np.array([122.88523673165328, 283527.56432902114, 6537.535142416123, 16997580.846162435])
        P = Polytope(np.ones((1, 4)), np.array([0.0]))
        p = _project_onto_polytope(P, x)
        assert np.allclose(p, x - x.sum() / 4.0, rtol=1e-12, atol=0.0)
        assert distance_to_set(P, x) == pytest.approx(x.sum() / 2.0, rel=1e-12)

    def test_controller_distance_agrees_bitwise(self):
        # the solver's distance closures and distance_to_set share their
        # closed forms and their projection, so they agree bit for bit
        rng = np.random.default_rng(8)
        viral_state = [122.88523673165328, 283527.56432902114, 6537.535142416123, 16997580.846162435]
        polygon = Polytope(np.array([[1.0, 2.0], [-1.0, 0.3], [0.0, -1.0]]), np.array([2.0, 1.0, 1.5]))
        cases = [
            (Polytope.box([-1.0, -2.0], [1.0, 3.0]), 2),
            (Polytope.origin(3), 3),
            (Polytope(np.ones((1, 4)), np.array([0.0])), 4),
            (Polytope(np.array([[0.3, -1.2, 2.0]]), np.array([-0.7])), 3),
            (polygon, 2),
            (PolytopeUnion((Polytope.box([2.0, 2.0], [3.0, 3.0]), polygon)), 2),
        ]
        for U, n in cases:
            dist = _build_distance(as_union(U))
            points = [rng.uniform(-4.0, 4.0, size=n) * 10.0 ** rng.uniform(-3, 3) for _ in range(60)]
            if n == 4:
                points.append(np.array(viral_state))
            for x in points:
                x = tuple(float(v) for v in x)
                assert dist(x) == distance_to_set(U, x)


    def test_sixty_row_polytope_projects(self):
        # sum_{k<=4} C(60, k) = 523,685 candidate active sets: more than an
        # active-set enumeration would try
        rng = np.random.default_rng(60)
        P = Polytope(rng.normal(size=(60, 4)), np.ones(60))
        x = np.full(4, 10.0)
        p = _project_onto_polytope(P, x)
        assert np.all(P.H @ p - P.h <= 1e-12)
        # optimality: x - p is a nonnegative combination of the active rows
        active = P.H @ p - P.h >= -1e-9
        lam, *_ = np.linalg.lstsq(P.H[active].T, x - p, rcond=None)
        assert np.all(lam >= -1e-12)
        assert np.allclose(P.H[active].T @ lam, x - p, rtol=0.0, atol=1e-12)

    def test_projection_at_the_tip_of_a_thin_wedge(self):
        # the distance 1 is eps^-1 times the largest violation eps, so the
        # least-distance residual's last entry is about eps^2; the active rows
        # still give the apex
        for eps in (1e-5, 1e-9):
            P = Polytope(np.array([[-eps, 1.0], [-eps, -1.0]]), np.zeros(2))
            p = _project_onto_polytope(P, np.array([-1.0, 0.0]))
            assert np.allclose(p, 0.0, rtol=0.0, atol=1e-12)

    def test_projection_is_feasible_and_nearest(self):
        # (x - p).(y - p) <= 0 for every y in P characterizes the projection p;
        # checked on numpy-computed vertices of P, where the left side peaks,
        # and on a few interior and boundary points
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 60:
            n = int(rng.integers(2, 5))
            m = int(rng.integers(2 * n, 11))
            H = rng.normal(size=(m, n))
            size = 10.0 ** rng.uniform(-1, 2)
            center = rng.normal(size=n) * size
            P = Polytope(H, H @ center + size * np.linalg.norm(H, axis=1) * rng.uniform(0.5, 1.5, size=m))
            x = center + rng.normal(size=n) * size * 10.0 ** rng.uniform(0, 3)
            if P.contains(x, tol=0.0) or not P.is_bounded:
                continue
            p = _project_onto_polytope(P, x)
            scale = 1.0 + float(x @ x)
            assert np.all(P.H @ p - P.h <= 1e-9 * math.sqrt(scale))
            ys = polytope_samples(P.H, P.h, rng, 4, 20)
            assert np.all((ys - p) @ (x - p) <= 1e-9 * scale)
            checked += 1

    def test_empty_general_part_is_skipped(self):
        empty = Polytope(np.array([[1.0, 1.0], [-1.0, -1.0]]), np.array([-1.0, -1.0]))
        box = Polytope.box([-1.0, -1.0], [1.0, 1.0])
        union = PolytopeUnion((empty, box))
        for x in ([3.0, 0.5], [0.2, -0.4], [-2.0, 5.0]):
            assert distance_to_set(union, x) == distance_to_set(box, x)
        sys_ = planar_system([[0.9, 0.3], [-0.2, 1.1]], [[1.2, 0.0], [0.4, 0.5]])
        problems = [
            OcpProblem(sys=sys_, x=(2.0, -1.5), horizon=4, target=target,
                       cost=CostSpec.uniform(2))
            for target in (union, box)
        ]
        with_empty, without = (solve_ocp(prob) for prob in problems)
        assert with_empty.path == without.path
        assert with_empty.cost == without.cost

    def test_union_of_empty_parts_rejected(self, monkeypatch):
        empty_general = Polytope(np.array([[1.0, 1.0], [-1.0, -1.0]]), np.array([-1.0, -1.0]))
        empty_box = Polytope(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0.0, -1.0]))
        union = PolytopeUnion((empty_general, empty_box))
        with pytest.raises(ValueError, match="empty set"):
            distance_to_set(union, [0.0, 0.0])
        sys_ = planar_system([[0.9, 0.3], [-0.2, 1.1]])
        prob = OcpProblem(sys=sys_, x=(1.0, 1.0), horizon=2, target=union,
                          cost=CostSpec.uniform(1), enforce_terminal=False)
        with pytest.raises(ValueError, match="empty set"):
            solve_ocp(prob)
        # telling an empty box or a halfspace takes no LP
        calls = []
        monkeypatch.setattr(swmpc.geometry, "linprog", lambda *a, **k: calls.append(1))
        halfspace = Polytope(np.array([[1.0, 2.0]]), np.array([0.5]))
        d = distance_to_set(PolytopeUnion((empty_box, halfspace)), [0.5, 1.0])
        assert d == pytest.approx(2.0 / math.sqrt(5.0), rel=1e-15)
        assert calls == []


class TestIllustrativeCertificate:
    def test_four_rotating_subsystems_certify_stabilizable(self):
        # four non-Schur planar subsystems whose combinations contract;
        # a small box around the origin certifies within a few iterations
        from swmpc import build_illustrative_system

        sys_ = build_illustrative_system()
        omega = Polytope.box([-0.1, -0.1], [0.1, 0.1])
        assert stabilizability_certificate(sys_, omega, 3) == 3

    def test_certificate_survives_falsification(self):
        # k = 3 claims every point of (1 + 1e-6) omega reaches omega within
        # k + 1 = 4 steps; at 3 steps some sampled points must fail, or the
        # check could not tell a wrong k
        from swmpc import build_illustrative_system

        sys_ = build_illustrative_system()
        omega = Polytope.box([-0.1, -0.1], [0.1, 0.1])
        points = polytope_samples(
            omega.H, (1.0 + 1e-6) * omega.h, np.random.default_rng(0), 400, 200
        )
        assert len(points) == 604
        assert len(unreached_within(sys_.matrices, omega.H, omega.h, points, 4)) == 0
        assert len(unreached_within(sys_.matrices, omega.H, omega.h, points, 3)) > 0

    def test_hexagon_certificate_survives_falsification(self):
        # the same claim for a regular 6-gon: every point of (1 + 1e-6) omega
        # reaches omega within k + 1 steps, and some point not within k
        sys_ = build_illustrative_system()
        omega = regular_polygon(6, 0.1, 0.3)
        k = stabilizability_certificate(sys_, omega, 3)
        assert k == 3
        points = polytope_samples(
            omega.H, (1.0 + 1e-6) * omega.h, np.random.default_rng(1), 400, 200
        )
        assert len(unreached_within(sys_.matrices, omega.H, omega.h, points, k + 1)) == 0
        assert len(unreached_within(sys_.matrices, omega.H, omega.h, points, k)) > 0

    def test_non_stabilizability_decides_no_part_twice(self, monkeypatch):
        # `prune_empty` decides each part of S_{k+1}, and the region difference
        # that tests the part against omega ∪ S_1 ∪ ... ∪ S_k reads that verdict.
        # Every part holds the origin deep inside, so a repeated decision would
        # make no NNLS solve: the decisions are counted apart from the solves
        scen = builtin_scenario("illustrative")
        decided, solves = [], []
        radius, solve = swmpc.geometry._radius_at_least, swmpc.geometry.nnls

        def recording(P, *args):
            if isinstance(P, Polytope):  # a piece's raw rows are never decided twice
                decided.append(P)
            return radius(P, *args)

        monkeypatch.setattr(swmpc.geometry, "_radius_at_least", recording)
        monkeypatch.setattr(swmpc.geometry, "nnls", lambda *a: solves.append(1) or solve(*a))
        assert non_stabilizability_certificate(scen.sys, scen.analysis_target, 3) is None
        assert len({id(P) for P in decided}) == len(decided) == 340
        assert len(solves) == 148


def _bound(P):
    """The radius R that `_uncovered_pieces` derives from the region P."""
    lo, hi = P.coordinate_ranges
    return float(np.linalg.norm(np.maximum(np.abs(lo), np.abs(hi)) + BAND))


def _cubes(width):
    """{n: the cube [-width, width]^n} for n = 2, 3, 4."""
    return {n: Polytope.box(-width * np.ones(n), width * np.ones(n)) for n in (2, 3, 4)}


def _random_rows(rng, n, m, center, low, high):
    """m random unit rows, each leaving `center` at a depth drawn from U(low, high)."""
    H = rng.normal(size=(m, n))
    H /= np.linalg.norm(H, axis=1)[:, None]
    return H, H @ center + rng.uniform(low, high, size=m)


class TestRadiusDecision:
    """`_radius_at_least` against the Chebyshev LP it replaces."""

    @pytest.fixture
    def lp_count(self, monkeypatch):
        calls = []
        real = swmpc.geometry.linprog

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(swmpc.geometry, "linprog", counting)
        return calls

    @staticmethod
    def _decide(P, R, lp_count):
        """(decision, reference, whether the decision made an LP), on fresh copies."""
        before = len(lp_count)
        got = _radius_at_least(Polytope(P.H, P.h), EMPTY_TOL, R)
        used_lp = len(lp_count) > before
        return got, Polytope(P.H, P.h).chebyshev_radius >= EMPTY_TOL, used_lp

    def test_agrees_on_random_pieces_of_a_box(self, lp_count):
        rng = np.random.default_rng(12)
        cubes = _cubes(1.0)
        outcomes, by_lp = [], 0
        for _ in range(240):
            n = int(rng.integers(2, 5))
            box = cubes[n]
            H, h = _random_rows(rng, n, int(rng.integers(n + 1, 2 * n + 5)),
                                rng.uniform(-1.0, 1.0, size=n), -0.45, 0.6)
            Q = Polytope(H, h)
            got, want, used_lp = self._decide(cut(box, Q.H, Q.h), _bound(box), lp_count)
            assert got == want
            outcomes.append(want)
            by_lp += used_lp
        assert 0.2 < np.mean(outcomes) < 0.8  # both answers are exercised
        assert by_lp <= 0.05 * len(outcomes)

    def test_agrees_on_region_difference_intersections(self, lp_count):
        # a region-difference piece: the region, the outside of one row of a
        # part, then another part, all overlapping near the region's center
        rng = np.random.default_rng(21)
        cubes = _cubes(2.0)
        outcomes, by_lp = [], 0
        for _ in range(240):
            n = int(rng.integers(2, 5))
            region = Polytope(*_random_rows(rng, n, 2 * n + 2, np.zeros(n), 0.5, 1.0))
            region = cut(region, cubes[n].H, cubes[n].h)
            Q1 = Polytope(*_random_rows(rng, n, n + 2, rng.normal(scale=0.3, size=n), -0.1, 0.5))
            Q2 = Polytope(*_random_rows(rng, n, n + 2, rng.normal(scale=0.3, size=n), -0.1, 0.5))
            i = int(rng.integers(Q1.nrows))
            piece = cut(cut(region, -Q1.H[i], -Q1.h[i]), Q2.H, Q2.h)
            # the region lies in the cube, so the cube's bound is a valid R
            got, want, used_lp = self._decide(piece, _bound(cubes[n]), lp_count)
            assert got == want
            outcomes.append(want)
            by_lp += used_lp
        assert 0.2 < np.mean(outcomes) < 0.8
        assert by_lp <= 0.05 * len(outcomes)

    def test_agrees_within_a_hair_of_eps_and_falls_back_in_band(self, lp_count):
        # shifting every row by c shifts the radius of a unit-row polytope by
        # c, so these radii sit at eps -/+ 10^U(-10, -6); the shift shrinks
        # the polytope, so the cube it was cut from still bounds it
        rng = np.random.default_rng(33)
        cubes = _cubes(1.0)
        in_band = by_ldp = 0
        for _ in range(120):
            n = int(rng.integers(2, 5))
            H, h = _random_rows(rng, n, int(rng.integers(n + 1, 2 * n + 3)), np.zeros(n), 0.1, 1.0)
            P = cut(Polytope(H, h), cubes[n].H, cubes[n].h)
            delta = 10.0 ** rng.uniform(-10.0, -6.0) * rng.choice([-1.0, 1.0])
            shift = EMPTY_TOL + delta - P.chebyshev_radius
            assert shift < 0.0
            got, want, used_lp = self._decide(Polytope(P.H, P.h + shift), _bound(cubes[n]), lp_count)
            assert got == want
            if abs(delta) < BAND:
                in_band += 1
                assert used_lp
            else:
                by_ldp += not used_lp
        assert in_band >= 40 and by_ldp >= 20

    def test_zero_row_is_decided_and_unbounded_region_reads_the_lp(self, lp_count):
        # a zero row's LP constraint 0 <= h is not shifted by eps, yet both
        # certificates still prove what the LP would find
        P = Polytope(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [0.0, 0.0]]),
                     np.array([1.0, 1.0, 1.0, 1.0, 0.5]))
        assert self._decide(P, 10.0, lp_count) == (True, True, False)
        assert self._decide(Polytope.box([-1, -1], [1, 1]), math.inf, lp_count) == (True, True, True)
        assert self._decide(Polytope.box([-1, -1], [1, 1]), 10.0, lp_count) == (True, True, False)

    def test_a_failed_solve_reads_the_lp(self, lp_count, monkeypatch):
        solves = []

        def failing(*args):
            solves.append(1)
            raise RuntimeError("NNLS iteration limit")

        monkeypatch.setattr(swmpc.geometry, "nnls", failing)
        triangle = Polytope([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, 1.0])
        assert _radius_at_least(triangle, EMPTY_TOL, 10.0)
        assert (len(solves), len(lp_count)) == (1, 1)

    def test_agrees_with_zero_rows(self, lp_count):
        # pieces of a cube, each with one zero row whose bound h_i lies below
        # -BAND, in (-BAND, 0), at 0, in (0, eps + BAND) or far above: the LP
        # reads the row as 0 <= h_i, the least-distance solve as eps <= h_i
        rng = np.random.default_rng(52)
        cubes = _cubes(1.0)
        kinds = {
            "below -BAND": lambda: -(10.0 ** rng.uniform(-6.5, 0.0)),
            "small negative": lambda: -(10.0 ** rng.uniform(-12.0, -7.5)),
            "zero": lambda: 0.0,
            "within eps + BAND": lambda: (EMPTY_TOL + BAND) * rng.uniform(0.0, 0.99),
            "large": lambda: rng.uniform(0.5, 2.0),
        }
        outcomes, by_ldp = {kind: [] for kind in kinds}, {kind: 0 for kind in kinds}
        for trial in range(300):
            kind = list(kinds)[trial % len(kinds)]
            n = int(rng.integers(2, 5))
            box = cubes[n]
            H, h = _random_rows(rng, n, int(rng.integers(n + 1, 2 * n + 3)),
                                rng.uniform(-0.5, 0.5, size=n), -0.45, 0.6)
            P = cut(box, np.vstack([H, np.zeros(n)]), np.append(h, kinds[kind]()))
            assert not P.H[-1].any()
            got, want, used_lp = self._decide(P, _bound(box), lp_count)
            assert got == want, (kind, P.h[-1])
            outcomes[kind].append(want)
            by_ldp[kind] += not used_lp
        # HiGHS's feasibility tolerance (1e-7) can read a small negative bound
        # as met; no certificate says "yes" there, so the LP decides
        assert not any(outcomes["below -BAND"])
        assert 0.2 < np.mean(outcomes["large"]) < 0.8
        assert any(outcomes["zero"]) and any(outcomes["within eps + BAND"])
        # a bound below -BAND is its own Farkas vector, and a far one leaves
        # the decision to the other rows
        assert by_ldp["below -BAND"] == len(outcomes["below -BAND"])
        assert by_ldp["large"] >= 0.9 * len(outcomes["large"])

    @pytest.fixture
    def nnls_count(self, monkeypatch):
        from scipy.optimize import nnls

        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return nnls(*args, **kwargs)

        monkeypatch.setattr(swmpc.geometry, "nnls", counting)
        return calls

    def test_a_decision_without_the_lp_makes_at_most_one_solve(self, lp_count, nnls_count):
        # the pieces of `test_agrees_on_random_pieces_of_a_box`: the point's
        # solve comes first, and its NNLS vector doubles as the Farkas vector;
        # where h - eps >= BAND in every row that point is the origin, found
        # with no NNLS call
        rng = np.random.default_rng(12)
        cubes = _cubes(1.0)
        solves, origin_solves = [], []
        for _ in range(240):
            n = int(rng.integers(2, 5))
            box = cubes[n]
            H, h = _random_rows(rng, n, int(rng.integers(n + 1, 2 * n + 5)),
                                rng.uniform(-1.0, 1.0, size=n), -0.45, 0.6)
            Q = Polytope(H, h)
            P = cut(box, Q.H, Q.h)
            before = len(nnls_count)
            got, want, used_lp = self._decide(P, _bound(box), lp_count)
            assert got == want
            if not used_lp:
                solves.append(len(nnls_count) - before)
            if (P.h - EMPTY_TOL).min() >= BAND:
                origin_solves.append(len(nnls_count) - before + used_lp)
        assert len(solves) >= 0.95 * 240
        assert np.mean(np.array(solves) <= 1) >= 0.98
        assert origin_solves and not any(origin_solves)



def _max_vertex_norm(P):
    """The largest norm of a vertex of the planar polygon P, each vertex found
    by intersecting a pair of its rows (independent of `coordinate_ranges`)."""
    scale = max(1.0, float(np.max(np.abs(P.h))))
    best = -math.inf
    for i in range(P.nrows):
        for j in range(i + 1, P.nrows):
            M = P.H[[i, j]]
            if abs(np.linalg.det(M)) < 1e-9:
                continue
            x = np.linalg.solve(M, P.h[[i, j]])
            if np.all(P.H @ x <= P.h + 1e-9 * scale):
                best = max(best, float(np.linalg.norm(x)))
    return best


class TestNormBound:
    """The bound `preimage`, `scale` and `pruned` carry for `_uncovered_pieces` and `prune_empty`."""

    def test_bound_holds_along_random_preimage_chains(self):
        rng = np.random.default_rng(16)
        steps = 0
        for _ in range(40):
            P = regular_polygon(int(rng.integers(3, 9)), rng.uniform(0.05, 2.0), rng.uniform(0, 7))
            P = cut(P, rng.normal(size=2), rng.uniform(0.5, 2.0))  # sometimes redundant
            R = _norm_bound(P, solve=True)
            assert R >= _max_vertex_norm(P)
            for _ in range(4):
                A = rng.normal(size=(2, 2))
                if abs(np.linalg.det(A)) < 0.05:
                    continue
                P = P.preimage(A)
                R = _norm_bound(P)
                assert math.isfinite(R) and R >= _max_vertex_norm(P)
                f = rng.uniform(0.5, 2.0)
                assert _norm_bound(P.scale(f)) >= _max_vertex_norm(P.scale(f))
                steps += 1
        assert steps > 100

    def test_bound_is_tight_and_still_holds_under_scaled_rotations(self):
        # x -> c Rot(t) maps the corners of a box onto the norm ball's edge,
        # so R / sigma_min is exact along these chains and only the padding
        # keeps the carried bound above the vertex norms; the box is large
        # so that BAND adds nothing measurable to the box's own bound
        rng = np.random.default_rng(61)
        width = 1e10
        for _ in range(30):
            P = Polytope.box([-width, -width], [width, width])
            for _ in range(5):
                P = P.preimage(rng.uniform(0.5, 2.0) * rotation_matrix(rng.uniform(0, 7)))
                for Q in (P, P.scale(rng.uniform(0.5, 2.0))):
                    vertex = _max_vertex_norm(Q)
                    assert vertex <= _norm_bound(Q) <= vertex * (1.0 + 1e-9)


class TestPruneEmpty:
    """`PolytopeUnion.prune_empty`'s decisions against the Chebyshev LP."""

    @staticmethod
    def _parts(rng, n, count):
        """Parts in R^n of three kinds, radius drawn about EMPTY_TOL (cut cubes
        with a solved norm bound, thin boxes, and preimages), each with
        `chebyshev_radius >= EMPTY_TOL` of a fresh copy."""
        parts, nonempty = [], []
        while len(parts) < count:
            delta = 10.0 ** rng.uniform(-6.5, -1.0) * rng.choice([-1.0, 1.0])
            kind = len(parts) % 3
            if kind == 0:
                H, h = _random_rows(rng, n, n + 3, np.zeros(n), 0.1, 1.0)
                P = cut(Polytope(H, h), _cubes(1.0)[n].H, _cubes(1.0)[n].h)
                P = Polytope(P.H, P.h + EMPTY_TOL + delta - P.chebyshev_radius)
                _norm_bound(P, solve=True)  # recorded, so the part has a known bound
            else:
                half = np.full(n, rng.uniform(0.5, 1.0))
                half[int(rng.integers(n))] = EMPTY_TOL + delta
                P = Polytope(np.vstack([np.eye(n), -np.eye(n)]), np.concatenate([half, half]))
                if kind == 2:
                    A = rng.normal(size=(n, n))
                    if abs(np.linalg.det(A)) < 0.1:
                        continue
                    P = P.preimage(A)
            radius = Polytope(P.H, P.h).chebyshev_radius
            if abs(radius - EMPTY_TOL) > BAND:
                parts.append(P)
                nonempty.append(radius >= EMPTY_TOL)
        return parts, nonempty

    def test_decisions_equal_the_lp_outside_the_band(self, monkeypatch):
        rng = np.random.default_rng(8)
        calls = []
        real = swmpc.geometry.linprog
        counting = lambda *a, **k: calls.append(1) or real(*a, **k)  # noqa: E731
        for n in (2, 3):
            parts, want = self._parts(rng, n, 120)
            # an empty part's coordinate ranges or box have hi < lo, so its bound is
            # -inf and it is dropped without a solve; every other bound is finite
            bounds = [_norm_bound(P) for P in parts]
            assert all(math.isfinite(R) if w else R == -math.inf for R, w in zip(bounds, want))
            with monkeypatch.context() as m:
                m.setattr(swmpc.geometry, "linprog", counting)
                kept = PolytopeUnion(tuple(parts)).prune_empty().parts
            assert [any(P is K for K in kept) for P in parts] == want
            assert 0.2 < np.mean(want) < 0.8
        assert len(calls) <= 0.05 * 240

    def test_part_without_a_known_bound_reads_the_lp(self, monkeypatch):
        calls = []
        real = swmpc.geometry.linprog
        monkeypatch.setattr(
            swmpc.geometry, "linprog", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        hexagon = regular_polygon(6, 1e-3, 0.2)
        assert PolytopeUnion((hexagon,)).prune_empty().parts == (hexagon,)
        assert calls == [1]


class TestLpKernel:
    """`_lp` (HiGHS through scipy's bundled bindings) against `linprog(method="highs")`, bit for bit."""

    @staticmethod
    def _recorded(monkeypatch):
        """The (c, A_ub, b_ub) of each LP that geometry solves, with `_lp`'s result."""
        lps = []
        real = swmpc.geometry._lp

        def recording(c, A_ub, b_ub):
            res = real(c, A_ub, b_ub)
            lps.append((c, A_ub, b_ub, res))
            return res

        monkeypatch.setattr(swmpc.geometry, "_lp", recording)
        return lps

    def test_same_status_x_and_fun_as_linprog(self, monkeypatch):
        lps = self._recorded(monkeypatch)
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(2, 5))
            H, h = _random_rows(rng, n, int(rng.integers(n + 1, 3 * n)),
                                rng.normal(scale=0.3, size=n), -0.2, 1.0)
            P = cut(Polytope(H, h), _cubes(1.0)[n].H, _cubes(1.0)[n].h)
            P.chebyshev_ball  # noqa: B018
            P.support(rng.normal(size=n))
            P.pruned()
        kinds = len(lps)
        empty = Polytope(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0.0, -1.0]))
        halfplane = Polytope(np.array([[1.0, 1.0]]), np.array([1.0]))
        assert empty.support([0.0, 1.0]) == -math.inf  # infeasible
        assert halfplane.support([1.0, 0.0]) == math.inf  # unbounded
        assert halfplane.chebyshev_radius == math.inf  # unbounded
        statuses = [res.status for *_, res in lps]
        assert kinds > 600 and statuses[kinds:] == [2, 3, 3]
        for c, A_ub, b_ub, res in lps:
            ref = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=[(None, None)] * len(c), method="highs")
            assert res.status == ref.status
            if ref.status == 0:
                assert np.array_equal(res.x, ref.x) and res.fun == ref.fun


class TestNnlsKernel:
    """`geometry.nnls`, scipy's compiled kernel without its wrapper, against
    `scipy.optimize.nnls`, and the checks that the wrapper made."""

    def test_same_x_and_rnorm_as_scipy(self):
        rng = np.random.default_rng(23)
        for trial in range(600):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 12))
            if trial % 2:  # a least-distance system: [-H^T; -g^T / s] and e_{n+1}
                H, g = rng.normal(size=(m, n)), rng.normal(size=m)
                E = np.vstack([-H.T, -g / -g.min()])
                b = np.zeros(n + 1)
                b[n] = 1.0
            else:
                E, b = rng.normal(size=(n + 1, m)), rng.normal(size=n + 1)
            x, rnorm = swmpc.geometry.nnls(E, b)
            ref_x, ref_rnorm = nnls(E, b)
            assert x.tobytes() == ref_x.tobytes()
            assert struct.pack("<d", rnorm) == struct.pack("<d", ref_rnorm)

    def test_iteration_limit_raises(self, monkeypatch):
        limits = []

        def stub(A, b, maxiter):
            limits.append(maxiter)
            return np.zeros(A.shape[1]), 0.0, 3

        kernels = swmpc.geometry._scipy()
        monkeypatch.setattr(swmpc.geometry, "_scipy", lambda: (*kernels[:3], stub))
        with pytest.raises(RuntimeError, match="Maximum number of iterations reached"):
            swmpc.geometry.nnls(np.ones((3, 5)), np.ones(3))
        assert limits == [15]  # the wrapper's default, 3 * A.shape[1]

    @pytest.mark.parametrize("where", ["H", "g"])
    def test_least_distance_rejects_an_infinite_entry(self, where):
        H, g = np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([-1.0, 2.0])
        if where == "H":
            H[1, 0] = math.inf
        else:
            g[1] = math.inf
        with pytest.raises(ValueError):  # as scipy's wrapper raised
            _least_distance(H, g)


class StubHighs:
    """Stands in for the per-thread HiGHS solver and ends every LP with one model status."""

    def __init__(self, status):
        self.status = status

    def passModel(self, lp):
        return HighsStatus.kOk

    def run(self):
        return HighsStatus.kOk

    def getModelStatus(self):
        return self.status

    def modelStatusToString(self, status):
        return status.name


# HiGHS outcomes that are no verdict; `milp` read kModelError as "infeasible"
FAILED_STATUSES = (
    HighsModelStatus.kIterationLimit,
    HighsModelStatus.kModelError,
    HighsModelStatus.kUnboundedOrInfeasible,
)


def _result_bits(res):
    """Status, x and fun as exact bytes (x and fun only for an optimum)."""
    if res.status != 0:
        return res.status, None, None
    return res.status, res.x.tobytes(), struct.pack("<d", res.fun)


class TestLpSolver:
    """`linprog`'s one HiGHS solver per thread: statuses, input checks and reuse."""

    @pytest.mark.parametrize("status", FAILED_STATUSES, ids=lambda s: s.name)
    def test_other_outcomes_are_status_4_and_raise(self, monkeypatch, status):
        monkeypatch.setattr(swmpc.geometry._THREAD, "highs", StubHighs(status), raising=False)
        res = swmpc.geometry.linprog(np.array([1.0, 0.0]), np.eye(2), np.ones(2))
        assert res.status == 4 and res.x is None and res.fun is None
        P = Polytope.box([-1, -1], [1, 1])
        with pytest.raises(NumericalError):
            P.support([1.0, 0.0])
        with pytest.raises(NumericalError):
            P.chebyshev_radius
        assert P.pruned() is P  # no LP: a witness keeps each row
        with pytest.raises(NumericalError):
            cut(P, [1.0, 1.0], 5.0).pruned()

    def test_non_finite_data_raises_rather_than_reads_infeasible(self):
        A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        b = np.ones(4)
        c = np.array([1.0, 0.0])
        with_nan = b.copy()
        with_nan[1] = math.nan
        assert _lp(c, A, b).status == 0
        with pytest.raises(ValueError):
            _lp(c, A, with_nan)
        for k, bad in ((0, math.inf), (2, -math.inf), (3, math.nan)):
            A_bad, b_bad, c_bad = A.copy(), b.copy(), c.copy()
            A_bad[k, 1] = bad
            with pytest.raises(ValueError):
                _lp(c, A_bad, b)
            b_bad[k] = bad
            with pytest.raises(ValueError):
                _lp(c, A, b_bad)
            c_bad[k % 2] = bad
            with pytest.raises(ValueError):
                _lp(c_bad, A, b)
        with pytest.raises(ValueError):
            Polytope.box([-1.0, -1.0], [1.0, 1.0]).support([math.nan, 0.0])

    def test_reuse_carries_no_state_between_lps_or_threads(self, monkeypatch):
        # the LPs of `TestLpKernel`, solved in order, then in reverse order
        # and from other threads, each of which makes a solver of its own
        lps = TestLpKernel._recorded(monkeypatch)
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(2, 5))
            H, h = _random_rows(rng, n, int(rng.integers(n + 1, 3 * n)),
                                rng.normal(scale=0.3, size=n), -0.2, 1.0)
            P = cut(Polytope(H, h), _cubes(1.0)[n].H, _cubes(1.0)[n].h)
            P.chebyshev_ball  # noqa: B018
            P.support(rng.normal(size=n))
            P.pruned()
        Polytope(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0.0, -1.0])).support([0.0, 1.0])
        Polytope(np.array([[1.0, 1.0]]), np.array([1.0])).chebyshev_radius  # noqa: B018
        assert {res.status for *_, res in lps} == {0, 2, 3}
        in_order = [_result_bits(res) for *_, res in lps]
        solver = swmpc.geometry._THREAD.highs

        def solve(order):
            return {i: _result_bits(swmpc.geometry.linprog(*lps[i][:3])) for i in order}

        reverse = solve(reversed(range(len(lps))))
        assert swmpc.geometry._THREAD.highs is solver
        assert [reverse[i] for i in range(len(lps))] == in_order
        # more threads than cores, solving at once with frequent switches
        results, solvers = [{} for _ in range(4)], [None] * 4

        def in_thread(k):
            results[k].update(solve(range(len(lps))))
            solvers[k] = swmpc.geometry._THREAD.highs

        threads = [threading.Thread(target=in_thread, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len({id(s) for s in [solver, *solvers]}) == 5  # one solver per thread
        for other in results:
            assert [other[i] for i in range(len(lps))] == in_order


class TestRegionDifference:
    """`_uncovered_pieces` on random planar regions and unions of 1-4 polygons."""

    @staticmethod
    def _polygon(rng, scale, inradius):
        center = rng.normal(scale=scale, size=2)
        P = regular_polygon(int(rng.integers(3, 9)), rng.uniform(*inradius), rng.uniform(0, 7))
        return Polytope(P.H, P.h + P.H @ center)

    def test_pieces_lie_outside_the_union_and_cover_verdicts_hold(self):
        rng = np.random.default_rng(23)
        verdicts = []
        for trial in range(200):
            P = self._polygon(rng, 0.1, (0.2, 0.6))
            parts = [self._polygon(rng, 0.4, (0.3, 1.0)) for _ in range(int(rng.integers(1, 5)))]
            if trial % 2:  # largest first: the verdict must not depend on the part order
                parts.sort(key=lambda p: -min(p.chebyshev_radius, 1e300))
            piece = next(_uncovered_pieces(P, parts), None)
            verdicts.append(piece is None)
            if piece is None:
                axes = [np.linspace(a, b, 41) for a, b in zip(*P.coordinate_ranges)]
                grid = np.stack(np.meshgrid(*axes), -1).reshape(-1, 2)
                inner = grid[np.all(grid @ P.H.T <= P.h - 1e-6, axis=1)]  # P shrunk by 1e-6
                assert len(inner) > 400
                assert all(any(Q.contains(x) for Q in parts) for x in inner)
                continue
            rebuilt = Polytope(*piece)
            assert np.array_equal(rebuilt.H, piece[0]) and np.array_equal(rebuilt.h, piece[1])
            center = rebuilt.chebyshev_ball[1]
            assert P.contains(center)
            assert not any(Q.contains(center) for Q in parts)
        assert 0.2 < np.mean(verdicts) < 0.8


def _restarting_certificate(sys_, omega, kmax):
    """`stabilizability_certificate` with a fresh `_uncovered_pieces` for every
    inflated part at every level, the search that the certificate resumes."""
    omega = as_union(omega)
    limit = part_cap()
    inflated = [P.scale(1.0 + INTERIOR_INFLATION) for P in omega.parts]
    accumulated, current = [], omega
    for k in range(kmax + 1):
        current = swmpc.geometry.controllable_set(sys_, current)
        accumulated.extend(current.parts)
        if len(accumulated) > limit:
            raise GeometryCapError(
                f"accumulated controllable sets exceeded {limit} parts (see {PART_CAP_ENV})"
            )
        if all(next(_uncovered_pieces(P, accumulated), None) is None for P in inflated):
            return k
    return None


def _random_planar_case(rng):
    """2-4 sheared, scaled rotations about as likely to contract as to expand,
    and a regular polygon about the origin."""
    mats = [
        rng.uniform(0.9, 1.4) * rotation_matrix(rng.uniform(0, 2 * np.pi))
        @ np.array([[1.0, rng.uniform(-0.5, 0.5)], [0.0, 1.0]])
        for _ in range(int(rng.integers(2, 5)))
    ]
    omega = regular_polygon(int(rng.integers(3, 9)), rng.uniform(0.05, 0.3), rng.uniform(0, 7))
    return planar_system(*mats), omega


class TestResumedSearch:
    """`stabilizability_certificate`, whose region difference resumes across k,
    against `_restarting_certificate`."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"levels": 0, "radius": 0}
        level, radius = swmpc.geometry.controllable_set, swmpc.geometry._radius_at_least

        def counting_level(*args):
            counts["levels"] += 1
            return level(*args)

        def counting_radius(*args):
            counts["radius"] += 1
            return radius(*args)

        monkeypatch.setattr(swmpc.geometry, "controllable_set", counting_level)
        monkeypatch.setattr(swmpc.geometry, "_radius_at_least", counting_radius)
        return counts

    @staticmethod
    def _both(counts, sys_, omega, kmax):
        """(k or the cap error's message, levels built, radius decisions), for the
        certificate and then for the restarting oracle, each on its own copy of
        omega's parts, so that neither reads the other's cached preimages and verdicts."""
        out = []
        for certify in (stabilizability_certificate, _restarting_certificate):
            counts.update(levels=0, radius=0)
            own = PolytopeUnion(tuple(Polytope(P.H, P.h) for P in as_union(omega).parts))
            try:
                k = certify(sys_, own, kmax)
            except GeometryCapError as err:
                k = str(err)
            out.append((k, counts["levels"], counts["radius"]))
        return out

    @staticmethod
    def _check(got, want):
        assert got[:2] == want[:2]
        # a level after the first resumes its search, and skips the decisions
        # that a restarted search repeats (at least the test of P itself)
        assert got[2] < want[2] if got[1] > 1 else got[2] == want[2]

    @pytest.mark.parametrize("kmax", range(5))
    def test_illustrative_matches_a_restarted_search(self, counts, kmax):
        omega = Polytope.box([-0.1, -0.1], [0.1, 0.1])
        got, want = self._both(counts, build_illustrative_system(), omega, kmax)
        self._check(got, want)
        assert got[0] == (3 if kmax >= 3 else None)

    def test_random_planar_systems_match_a_restarted_search(self, counts):
        rng = np.random.default_rng(7)
        verdicts = []
        for _ in range(24):
            got, want = self._both(counts, *_random_planar_case(rng), 3)
            self._check(got, want)
            verdicts.append(got[0])
        assert sum(k is None for k in verdicts) >= 3
        assert sum(k is not None and k >= 1 for k in verdicts) >= 5

    def test_piece_budget_counts_across_levels(self, counts, monkeypatch):
        # the budget counts every piece since the search began, as a restarted
        # search counts the pieces of the levels it repeats
        rng = np.random.default_rng(7)
        late_budget_errors = 0
        for _ in range(24):
            case = _random_planar_case(rng)
            for cap in (4, 8, 16, 24):
                monkeypatch.setenv(PART_CAP_ENV, str(cap))
                got, want = self._both(counts, *case, 3)
                assert got[:2] == want[:2]
                late_budget_errors += "region difference" in str(got[0]) and got[1] > 1
        assert late_budget_errors >= 3


class TestFeasibleRegionIsControllableSet:
    """The two engines against each other.  With the terminal constraint, a
    horizon-N problem is feasible from x0 exactly when x0 lies in S_N, the
    N-fold `controllable_set` of the target, wherever the state set and the
    dwell and cycle rules do not bind; where they do, they only remove paths,
    so x0 outside S_N is still infeasible.

    The two sides apply one band, MEMBERSHIP_TOL = 1e-9, to different rows.
    `solve_ocp` checks A_path x0 against the target's unit rows, and
    `PolytopeUnion.contains` checks x0 against the unit rows of H A_path.
    A point whose membership in S_N changes between the tolerances -1e-6
    and 1e-6 is near a boundary, where the two may differ, so those points
    are counted apart.  Elsewhere the
    controller decides with a margin of at least 1e-6 times the least
    singular value of A_path, above 0.1 for these matrices, so far above
    both tolerances that a disagreement there is a defect.
    """

    @staticmethod
    def _feasible(problem):
        try:
            solve_ocp(problem)
        except InfeasibleProblemError:
            return False
        return True

    @staticmethod
    def _near(S, x):
        return S.contains(x, 1e-6) != S.contains(x, -1e-6)

    @staticmethod
    def _boundary_points(rng, S):
        """A point of S's boundary, bisected to 2^-50 along a ray from the
        center of a part to a point outside S, and the points 1e-5 before and
        after it on the ray; none when the ray stays in S."""
        inside = S.parts[rng.integers(len(S))].chebyshev_ball[1]
        ray = rotation_matrix(rng.uniform(0, 2 * np.pi))[0]
        outside = inside + 20.0 * ray
        if S.contains(outside):
            return []
        for _ in range(50):
            mid = 0.5 * (inside + outside)
            inside, outside = (mid, outside) if S.contains(mid) else (inside, mid)
        return [inside - 1e-5 * ray, inside, inside + 1e-5 * ray]

    @staticmethod
    def _target(rng):
        kind = rng.integers(3)
        if kind == 0:
            center, half = rng.uniform(-0.5, 0.5, 2), rng.uniform(0.2, 1.0, 2)
            return Polytope.box(center - half, center + half)
        if kind == 1:
            return regular_polygon(int(rng.integers(3, 8)), rng.uniform(0.3, 1.0), rng.uniform(0, 7))
        centers, halves = rng.uniform(-0.8, 0.8, (2, 2)), rng.uniform(0.1, 0.6, (2, 2))
        return PolytopeUnion(tuple(Polytope.box(c - h, c + h) for c, h in zip(centers, halves)))

    def test_random_planar_systems_agree_off_the_boundary(self):
        rng = np.random.default_rng(71)
        counts = {"member": 0, "outside": 0, "near": 0, "near_disagree": 0}
        for _ in range(40):
            q, N = int(rng.integers(2, 4)), int(rng.integers(1, 4))
            sys_ = planar_system(*(
                rng.uniform(0.6, 1.4) * rotation_matrix(rng.uniform(0, 2 * np.pi))
                @ np.array([[1.0, rng.uniform(-0.5, 0.5)], [0.0, 1.0]])
                for _ in range(q)
            ))
            target = self._target(rng)
            S = as_union(target)
            for _ in range(N):
                S = controllable_set(sys_, S)
            points = [rng.uniform(-2.0, 2.0, 2) for _ in range(20)]
            points += [p for _ in range(5) for p in self._boundary_points(rng, S)]
            for x0 in points:
                problem = OcpProblem(sys_, x0, N, target, CostSpec.uniform(q))
                feasible, member = self._feasible(problem), S.contains(x0)
                if self._near(S, x0):
                    counts["near"] += 1
                    counts["near_disagree"] += feasible != member
                else:
                    assert feasible == member, (sys_.matrices, target, N, x0.tolist())
                    counts["member" if member else "outside"] += 1
        assert counts["member"] >= 400 and counts["outside"] >= 600 and counts["near"] >= 150, counts

    def test_cancer_rules_only_remove_paths(self):
        rng = np.random.default_rng(73)
        template = builtin_scenario("cancer").mpc  # dwell bounds, cycle rule, the orthant
        target = Polytope.box([0.0, 0.0], [150.0, 250.0])
        counts = {"outside": 0, "member_feasible": 0, "member_infeasible": 0, "near": 0}
        for N in (2, 3, 4, 5):
            S = as_union(target)
            for _ in range(N):
                S = controllable_set(template.sys, S)
            for _ in range(60):
                x0 = rng.uniform(0.0, 600.0, 2)
                problem = replace(template, x=x0, horizon=N, target=target, enforce_terminal=True)
                feasible = self._feasible(problem)
                if self._near(S, x0):
                    counts["near"] += 1
                elif not S.contains(x0):
                    assert not feasible, (N, x0.tolist())
                    counts["outside"] += 1
                else:
                    counts["member_feasible" if feasible else "member_infeasible"] += 1
        # the dwell bounds do bind: some members of S_N are infeasible
        assert min(counts["outside"], counts["member_feasible"], counts["member_infeasible"]) >= 5, counts
