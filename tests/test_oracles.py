import itertools
import time

import numpy as np
import pytest

from swmpc import Polytope, build_illustrative_system

from .oracles import min_norm_after, polytope_samples, random_matrix


def enumerate_min_norm(matrices, x0, K):
    """Smallest ||x(K)|| over every sequence, by plain enumeration."""
    best = np.inf
    for sigs in itertools.product(range(len(matrices)), repeat=K):
        x = np.asarray(x0, dtype=float)
        for s in sigs:
            x = matrices[s] @ x
        best = min(best, float(np.linalg.norm(x)))
    return best


def final_norm(matrices, x0, signals):
    x = np.asarray(x0, dtype=float)
    for s in signals:
        x = matrices[s - 1] @ x
    return float(np.linalg.norm(x))


def _check(matrices, x0, K):
    norm, signals = min_norm_after(matrices, x0, K)
    assert len(signals) == K
    assert all(1 <= s <= len(matrices) for s in signals)
    assert norm == pytest.approx(final_norm(matrices, x0, signals), rel=1e-12)
    assert norm == pytest.approx(enumerate_min_norm(matrices, x0, K), rel=1e-12)


@pytest.mark.parametrize("K", range(9))
def test_min_norm_matches_enumeration_on_illustrative_family(K):
    matrices = build_illustrative_system().matrices
    _check(matrices, (-0.5, 0.5), K)


@pytest.mark.parametrize("seed", range(6))
def test_min_norm_matches_enumeration_on_random_planar_families(seed):
    rng = np.random.default_rng(seed)
    q = int(rng.integers(2, 4))
    matrices = tuple(random_matrix(rng, 2, float(rng.uniform(0.5, 1.5))) for _ in range(q))
    x0 = tuple(rng.uniform(-2.0, 2.0, size=2))
    for K in range(7 if q == 3 else 9):
        _check(matrices, x0, K)


def test_samples_of_a_long_thin_polytope_are_inside_and_fast():
    # six random rows in R^4, stretched tenfold along a random axis: the
    # polytope fills little of its vertex box, so rejection from that box
    # took seconds for 40 points
    rng = np.random.default_rng(1)
    H = rng.normal(size=(6, 4))
    Q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    H = H @ np.linalg.inv(Q @ np.diag([10.0, 1.0, 1.0, 1.0]) @ Q.T)
    h = np.ones(6)
    assert Polytope(H, h).is_bounded
    t0 = time.perf_counter()
    points = polytope_samples(H, h, np.random.default_rng(0), 40, 0)
    elapsed = time.perf_counter() - t0
    drawn = points[-40:]
    assert len(np.unique(drawn, axis=0)) == 40
    assert np.all(drawn @ H.T <= h)
    assert np.all(points @ H.T <= h + 1e-12)
    assert elapsed < 0.5
