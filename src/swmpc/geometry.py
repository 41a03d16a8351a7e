"""Polytope geometry for switched-system set analysis.

Convex polytopes are kept in H-representation {x : Hx <= h} with rows scaled
to unit norm; nonconvex regions are finite unions of such polytopes.  On top
of that this module provides one-step preimages under nonsingular maps
(`Polytope.preimage`), controllable sets, switched-invariance verification and
stabilizability / non-stabilizability certificates.  Distances to a union are
in `controller`, beside the solver that evaluates them.  No settled fact is
derived twice: a part is pruned once, with no LP for a row that a witness
point keeps; a matrix is checked once; a part's emptiness verdict is kept.

Numerical conventions: a polytope counts as empty when its Chebyshev radius
is below EMPTY_TOL; sets thinner than that tolerance are treated as empty by
the union-inclusion machinery (exact singletons are special-cased where the
pointwise definition matters).  The region difference and `prune_empty`
decide radius >= eps by a checked least-distance solve (`_radius_at_least`)
and read the Chebyshev LP only where its checks do not decide; every radius
whose value is used (`is_empty`, the invariance check's counterexample) is the
LP's.  The region difference tries the parts in list order, on pieces kept as
raw (H, h) unit rows.  Both solvers are scipy's compiled kernels behind private
modules that a scipy release may move: each LP is one `linprog` call on HiGHS
(`scipy.optimize._highspy`), one solver per thread, each LP a fresh model; each
least-distance solve is one `nnls` call (`scipy.optimize._slsqplib`), without
the public wrapper's checks.  scipy is imported on the first of either, so a
run that makes neither (a controller loop on a box or halfspace target) never
loads it.
"""

from __future__ import annotations

import math
import os
import threading
from contextlib import suppress
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from scipy.optimize import OptimizeResult


EMPTY_TOL = 1e-9
MEMBERSHIP_TOL = 1e-9
INTERIOR_INFLATION = 1e-6
PRUNE_TOL = 1e-9
UNIT_NORM_TOL = 4e-16
# a least-distance emptiness decision needs its certificate to hold with this
# margin on either side of eps; closer to eps it falls back to the LP
BAND = 1e-7
WITNESS_MARGIN = 1e-6  # ten times HiGHS's feasibility and optimality tolerances
CACHE_SIZE = 256  # per process-wide cache (matrices, products, contexts): more than an op uses
DEFAULT_PART_CAP = 100_000
PART_CAP_ENV = "SWMPC_PART_CAP"


class GeometryCapError(RuntimeError):
    """A part-count or piece-budget cap was exceeded."""


class SingularMatrixError(ValueError):
    """A subsystem matrix is numerically singular where invertibility is required."""


class NumericalError(RuntimeError):
    """An LP stopped without a verdict (iteration limit or numerical difficulty)."""


def part_cap() -> int:
    """`SWMPC_PART_CAP`, an integer >= 1 (else ValueError), or DEFAULT_PART_CAP if unset."""
    value = os.environ.get(PART_CAP_ENV, DEFAULT_PART_CAP)
    with suppress(ValueError):
        if (cap := int(value)) >= 1:
            return cap
    raise ValueError(f"{PART_CAP_ENV} must be an integer >= 1, got {value!r}")


def _check_cap(count: int, limit: int, what: str, unit: str = "parts") -> None:
    """Raise `GeometryCapError` when count exceeds the limit read from `part_cap()`."""
    if count > limit:
        raise GeometryCapError(f"{what} exceeded {limit} {unit} (see {PART_CAP_ENV})")


_THREAD = threading.local()  # .highs: this thread's HiGHS solver, made on first use


@cache
def _scipy():
    """scipy's private compiled kernels, imported once, on the first LP or NNLS
    solve: the HiGHS bindings, `OptimizeResult` and the map from a HiGHS verdict
    to `linprog`'s status, and the NNLS kernel."""
    from scipy.optimize import OptimizeResult
    from scipy.optimize._highspy import _core
    from scipy.optimize._slsqplib import nnls

    status = {_core.HighsModelStatus.kOptimal: 0, _core.HighsModelStatus.kInfeasible: 2,
              _core.HighsModelStatus.kUnbounded: 3}
    return _core, OptimizeResult, status, nnls


def linprog(c, A_ub, b_ub) -> OptimizeResult:
    """min c.x s.t. A_ub x <= b_ub, x free, on this thread's HiGHS solver, made
    with `milp`'s one effective option (no console log).  passModel hands it
    each LP as a new model, A_ub column-wise with its nonzeros in CSC order as
    `milp` passed it, and no basis carries over.  Status is 0, 2 or 3 for
    optimal, infeasible or unbounded (x and fun only with 0), else 4.
    Non-finite data raises ValueError."""
    c, A, b = (np.asarray(v, dtype=float) for v in (c, A_ub, b_ub))
    if not (np.isfinite(c).all() and np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("LP data must be finite")
    core, OptimizeResult, status, _ = _scipy()
    highs = getattr(_THREAD, "highs", None)
    if highs is None:
        options = core.HighsOptions()
        options.log_to_console = False
        highs = _THREAD.highs = core._Highs()
        highs.passOptions(options)
    lp, (m, n) = core.HighsLp(), A.shape
    lp.num_col_, lp.num_row_, lp.col_cost_, lp.row_upper_ = n, m, c.tolist(), b.tolist()
    lp.col_lower_, lp.col_upper_, lp.row_lower_ = [-math.inf] * n, [math.inf] * n, [-math.inf] * m
    start, index, value = [0], [], []
    for col in A.T.tolist():
        rows = [i for i, a in enumerate(col) if a]  # 0.0 and -0.0 are not stored
        index += rows
        value += [col[i] for i in rows]
        start.append(len(index))
    matrix = lp.a_matrix_
    matrix.format_, matrix.num_col_, matrix.num_row_ = core.MatrixFormat.kColwise, n, m
    matrix.start_, matrix.index_, matrix.value_ = start, index, value
    if highs.passModel(lp) == core.HighsStatus.kError:
        model_status = core.HighsModelStatus.kModelError
    else:
        highs.run()
        model_status = highs.getModelStatus()
    res = OptimizeResult(status=status.get(model_status, 4), x=None, fun=None,
                         message=highs.modelStatusToString(model_status))
    if res.status == 0:
        res.x, res.fun = np.array(highs.getSolution().col_value), highs.getObjectiveValue()
    return res


def _lp(c, A_ub, b_ub):
    """`linprog`'s result, of status 0 (optimal), 2 (infeasible) or 3 (unbounded);
    any other HiGHS outcome raises NumericalError rather than pass for a verdict."""
    res = linprog(c, A_ub, b_ub)
    if res.status not in (0, 2, 3):
        raise NumericalError(f"LP failed with status {res.status}: {res.message}")
    return res


def nnls(A, b):
    """`scipy.optimize.nnls(A, b)` bit for bit, for C-ordered float64 data, without
    the wrapper's checks: its kernel, with its iteration limit, 3 * A.shape[1],
    whose info 3 raises RuntimeError."""
    x, rnorm, info = _scipy()[3](A, b, 3 * A.shape[1])
    if info == 3:
        raise RuntimeError("Maximum number of iterations reached.")
    return x, rnorm


def _least_distance(H: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Least-distance programming, min ||z|| s.t. H z <= g, by one NNLS solve
    (Lawson & Hanson, Solving Least Squares Problems, 1974, ch. 23).

    When g >= 0, z = 0.  Otherwise, with g scaled by its most negative entry -s,
    u >= 0 minimizes ||[-H^T; -g^T / s] u - e_{n+1}||, with residual r; r[n] =
    -||r||^2, and z = -s r[:n] / r[n] unless r vanishes, when the rows are
    infeasible and z is None.  Returns (u, z); any u with H^T u small and u.g
    negative is a Farkas certificate of infeasibility.  Non-finite data raises
    ValueError; NNLS's RuntimeError (iteration limit) propagates.
    """
    m, n = H.shape
    s = -float(g.min())
    if not s > 0.0:
        return np.zeros(m), np.zeros(n)
    E = np.empty((n + 1, m))
    E[:n], E[n] = -H.T, g / -s
    if not np.isfinite(E).all():
        raise ValueError("least-distance data must be finite")
    e = np.zeros(n + 1)
    e[n] = 1.0
    u, _ = nnls(E, e)
    r = E @ u - e
    if not r[n] < 0.0:
        return u, None
    return u, -s * r[:n] / r[n]


def _norm_bound(P: "Polytope", solve: bool = False) -> float:
    """A bound on the norm of P's points: carried by `preimage`, `scale` and
    `pruned`, else read from P's box (with solve, from its coordinate ranges,
    whichever call cached them) and padded by BAND, or -inf when they show P
    empty (hi < lo); inf if none is known."""
    R = P.__dict__.get("_norm_bound", math.inf)
    if R == math.inf and (ranges := P.box_bounds or (P.coordinate_ranges if solve else None)):
        lo, hi = ranges
        R = float(np.linalg.norm(np.maximum(-lo, hi) + BAND)) if np.all(lo <= hi) else -math.inf
        P.__dict__["_norm_bound"] = R
    return R


def _radius_at_least(P: "Polytope | tuple[np.ndarray, np.ndarray]", eps: float, R: float) -> bool:
    """P.chebyshev_radius >= eps, i.e. {x : Hx <= h - eps} is nonempty, for P
    inside the ball of radius R (empty if R < 0); P may also be the raw (H, h)
    of a region-difference piece, made a Polytope only for the LP.

    One least-distance solve, for the point of {Hx <= h - eps - BAND}, decides
    when a certificate checks: the point, if it satisfies Hx <= h - eps row by
    row, proves "yes"; its NNLS vector u, if u.(h - eps + BAND) + ||H^T u|| R
    < 0, proves that {Hx <= h - eps + BAND}, and so {Hx <= h - eps}, has no
    point in the ball.  The two cannot both hold.  A radius within about BAND
    of eps, a failed check or solve, a zero row (whose LP constraint is not
    shifted by eps) and an unbounded R read the Chebyshev LP.
    """
    if R < 0.0:
        return False
    H, h = P if isinstance(P, tuple) else (P.H, P.h)
    if math.isfinite(R) and H.any(axis=1).all():
        d = h - eps
        try:
            u, x = _least_distance(H, d - BAND)
            if x is not None and (H @ x <= d).all():
                return True
            v = H.T @ u  # ||v|| as np.linalg.norm(v) computes it, bit for bit
            if u @ (d + BAND) + math.sqrt(v @ v) * R < 0.0:
                return False
        except RuntimeError:
            pass
    return (Polytope(H, h) if isinstance(P, tuple) else P).chebyshev_radius >= eps


def _unit_rows(H: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(H, h) checked finite, each nonzero row scaled to unit norm; a row of unit norm
    to a few ulps keeps its bits, so a to_dict/from_dict round trip is exact."""
    if not (np.all(np.isfinite(H)) and np.all(np.isfinite(h))):
        raise ValueError("H-representation entries must be finite")
    norms = np.linalg.norm(H, axis=1)
    scale = np.where((norms > 0.0) & (np.abs(norms - 1.0) > UNIT_NORM_TOL), norms, 1.0)
    return H / scale[:, None], h / scale


class _Value:
    """Equality and hashing over the cached `_key`, the bytes of the arrays and the
    other fields that define the object; other instance-dict caches do not count."""

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)


@dataclass(frozen=True, eq=False)
class Polytope(_Value):
    """{x : Hx <= h}; rows of nonzero norm are rescaled to unit norm on construction.

    Like the cached properties (`_nonempty`: the emptiness verdict), private
    instance-dict entries are filled on demand: `_norm_bound` (see there), `_pruned`,
    the copy that `pruned()` returns, and `_preimages`, the preimages by map.
    """

    H: np.ndarray
    h: np.ndarray

    def __post_init__(self) -> None:
        H = np.atleast_2d(np.asarray(self.H, dtype=float))
        h = np.asarray(self.h, dtype=float).reshape(-1)
        if H.shape[0] != h.shape[0]:
            raise ValueError(f"H has {H.shape[0]} rows but h has {h.shape[0]} entries")
        if H.shape[0] < 1:
            raise ValueError("a polytope needs at least one inequality row")
        H, h = _unit_rows(H, h)
        # drop exact duplicate rows, keeping first occurrences
        first: dict[bytes, int] = {}
        for i in range(H.shape[0]):
            first.setdefault(H[i].tobytes() + h[i].tobytes(), i)
        keep = list(first.values())
        self._set_rows(H[keep], h[keep])

    def _set_rows(self, H: np.ndarray, h: np.ndarray) -> None:
        for name, v in (("H", np.ascontiguousarray(H)), ("h", np.ascontiguousarray(h))):
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    @cached_property
    def _key(self) -> tuple:
        return self.H.shape, self.H.tobytes(), self.h.tobytes()

    # -- constructors -------------------------------------------------------

    @classmethod
    def box(cls, lb: Sequence[float], ub: Sequence[float]) -> "Polytope":
        """Axis-aligned box; entries of lb/ub may be -inf/+inf to leave a side open."""
        lb = np.asarray(lb, dtype=float)
        ub = np.asarray(ub, dtype=float)
        if lb.shape != ub.shape or lb.ndim != 1:
            raise ValueError("lb and ub must be 1-d arrays of equal length")
        if not np.all(lb <= ub):  # a NaN bound fails too
            raise ValueError("box needs lb <= ub")
        # rows x_i <= ub_i and -x_i <= -lb_i, in turn for each i, where finite
        n = lb.size
        H = np.zeros((2 * n, n))
        H[np.arange(2 * n), np.repeat(np.arange(n), 2)] = np.tile([1.0, -1.0], n)
        h = np.column_stack([ub, -lb]).reshape(-1)
        finite = np.isfinite(h)
        if not finite.any():
            raise ValueError("box must be bounded in at least one direction")
        return cls(H[finite], h[finite])

    @classmethod
    def origin(cls, n: int) -> "Polytope":
        """The degenerate singleton {0} in R^n."""
        return cls.box(np.zeros(n), np.zeros(n))

    @classmethod
    def nonnegative_orthant(cls, n: int) -> "Polytope":
        return cls(-np.eye(n), np.zeros(n))

    # -- basic queries -------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.H.shape[1]

    @property
    def nrows(self) -> int:
        return self.H.shape[0]

    @cached_property
    def _rows(self) -> tuple[tuple[tuple[float, ...], float], ...]:
        return tuple(zip(map(tuple, self.H.tolist()), self.h.tolist()))

    def contains(self, x: Sequence[float], tol: float = MEMBERSHIP_TOL) -> bool:
        """No row sum a.x, taken left to right, exceeds its b + tol (a NaN sum does)."""
        for row, b in self._rows:
            s = 0.0
            for a, xi in zip(row, x):
                s += a * xi
            if not s <= b + tol:
                return False
        return True

    @cached_property
    def chebyshev_ball(self) -> tuple[float, np.ndarray | None]:
        """(radius, center) of the largest inscribed ball, from one LP.

        The radius is -inf if the polytope is infeasible and inf if it is
        unbounded; the center is None in both cases.
        """
        n = self.dim
        r_col = np.where(np.linalg.norm(self.H, axis=1) > 0.0, 1.0, 0.0)
        A = np.hstack([self.H, r_col[:, None]])
        c = np.zeros(n + 1)
        c[-1] = -1.0
        res = _lp(c, A, self.h)
        if res.status == 3:  # unbounded radius
            return math.inf, None
        if res.status != 0:
            return -math.inf, None
        return float(res.x[-1]), np.asarray(res.x[:n], dtype=float)

    @property
    def chebyshev_radius(self) -> float:
        """Radius of the largest inscribed ball; -inf if infeasible, inf if unbounded."""
        return self.chebyshev_ball[0]

    @cached_property
    def _nonempty(self) -> bool:
        """radius >= EMPTY_TOL, decided once, for `prune_empty` and the region difference."""
        return _radius_at_least(self, EMPTY_TOL, _norm_bound(self))

    def is_empty(self) -> bool:
        return self.chebyshev_radius < EMPTY_TOL

    def support(self, a: Sequence[float]) -> float:
        """sup a.x over the polytope; inf if unbounded, -inf if empty."""
        a = np.asarray(a, dtype=float)
        res = _lp(-a, self.H, self.h)
        if res.status == 3:
            return math.inf
        if res.status != 0:
            return -math.inf
        return float(-res.fun)

    @property
    def is_bounded(self) -> bool:
        """Finite, nonempty extents in every coordinate.  At most n rows bound no
        nonempty set in R^n, so such a part takes no LP; a box reads its rows."""
        if self.nrows <= self.dim:
            return False
        lo, hi = self.box_bounds or self.coordinate_ranges  # an empty one's ranges are infinite
        return bool(np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)) and np.all(lo <= hi))

    @cached_property
    def coordinate_ranges(self) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) per-coordinate extents, possibly infinite."""
        lo, hi = np.empty(self.dim), np.empty(self.dim)
        for i, e in enumerate(np.eye(self.dim)):
            hi[i], lo[i] = self.support(e), -self.support(-e)
        return lo, hi

    def singleton_point(self) -> np.ndarray | None:
        """The unique point of the polytope when it `is_bounded` and its extent is
        below 1e-9 in every coordinate."""
        if not self.is_bounded:
            return None
        lo, hi = self.box_bounds or self.coordinate_ranges
        return None if np.any(hi - lo > 1e-9) else 0.5 * (lo + hi)

    @cached_property
    def box_bounds(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(lb, ub) when every row is axis-aligned, else None."""
        n = self.dim
        lb = np.full(n, -np.inf)
        ub = np.full(n, np.inf)
        for row, rhs in zip(self.H, self.h):
            nz = np.nonzero(row)[0]
            if nz.size != 1:
                return None
            k = nz[0]
            if row[k] > 0:
                ub[k] = min(ub[k], rhs / row[k])
            else:
                lb[k] = max(lb[k], rhs / row[k])
        return lb, ub

    @cached_property
    def halfspace(self) -> tuple[tuple[float, ...], float] | None:
        """(a, b) when the polytope is one halfspace {a.x <= b}, a its unit-norm row, else None."""
        if self.nrows != 1 or not np.any(self.H[0]):
            return None
        return tuple(float(v) for v in self.H[0]), float(self.h[0])

    # -- constructive operations ---------------------------------------------

    def scale(self, factor: float) -> "Polytope":
        """factor * P with scaling about the origin (valid for any H-rep)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        out = Polytope(self.H, self.h * factor)
        out.__dict__["_norm_bound"] = factor * _norm_bound(self, solve=True)
        return out

    def pruned(self) -> "Polytope":
        """Drop inequality rows that are redundant for the feasible set: a row
        whose maximum over the other rows lies within PRUNE_TOL of its bound.
        A row takes that LP unless a witness keeps it: with 0 strictly inside
        (every h_i > 0), if (h_i + margin) a_i, with margin WITNESS_MARGIN times
        max(1, max h), satisfies every other row, the LP's maximum exceeds h_i by
        far more than its tolerances.
        Computed once and kept as `_pruned`; the copy, like every preimage, is
        marked as its own pruned copy, so a later call makes no LP.  A smaller
        non-box copy takes its norm bound from this one's coordinate ranges."""
        if (out := self.__dict__.get("_pruned")) is not None:
            return out
        H, h, m = self.H, self.h, self.nrows
        M = (h + WITNESS_MARGIN * max(1.0, h.max()))[:, None] * H @ H.T  # M[i, j] = H_j . w_i
        witnessed = (h.min() > 0.0) & (np.diag(M) > h) & ((M <= h).sum(axis=1) == m - 1)
        keep = list(range(m))
        for i in np.flatnonzero(~witnessed).tolist():
            if len(keep) <= 1:
                break
            others = [j for j in keep if j != i]
            res = _lp(-H[i], H[others], h[others])
            if res.status == 0 and -res.fun <= h[i] + PRUNE_TOL:
                keep = others
        out = self if len(keep) == m else Polytope(H[keep], h[keep])
        if out is not self and out.box_bounds is None:
            out.__dict__["_norm_bound"] = _norm_bound(self, solve=True)
        out.__dict__["_pruned"] = self.__dict__["_pruned"] = out
        return out

    def preimage(self, A: np.ndarray) -> "Polytope":
        """{x : A x in self} = {x : (H A) x <= h} over the rows of `pruned()`,
        for a nonsingular A, computed without inverting A.

        Built once per map and cached on this instance.  Since x -> A x is a
        bijection, a row redundant in the preimage is redundant here, so the
        preimage of the pruned rows is already pruned: it is marked as its own
        pruned copy and takes no redundancy LP, and its rows, checked and scaled
        as `__post_init__`'s, skip its duplicate search (no two pruned rows lie
        within PRUNE_TOL, so none round to the same bits).  Its points x have
        ||x|| <= ||A x|| / sigma_min(A), so a norm bound R here gives R /
        sigma_min(A) there, with sigma_min(A) padded down.
        """
        A = np.asarray(A, dtype=float)
        if A.shape != (self.dim, self.dim):
            raise ValueError(f"matrix must be {self.dim}x{self.dim}, got {A.shape}")
        cache = self.__dict__.setdefault("_preimages", {})
        key = A.tobytes()
        Q = cache.get(key)
        if Q is None:
            s_min = _require_nonsingular(A)
            P = self.pruned()
            Q = object.__new__(Polytope)
            Q._set_rows(*_unit_rows(P.H @ A, P.h))
            R = _norm_bound(P, solve=True)
            Q.__dict__["_norm_bound"] = R / s_min if s_min > 0.0 else math.inf
            Q.__dict__["_pruned"] = cache[key] = Q
        return Q

    def to_dict(self) -> dict:
        return {"H": self.H.tolist(), "h": self.h.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "Polytope":
        return cls(np.asarray(data["H"], dtype=float), np.asarray(data["h"], dtype=float))


@dataclass(frozen=True)
class PolytopeUnion:
    """Finite union of polytopes; the empty list denotes the empty set."""

    parts: tuple[Polytope, ...] = ()

    def __post_init__(self) -> None:
        parts = tuple(self.parts)
        if parts:
            n = parts[0].dim
            if any(p.dim != n for p in parts):
                raise ValueError("all parts of a union must share one dimension")
        object.__setattr__(self, "parts", parts)

    def __len__(self) -> int:
        return len(self.parts)

    def contains(self, x: Sequence[float], tol: float = MEMBERSHIP_TOL) -> bool:
        return any(p.contains(x, tol) for p in self.parts)

    def prune_empty(self) -> "PolytopeUnion":
        """The parts of radius >= EMPTY_TOL, by a checked least-distance solve where R is known."""
        return PolytopeUnion(tuple(p for p in self.parts if p._nonempty))

    def to_dict(self) -> dict:
        return {"parts": [p.to_dict() for p in self.parts]}

    @classmethod
    def from_dict(cls, data: dict) -> "PolytopeUnion":
        return cls(tuple(Polytope.from_dict(d) for d in data["parts"]))


def as_union(target: "Polytope | PolytopeUnion") -> PolytopeUnion:
    return PolytopeUnion((target,)) if isinstance(target, Polytope) else target


@dataclass(frozen=True)
class InvarianceReport:
    """Verdict of a switched-invariance check; when it fails, `counterexample`
    is a point of omega that no subsystem keeps inside."""

    is_sis: bool
    counterexample: np.ndarray | None = None


# -- preimages and controllable sets ----------------------------------------


@lru_cache(maxsize=CACHE_SIZE)
def _matrix_facts(shape: tuple[int, int], data: bytes) -> tuple[float | None, float]:
    """|det A| if A (of that shape and those bytes) is numerically singular, else None,
    and sigma_min(A) less thousands of times the SVD's rounding error (nan if not finite)."""
    A = np.frombuffer(data).reshape(shape)
    fro = np.linalg.norm(A, "fro")
    scale = (fro / math.sqrt(shape[0])) ** shape[0] if fro > 0 else 0.0
    det = abs(float(np.linalg.det(A)))
    s = np.linalg.svd(A, compute_uv=False) if np.isfinite(A).all() else [math.nan]
    return (det if det < 1e-12 * max(scale, 1e-300) else None), s[-1] - 1e-12 * s[0]


def _require_nonsingular(A: np.ndarray, label: str = "matrix") -> float:
    """A's padded sigma_min (`_matrix_facts`, once per matrix); raises
    SingularMatrixError, naming A by label, when A is numerically singular."""
    A = np.asarray(A, dtype=float)
    det, s_min = _matrix_facts(A.shape, A.tobytes())
    if det is not None:
        raise SingularMatrixError(
            f"{label} is numerically singular (|det| = {det:.3e}); "
            "preimages require nonsingular dynamics"
        )
    return s_min


def controllable_set(sys, target: Polytope | PolytopeUnion) -> PolytopeUnion:
    """One-step controllable set: union of per-subsystem preimages of the
    target's parts, each part pruned once (see `Polytope.preimage`)."""
    target = as_union(target)
    limit = part_cap()
    parts: list[Polytope] = []
    for i, A in enumerate(sys.matrices, start=1):
        _require_nonsingular(A, label=f"subsystem {i}")
        for P in target.parts:
            parts.append(P.preimage(A))
            _check_cap(len(parts), limit, "controllable set")
    return PolytopeUnion(tuple(parts)).prune_empty()


# -- union inclusion via recursive region difference -------------------------


def _uncovered_pieces(P: Polytope, parts: Sequence[Polytope]):
    """Yield the raw (H, h) unit rows of a piece of P not covered by `parts`,
    until P is covered up to EMPTY_TOL-deep residuals, within `part_cap()` pieces in all.

    Depth-first region difference: each part either misses the current piece,
    covers it, or splits it along the part's violated half-spaces; parts are
    tried in list order.  Parts appended between yields extend the search as a
    fresh search of the longer list would: the last piece tries the new parts.
    """
    budget = part_cap()
    R = _norm_bound(P, solve=True)  # every piece lies in P, so R bounds its norm
    if not P._nonempty:  # decided with this R, unless already decided
        return
    stack: list[tuple[np.ndarray, np.ndarray, int]] = [(P.H, P.h, 0)]
    processed = 0
    while stack:
        H, h, idx = stack.pop()
        processed += 1
        _check_cap(processed, budget, "region difference", "pieces")
        while True:
            while idx == len(parts):
                yield H, h
            Q = parts[idx]
            HQ, hQ = np.concatenate((H, Q.H)), np.concatenate((h, Q.h))  # piece ∩ Q
            if _radius_at_least((HQ, hQ), EMPTY_TOL, R):
                break
            idx += 1
        # the piece minus Q: the pieces inside Q's rows before k and outside row k
        m = h.size
        for k in range(Q.nrows):
            H_out, h_out = HQ[: m + k + 1].copy(), hQ[: m + k + 1].copy()
            H_out[-1], h_out[-1] = -H_out[-1], -h_out[-1]  # row k of Q, now its outside
            if _radius_at_least((H_out, h_out), EMPTY_TOL, R):
                stack.append((H_out, h_out, idx + 1))


def inclusion_in_union(P: Polytope, U: Polytope | PolytopeUnion) -> bool:
    """True iff P is covered by the union up to EMPTY_TOL-deep residuals."""
    return next(_uncovered_pieces(P, as_union(U).parts), None) is None


# -- invariance and stabilizability ------------------------------------------


def _require_bounded_union(omega: PolytopeUnion) -> None:
    """A nonempty union of bounded parts."""
    if not omega.parts:
        raise ValueError("omega must be nonempty")
    for j, P in enumerate(omega.parts):
        if not P.is_bounded:
            raise ValueError(f"omega part {j} is unbounded")


def is_switched_invariant(sys, omega: Polytope | PolytopeUnion) -> InvarianceReport:
    """Decide whether for every x in omega some subsystem keeps A_sigma x in omega."""
    omega = as_union(omega)
    _require_bounded_union(omega)

    # Degenerate parts are checked pointwise (the region-difference slack would
    # otherwise treat them as vacuously covered).  A part narrower than 1e-9 in
    # every coordinate has a radius below EMPTY_TOL, so it is thin.
    points = [P.singleton_point() for P in omega.parts]
    # a thin part that is not a point takes the slack semantics
    regular = [P for P, pt in zip(omega.parts, points) if pt is None]
    for pt in points:
        if pt is not None and not any(omega.contains(A @ pt) for A in sys.matrices):
            return InvarianceReport(is_sis=False, counterexample=pt)

    if regular:
        S = controllable_set(sys, omega).parts
        for P in regular:
            piece = next(_uncovered_pieces(P, S), None)
            if piece is not None:
                center = Polytope(*piece).chebyshev_ball[1]
                if center is None:
                    raise NumericalError("could not compute a center of a nonempty piece")
                return InvarianceReport(is_sis=False, counterexample=center)

    return InvarianceReport(is_sis=True)


def _require_cstar_surrogate(omega: PolytopeUnion, kmax: int) -> None:
    """Bounded union with the origin in its interior (convex C*-set surrogate),
    and a search depth kmax >= 0."""
    _require_bounded_union(omega)
    if not any(np.min(P.h) > 1e-12 for P in omega.parts):
        raise ValueError("0 must be an interior point of omega")
    if kmax < 0:
        raise ValueError("kmax must be >= 0")


def stabilizability_certificate(
    sys, omega: Polytope | PolytopeUnion, kmax: int
) -> int | None:
    """Smallest k <= kmax with omega inside the interior of S_1 ∪ ... ∪ S_{k+1}.

    A positive answer certifies the existence of a stabilizing switching law;
    None means "not certified within kmax".  The open-interior requirement is
    realized by covering (1 + INTERIOR_INFLATION) * omega, each part by one
    region difference that resumes across k (see `_uncovered_pieces`).
    """
    omega = as_union(omega)
    _require_cstar_surrogate(omega, kmax)
    limit = part_cap()
    accumulated: list[Polytope] = []
    searches = [_uncovered_pieces(P.scale(1.0 + INTERIOR_INFLATION), accumulated)
                for P in omega.parts]
    current = omega
    for k in range(kmax + 1):
        current = controllable_set(sys, current)  # S_{k+1}
        accumulated.extend(current.parts)
        _check_cap(len(accumulated), limit, "accumulated controllable sets")
        if all(next(search, None) is None for search in searches):
            return k
    return None


def non_stabilizability_certificate(
    sys, omega: Polytope | PolytopeUnion, kmax: int
) -> int | None:
    """Smallest k <= kmax with S_{k+1} inside omega ∪ S_1 ∪ ... ∪ S_k.

    A positive answer certifies that no switching law can stabilize the system;
    None means "not certified within kmax".
    """
    omega = as_union(omega)
    _require_cstar_surrogate(omega, kmax)
    limit = part_cap()
    hat: list[Polytope] = list(omega.parts)  # accumulates omega ∪ S_1 ∪ ... ∪ S_k
    current = omega
    for k in range(kmax + 1):
        current = controllable_set(sys, current)  # S_{k+1}
        if all(next(_uncovered_pieces(P, hat), None) is None for P in current.parts):
            return k
        hat.extend(current.parts)
        _check_cap(len(hat), limit, "accumulated union")
    return None
