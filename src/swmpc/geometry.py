"""Polytope geometry for switched-system set analysis.

Convex polytopes are kept in H-representation {x : Hx <= h} with rows scaled
to unit norm; nonconvex regions are finite unions of such polytopes.  On top
of that this module provides one-step preimages under nonsingular maps,
controllable sets and their iterates, switched-invariance verification and
stabilizability / non-stabilizability certificates.  Distances to a union
are in `controller`, beside the solver that evaluates them.

Numerical conventions: a polytope counts as empty when its Chebyshev radius
is below EMPTY_TOL; sets thinner than that tolerance are treated as empty by
the union-inclusion machinery (exact singletons are special-cased where the
pointwise definition matters).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.optimize import linprog

__all__ = [
    "Polytope",
    "PolytopeUnion",
    "InvarianceReport",
    "GeometryCapError",
    "NumericalError",
    "SingularMatrixError",
    "preimage",
    "controllable_set",
    "i_step_controllable",
    "inclusion_in_union",
    "is_switched_invariant",
    "stabilizability_certificate",
    "non_stabilizability_certificate",
]

EMPTY_TOL = 1e-9
MEMBERSHIP_TOL = 1e-9
INTERIOR_INFLATION = 1e-6
PRUNE_TOL = 1e-9
UNIT_NORM_TOL = 4e-16
# a preimage keeps a row without an LP only when its inherited slack clears
# the pruning tolerance by this much (1000x), so LP rounding cannot flip it
INHERITED_SLACK_MARGIN = 1e-6
DEFAULT_PART_CAP = 100_000
PART_CAP_ENV = "SWMPC_PART_CAP"


class GeometryCapError(RuntimeError):
    """A part-count or piece-budget cap was exceeded."""


class SingularMatrixError(ValueError):
    """A subsystem matrix is numerically singular where invertibility is required."""


class NumericalError(RuntimeError):
    """An LP stopped without a verdict (iteration limit or numerical difficulty)."""


def part_cap() -> int:
    return int(os.environ.get(PART_CAP_ENV, DEFAULT_PART_CAP))


def _lp(c, A_ub, b_ub):
    """min c.x s.t. A_ub x <= b_ub with free variables.

    The result has status 0 (optimal), 2 (infeasible) or 3 (unbounded); any
    other HiGHS outcome raises NumericalError rather than pass for a verdict.
    """
    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        bounds=[(None, None)] * len(c),
        method="highs",
    )
    if res.status not in (0, 2, 3):
        raise NumericalError(f"LP failed with status {res.status}: {res.message}")
    return res


@dataclass(frozen=True)
class Polytope:
    """{x : Hx <= h}; rows of nonzero norm are rescaled to unit norm on construction.

    Like the cached properties, two private entries of the instance dict are
    filled on demand: `_slack`, lower bounds on how far each row lies beyond
    the set cut by the other rows (recorded by `pruned`), and `_preimages`,
    the pruned preimages built so far, keyed by the bytes of the map.
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
        if not (np.all(np.isfinite(H)) and np.all(np.isfinite(h))):
            raise ValueError("H-representation entries must be finite")
        norms = np.linalg.norm(H, axis=1)
        # a row already of unit norm to a few ulps keeps its bits, so that
        # normalizing twice (as a to_dict/from_dict round trip does) is exact
        scale = np.where((norms > 0.0) & (np.abs(norms - 1.0) > UNIT_NORM_TOL), norms, 1.0)
        H = H / scale[:, None]
        h = h / scale
        # drop exact duplicate rows, keeping first occurrences
        seen: set[bytes] = set()
        keep: list[int] = []
        for i in range(H.shape[0]):
            key = H[i].tobytes() + h[i].tobytes()
            if key not in seen:
                seen.add(key)
                keep.append(i)
        H = np.ascontiguousarray(H[keep])
        h = np.ascontiguousarray(h[keep])
        H.setflags(write=False)
        h.setflags(write=False)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "h", h)

    # -- constructors -------------------------------------------------------

    @classmethod
    def box(cls, lb: Sequence[float], ub: Sequence[float]) -> "Polytope":
        """Axis-aligned box; entries of lb/ub may be -inf/+inf to leave a side open."""
        lb = np.asarray(lb, dtype=float)
        ub = np.asarray(ub, dtype=float)
        if lb.shape != ub.shape or lb.ndim != 1:
            raise ValueError("lb and ub must be 1-d arrays of equal length")
        if np.any(lb > ub):
            raise ValueError("box needs lb <= ub")
        n = lb.size
        rows, rhs = [], []
        for i in range(n):
            if np.isfinite(ub[i]):
                e = np.zeros(n)
                e[i] = 1.0
                rows.append(e)
                rhs.append(ub[i])
            if np.isfinite(lb[i]):
                e = np.zeros(n)
                e[i] = -1.0
                rows.append(e)
                rhs.append(-lb[i])
        if not rows:
            raise ValueError("box must be bounded in at least one direction")
        return cls(np.array(rows), np.array(rhs))

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
    def chebyshev_radius(self) -> float:
        """Radius of the largest inscribed ball; -inf if infeasible, inf if unbounded."""
        n = self.dim
        r_col = np.where(np.linalg.norm(self.H, axis=1) > 0.0, 1.0, 0.0)
        A = np.hstack([self.H, r_col[:, None]])
        c = np.zeros(n + 1)
        c[-1] = -1.0
        res = _lp(c, A, self.h)
        if res.status == 3:  # unbounded radius
            return math.inf
        if res.status != 0:
            return -math.inf
        return float(res.x[-1])

    def is_empty(self, eps: float = EMPTY_TOL) -> bool:
        return self.chebyshev_radius < eps

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
        lo, hi = self.coordinate_ranges
        return bool(np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)))

    @cached_property
    def coordinate_ranges(self) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) per-coordinate extents, possibly infinite."""
        n = self.dim
        lo = np.empty(n)
        hi = np.empty(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            hi[i] = self.support(e)
            lo[i] = -self.support(-e)
        return lo, hi

    def singleton_point(self, tol: float = 1e-9) -> np.ndarray | None:
        """The unique point of the polytope when its extent is below tol in every coordinate."""
        lo, hi = self.coordinate_ranges
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            return None
        if np.any(hi - lo > tol) or np.any(hi < lo):  # hi < lo: empty
            return None
        return 0.5 * (lo + hi)

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

    def with_row(self, a: np.ndarray, b: float) -> "Polytope":
        return Polytope(np.vstack([self.H, a[None, :]]), np.append(self.h, b))

    def intersect(self, other: "Polytope") -> "Polytope":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch in intersection")
        return Polytope(np.vstack([self.H, other.H]), np.concatenate([self.h, other.h]))

    def scale(self, factor: float) -> "Polytope":
        """factor * P with scaling about the origin (valid for any H-rep)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return Polytope(self.H, self.h * factor)

    def pruned(self, tol: float = PRUNE_TOL) -> "Polytope":
        """Drop inequality rows that are redundant for the feasible set.

        Each kept row's slack (the LP optimum of its left side over the other
        rows, minus its right side; inf when unbounded) is recorded on the
        result.  A row whose slack is already recorded above
        INHERITED_SLACK_MARGIN, as `preimage` arranges, is kept without an LP.
        """
        m = self.nrows
        if m <= 1:
            return self
        known = self.__dict__.get("_slack")
        # -inf: no bound (the row was not tested, or the other rows are infeasible)
        slack = np.full(m, -math.inf)
        keep = list(range(m))
        for i in range(m):
            if len(keep) <= 1:
                break
            if known is not None and known[i] > INHERITED_SLACK_MARGIN:
                slack[i] = known[i]
                continue
            others = [j for j in keep if j != i]
            res = _lp(-self.H[i], self.H[others], self.h[others])
            if res.status == 0:
                if -res.fun <= self.h[i] + tol:
                    keep = others
                    continue
                slack[i] = -res.fun - self.h[i]
            elif res.status == 3:
                slack[i] = math.inf
        # dropping rows only enlarges the set the other rows cut out, so every
        # recorded bound stays valid
        out = self if len(keep) == m else Polytope(self.H[keep], self.h[keep])
        out.__dict__["_slack"] = slack[keep]
        return out

    def preimage(self, A: np.ndarray) -> "Polytope":
        """{x : A x in self} = {x : (H A) x <= h}, pruned, for a nonsingular A.

        Built once per map and cached on this instance.  Since x -> A x is a
        bijection, row i of the preimage has exactly the slack of row i here,
        divided by the norm of H_i A, so rows with a recorded slack inherit it.
        """
        A = np.asarray(A, dtype=float)
        cache = self.__dict__.setdefault("_preimages", {})
        key = A.tobytes()
        Q = cache.get(key)
        if Q is None:
            _require_nonsingular(A)
            HA = self.H @ A
            Q = Polytope(HA, self.h)
            slack = self.__dict__.get("_slack")
            if slack is not None and Q.nrows == self.nrows:  # no row merged away
                norms = np.linalg.norm(HA, axis=1)
                Q.__dict__["_slack"] = slack / np.where(norms > 0.0, norms, 1.0)
            Q = cache[key] = Q.pruned()
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

    @property
    def dim(self) -> int:
        if not self.parts:
            raise ValueError("empty union has no dimension")
        return self.parts[0].dim

    def __len__(self) -> int:
        return len(self.parts)

    def contains(self, x: Sequence[float], tol: float = MEMBERSHIP_TOL) -> bool:
        for p in self.parts:
            if p.contains(x, tol):
                return True
        return False

    def prune_empty(self, eps: float = EMPTY_TOL) -> "PolytopeUnion":
        return PolytopeUnion(tuple(p for p in self.parts if not p.is_empty(eps)))

    def scale(self, factor: float) -> "PolytopeUnion":
        return PolytopeUnion(tuple(p.scale(factor) for p in self.parts))

    def to_dict(self) -> dict:
        return {"parts": [p.to_dict() for p in self.parts]}

    @classmethod
    def from_dict(cls, data: dict) -> "PolytopeUnion":
        return cls(tuple(Polytope.from_dict(d) for d in data["parts"]))


def as_union(target: "Polytope | PolytopeUnion") -> PolytopeUnion:
    if isinstance(target, Polytope):
        return PolytopeUnion((target,))
    return target


@dataclass(frozen=True)
class InvarianceReport:
    """Verdict of a switched-invariance check.

    `witness_signal_map` maps part index -> signals whose single preimage
    already covers that part (empty tuple when only the union does);
    `counterexample` is a point of omega that no subsystem keeps inside.
    """

    is_sis: bool
    witness_signal_map: dict[int, tuple[int, ...]] | None = None
    counterexample: np.ndarray | None = None


# -- preimages and controllable sets ----------------------------------------


def _require_nonsingular(A: np.ndarray, label: str = "matrix") -> None:
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    fro = np.linalg.norm(A, "fro")
    scale = (fro / math.sqrt(n)) ** n if fro > 0 else 0.0
    det = float(np.linalg.det(A))
    if abs(det) < 1e-12 * max(scale, 1e-300):
        raise SingularMatrixError(
            f"{label} is numerically singular (|det| = {abs(det):.3e}); "
            "preimages require nonsingular dynamics"
        )


def preimage(A: np.ndarray, P: Polytope) -> Polytope:
    """Exact preimage {x : A x in P} = {x : (H A) x <= h}, computed without inverting A."""
    A = np.asarray(A, dtype=float)
    if A.shape != (P.dim, P.dim):
        raise ValueError(f"matrix must be {P.dim}x{P.dim}, got {A.shape}")
    return P.preimage(A)


def controllable_set(sys, target: Polytope | PolytopeUnion) -> PolytopeUnion:
    """One-step controllable set: union of per-subsystem preimages of the target."""
    target = as_union(target)
    limit = part_cap()
    parts: list[Polytope] = []
    for i, A in enumerate(sys.matrices, start=1):
        _require_nonsingular(A, label=f"subsystem {i}")
        for P in target.parts:
            parts.append(P.preimage(A))
            if len(parts) > limit:
                raise GeometryCapError(
                    f"controllable set exceeded {limit} parts (see {PART_CAP_ENV})"
                )
    return PolytopeUnion(tuple(parts)).prune_empty()


def i_step_controllable(sys, target: Polytope | PolytopeUnion, i: int) -> PolytopeUnion:
    """i-fold iteration of the controllable set."""
    if i < 1:
        raise ValueError("step count must be >= 1")
    current = as_union(target)
    for _ in range(i):
        current = controllable_set(sys, current)
    return current


# -- union inclusion via recursive region difference -------------------------


def _uncovered_piece(
    P: Polytope,
    parts: Sequence[Polytope],
    eps: float,
    budget: int,
) -> Polytope | None:
    """A piece of P not covered by the union, or None when P is covered up to eps.

    Depth-first region difference: each part either misses the current piece,
    covers it, or splits it along the part's violated half-spaces.
    """
    if P.chebyshev_radius < eps:
        return None
    order = sorted(range(len(parts)), key=lambda i: -min(parts[i].chebyshev_radius, 1e300))
    parts = [parts[i] for i in order]
    stack: list[tuple[Polytope, int]] = [(P, 0)]
    processed = 0
    while stack:
        piece, idx = stack.pop()
        processed += 1
        if processed > budget:
            raise GeometryCapError(
                f"region difference exceeded {budget} pieces (see {PART_CAP_ENV})"
            )
        while idx < len(parts):
            if not piece.intersect(parts[idx]).is_empty(eps):
                break
            idx += 1
        if idx == len(parts):
            return piece
        Q = parts[idx]
        current = piece
        for a, b in zip(Q.H, Q.h):
            outside = current.with_row(-a, -b)
            if outside.chebyshev_radius >= eps:
                stack.append((outside, idx + 1))
            current = current.with_row(a, b)
        # current == piece ∩ Q is covered by Q and needs no further work
    return None


def inclusion_in_union(
    P: Polytope,
    U: Polytope | PolytopeUnion,
    eps: float = EMPTY_TOL,
) -> bool:
    """True iff P is covered by the union up to eps-deep residuals."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    U = as_union(U)
    eps = max(eps, 1e-12)
    witness = _uncovered_piece(P, U.parts, eps, part_cap())
    return witness is None


# -- invariance and stabilizability ------------------------------------------


def is_switched_invariant(sys, omega: Polytope | PolytopeUnion) -> InvarianceReport:
    """Decide whether for every x in omega some subsystem keeps A_sigma x in omega."""
    omega = as_union(omega)
    if not omega.parts:
        raise ValueError("omega must be nonempty")
    for j, P in enumerate(omega.parts):
        if not P.is_bounded:
            raise ValueError(f"omega part {j} is unbounded; invariance check needs bounded parts")

    # Degenerate parts are checked pointwise (the region-difference slack would
    # otherwise treat them as vacuously covered).
    singleton_points: dict[int, np.ndarray] = {}
    regular: list[int] = []
    for j, P in enumerate(omega.parts):
        if P.chebyshev_radius < EMPTY_TOL:
            pt = P.singleton_point()
            if pt is None:
                regular.append(j)  # thin but not a point: fall through to slack semantics
            else:
                singleton_points[j] = pt
        else:
            regular.append(j)

    witness_map: dict[int, tuple[int, ...]] = {}
    for j, pt in singleton_points.items():
        good = tuple(
            i
            for i, A in enumerate(sys.matrices, start=1)
            if omega.contains(np.asarray(A, dtype=float) @ pt)
        )
        if not good:
            return InvarianceReport(is_sis=False, counterexample=pt)
        witness_map[j] = good

    if regular:
        S = controllable_set(sys, omega)
        for j in regular:
            P = omega.parts[j]
            piece = _uncovered_piece(P, S.parts, EMPTY_TOL, part_cap())
            if piece is not None:
                center = _chebyshev_center(piece)
                return InvarianceReport(is_sis=False, counterexample=center)
            covering = []
            for i, A in enumerate(sys.matrices, start=1):
                # signal i alone covers P when P fits inside one of its preimage
                # parts, which controllable_set has built and cached
                if any(
                    all(P.support(a) <= b + EMPTY_TOL for a, b in zip(pre.H, pre.h))
                    for pre in (Q.preimage(A) for Q in omega.parts)
                ):
                    covering.append(i)
            witness_map[j] = tuple(covering)

    return InvarianceReport(is_sis=True, witness_signal_map=witness_map)


def _chebyshev_center(P: Polytope) -> np.ndarray:
    n = P.dim
    r_col = np.where(np.linalg.norm(P.H, axis=1) > 0.0, 1.0, 0.0)
    A = np.hstack([P.H, r_col[:, None]])
    c = np.zeros(n + 1)
    c[-1] = -1.0
    res = _lp(c, A, P.h)
    if res.status != 0:
        raise NumericalError("could not compute a center of a nonempty piece")
    return np.asarray(res.x[:n], dtype=float)


def _require_cstar_surrogate(omega: PolytopeUnion) -> None:
    """Bounded union with the origin in its interior (convex C*-set surrogate)."""
    if not omega.parts:
        raise ValueError("omega must be nonempty with 0 in its interior")
    for j, P in enumerate(omega.parts):
        if not P.is_bounded:
            raise ValueError(f"omega part {j} is unbounded")
    if not any(np.min(P.h) > 1e-12 for P in omega.parts):
        raise ValueError("0 must be an interior point of omega")


def stabilizability_certificate(
    sys, omega: Polytope | PolytopeUnion, kmax: int
) -> int | None:
    """Smallest k <= kmax with omega inside the interior of S_1 ∪ ... ∪ S_{k+1}.

    A positive answer certifies the existence of a stabilizing switching law;
    None means "not certified within kmax".  The open-interior requirement is
    realized by covering (1 + INTERIOR_INFLATION) * omega.
    """
    omega = as_union(omega)
    _require_cstar_surrogate(omega)
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    limit = part_cap()
    inflated = omega.scale(1.0 + INTERIOR_INFLATION)
    accumulated: list[Polytope] = []
    current = omega
    for k in range(kmax + 1):
        current = controllable_set(sys, current)  # S_{k+1}
        accumulated.extend(current.parts)
        if len(accumulated) > limit:
            raise GeometryCapError(
                f"accumulated controllable sets exceeded {limit} parts (see {PART_CAP_ENV})"
            )
        if all(
            _uncovered_piece(P, accumulated, EMPTY_TOL, limit) is None for P in inflated.parts
        ):
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
    _require_cstar_surrogate(omega)
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    limit = part_cap()
    hat: list[Polytope] = list(omega.parts)  # accumulates omega ∪ S_1 ∪ ... ∪ S_k
    current = omega
    for k in range(kmax + 1):
        current = controllable_set(sys, current)  # S_{k+1}
        if all(_uncovered_piece(P, hat, EMPTY_TOL, limit) is None for P in current.parts):
            return k
        hat.extend(current.parts)
        if len(hat) > limit:
            raise GeometryCapError(
                f"accumulated union exceeded {limit} parts (see {PART_CAP_ENV})"
            )
    return None
