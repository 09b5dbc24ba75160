"""Composition rules for allowable flow sets.

Nonnegative scaling, nonnegative injective matrix images, lifting into a
larger node space, Minkowski sums, intersections, and the aggregate edge
(the Minkowski sum of lifted edge sets) all preserve the three defining
properties (closed convex, downward closed, contains 0), so each rule
below returns another ``FlowSet`` oracle.

Every rule computes its support once, in its float ``kernel``, from its
children's kernels; ``support`` is the base class's vector adapter, as for
the built-in families.  Support functions compose exactly:

    f_{aT}(xi)        = a * f_T(xi)
    f_{AT - R+}(xi)   = f_T(A.T @ xi)          for xi >= 0
    f_{T + T'}(xi)    = f_T(xi) + f_{T'}(xi)

Membership of image and sum sets has no cheap exact test; those sets
certify membership by checking ``xi @ x <= f(xi) + tol`` over a fixed fan
of nonnegative directions.  The fan test is a sound outer test: a point
it rejects is certainly outside, a point it accepts lies within the fan's
outer approximation.  Composition trees never materialize geometry; they
only forward oracle calls to their children.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from .sets import (DEFAULT_TOL, FlowSet, Support, _index, _real, as_vector, scaled_tol,
                   support_from_kernel)

FAN_SIZE = 720
# projected subgradient steps of an intersection's support
DESCENT_STEPS = 400


@lru_cache(maxsize=None)
def direction_fan(dim: int) -> np.ndarray:
    """Deterministic nonnegative test directions, one per row.

    Evenly spaced quarter-circle angles in 2-D, a low-discrepancy Halton
    set in higher dimensions; the coordinate axes are always included.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    if dim == 1:
        return np.array([[1.0]])
    if dim == 2:
        angles = (np.arange(FAN_SIZE) + 0.5) * (0.5 * math.pi / FAN_SIZE)
        dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    else:
        pts = _halton(dim, FAN_SIZE)[1:]  # first Halton point is the origin
        pts = pts[np.linalg.norm(pts, axis=1) > 1e-12]
        dirs = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    return np.vstack([dirs, np.eye(dim)])


def _halton(dim: int, count: int) -> np.ndarray:
    """The first ``count`` points of the unscrambled Halton sequence in ``dim``
    dimensions: the radical inverse of 0, 1, ..., count - 1 in each of the
    first ``dim`` primes, summed digit by digit from the least significant.
    """
    bases: list[int] = []
    candidate = 2
    while len(bases) < dim:
        if all(candidate % p for p in bases):
            bases.append(candidate)
        candidate += 1
    base = np.array(bases)
    index = np.repeat(np.arange(count)[:, None], dim, axis=1)
    point = np.zeros((count, dim))
    scale = np.ones(dim)
    while index.any():
        scale /= base
        point += scale * (index % base)
        index //= base
    return point


def _fan_contains(the_set: FlowSet, x: np.ndarray, tol: float) -> bool:
    point = x.tolist()
    for row in direction_fan(the_set.dim):
        xi = row.tolist()
        value = the_set.kernel(xi)[0]
        if sum(a * b for a, b in zip(xi, point)) > value + scaled_tol(tol, value):
            return False
    return True


def _nonneg_combination(matrix: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """matrix @ bound with the convention 0 * inf = 0 (zero weight ignores inf)."""
    out = np.zeros(matrix.shape[0])
    for i in range(matrix.shape[0]):
        row = matrix[i]
        mask = row > 0.0
        out[i] = float(row[mask] @ bound[mask]) if mask.any() else 0.0
    return out


class ScaledSet(FlowSet):
    """alpha * T for alpha >= 0; alpha = 0 collapses to the downward closure of {0}."""

    def __init__(self, base: FlowSet, alpha: float):
        alpha = _real(alpha, "scaling factor")
        if not 0.0 <= alpha < math.inf:  # NaN fails too
            raise ValueError("scaling factor must be nonnegative and finite")
        self.base = base
        self.alpha = alpha
        self.dim = base.dim
        if alpha == 0.0:
            self.upper_bound = np.zeros(base.dim)
        else:
            self.upper_bound = alpha * base.upper_bound

    def contains(self, x, tol: float = DEFAULT_TOL) -> bool:
        v = as_vector(x, self.dim)
        if self.alpha == 0.0:
            return bool(np.all(v <= scaled_tol(tol, 0.0)))
        return self.base.contains(v / self.alpha, tol)

    def kernel(self, xi):
        alpha = self.alpha
        if alpha == 0.0:
            return 0.0, (0.0,) * self.dim
        value, point = self.base.kernel(xi)
        if not math.isfinite(value):
            return value, None
        return alpha * value, None if point is None else tuple(alpha * x for x in point)


class MatrixImageSet(FlowSet):
    """A @ T followed by downward closure, for nonnegative injective A.

    {x : x <= A @ x' for some x' in T}; each coordinate of A @ x' is a
    weighted meta-flow over the underlying edge.  Injectivity keeps the
    image closed, so rank-deficient matrices are rejected.
    """

    def __init__(self, base: FlowSet, matrix):
        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2 or a.shape[1] != base.dim:
            raise ValueError(f"matrix must have {base.dim} columns")
        if not np.all((0.0 <= a) & (a < math.inf)):  # NaN fails too
            raise ValueError("matrix entries must be nonnegative and finite")
        if np.linalg.matrix_rank(a) < a.shape[1]:
            raise ValueError("matrix must have a trivial null space")
        self.base = base
        self.matrix = a
        self.dim = a.shape[0]
        self.upper_bound = _nonneg_combination(a, base.upper_bound)

    def contains(self, x, tol: float = DEFAULT_TOL) -> bool:
        return _fan_contains(self, as_vector(x, self.dim), tol)

    def kernel(self, xi):
        value, point = self.base.kernel((self.matrix.T @ np.array(xi)).tolist())
        if not math.isfinite(value) or point is None:
            return value, None
        return value, tuple((self.matrix @ np.array(point)).tolist())


class LiftedSet(FlowSet):
    """An edge set embedded at chosen node indices of a larger space.

    Selector-matrix image: selected coordinates follow the base set,
    unselected ones may only dissipate (x <= 0), and membership reduces
    exactly to the base oracle thanks to downward closure.
    """

    def __init__(self, base: FlowSet, indices: Sequence[int], ambient_dim: int):
        ambient_dim = _index(ambient_dim, "ambient dimension")
        idx = [_index(i, "index") for i in indices]
        if len(idx) != base.dim:
            raise ValueError("need one index per base coordinate")
        if len(set(idx)) != len(idx):
            raise ValueError("indices must be distinct")
        if any(i >= ambient_dim for i in idx):
            raise ValueError("index out of range")
        self.base = base
        self.indices = idx
        self.dim = ambient_dim
        self._unselected = [i for i in range(ambient_dim) if i not in idx]
        ub = np.zeros(ambient_dim)
        ub[idx] = base.upper_bound
        self.upper_bound = ub

    def contains(self, x, tol: float = DEFAULT_TOL) -> bool:
        v = as_vector(x, self.dim)
        if np.any(v[self._unselected] > scaled_tol(tol, 0.0)):
            return False
        return self.base.contains(v[self.indices], tol)

    def kernel(self, xi):
        value, point = self.base.kernel([xi[i] for i in self.indices])
        if not math.isfinite(value) or point is None:
            return value, None
        lifted = [0.0] * self.dim
        for i, x in zip(self.indices, point):
            lifted[i] = x
        return value, tuple(lifted)

    def gauge(self, x, tol: float = DEFAULT_TOL) -> float:
        v = as_vector(x, self.dim)
        if np.any(v[self._unselected] > 0.0):
            return math.inf
        return self.base.gauge(v[self.indices], tol)


class MinkowskiSumSet(FlowSet):
    """T_1 + ... + T_k: an aggregate edge that may route through any summand.

    Requires every summand bounded above, so that finite inputs cannot
    generate infinite output.  Supports and maximizers add, in summand
    order; membership is the fan separation test.
    """

    def __init__(self, *parts: FlowSet):
        if not parts:
            raise ValueError("a sum needs at least one summand")
        if any(part.dim != parts[0].dim for part in parts):
            raise ValueError("summands must share a dimension")
        for part in parts:
            if not np.all(np.isfinite(part.upper_bound)):
                raise ValueError("summands must be bounded from above")
        self.parts = parts
        self.dim = parts[0].dim
        self.upper_bound = np.sum([part.upper_bound for part in parts], axis=0)
        # maximizers add, so the sum's is unique when every summand's is
        self.unique_maximizer = all(part.unique_maximizer for part in parts)

    def contains(self, x, tol: float = DEFAULT_TOL) -> bool:
        return _fan_contains(self, as_vector(x, self.dim), tol)

    def support(self, price) -> Support:
        return support_from_kernel(self, price)

    def kernel(self, xi):
        total = 0.0
        point: list[float] | None = [0.0] * self.dim
        for part in self.parts:
            value, maximizer = part.kernel(xi)
            total += value
            if point is not None and maximizer is not None:
                point = [a + b for a, b in zip(point, maximizer)]
            else:
                point = None
        return total, None if point is None else tuple(point)


class IntersectionSet(FlowSet):
    """T ∩ T'. Membership is the exact conjunction of the child oracles.

    The support function has no closed form; it is evaluated numerically
    through the dual split

        f_{T ∩ T'}(xi) = min_{0 <= z <= xi} f_T(z) + f_{T'}(xi - z)

    by projected subgradient descent, so the returned value is
    approximate (upper bound within the descent tolerance) and carries no
    maximizer.
    """

    def __init__(self, first: FlowSet, second: FlowSet):
        if first.dim != second.dim:
            raise ValueError("sets must share a dimension")
        self.parts = (first, second)
        self.dim = first.dim
        self.upper_bound = np.minimum(first.upper_bound, second.upper_bound)

    def contains(self, x, tol: float = DEFAULT_TOL) -> bool:
        v = as_vector(x, self.dim)
        return all(part.contains(v, tol) for part in self.parts)

    def kernel(self, xi):
        xi = np.array(xi)
        first, second = self.parts

        def split(z):
            """The split's value at z and, when both maximizers exist, its
            subgradient."""
            value_a, pa = first.kernel(z.tolist())
            value_b, pb = second.kernel((xi - z).tolist())
            return value_a + value_b, None if pa is None or pb is None else np.subtract(pa, pb)

        z = 0.5 * xi
        best, grad = split(z)
        best_z = z.copy()
        scale = float(np.max(xi)) or 1.0
        for k in range(1, DESCENT_STEPS + 1):
            if grad is None:
                break
            norm = float(np.linalg.norm(grad))
            if norm < 1e-14:
                break
            z = np.clip(z - (0.5 * scale / math.sqrt(k)) * grad / norm, 0.0, xi)
            value, grad = split(z)
            if value < best:
                best_z, best = z.copy(), value
        # refine with cyclic golden-section sweeps (convex along coordinates)
        ratio = 0.5 * (math.sqrt(5.0) - 1.0)
        z = best_z
        for _ in range(4):
            for j in range(self.dim):
                lo, hi = 0.0, float(xi[j])
                if hi <= 0.0:
                    continue
                a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
                za, zb = z.copy(), z.copy()
                za[j], zb[j] = a, b
                fa, fb = split(za)[0], split(zb)[0]
                for _ in range(48):
                    if fa <= fb:
                        hi, b, fb = b, a, fa
                        a = hi - ratio * (hi - lo)
                        za[j] = a
                        fa = split(za)[0]
                    else:
                        lo, a, fa = a, b, fb
                        b = lo + ratio * (hi - lo)
                        zb[j] = b
                        fb = split(zb)[0]
                z[j] = a if fa <= fb else b
                best = min(best, fa, fb)
        return best, None


def scale(the_set: FlowSet, alpha: float) -> ScaledSet:
    return ScaledSet(the_set, alpha)


def nonneg_matrix_image(the_set: FlowSet, matrix) -> MatrixImageSet:
    return MatrixImageSet(the_set, matrix)


def lift(the_set: FlowSet, indices: Sequence[int], ambient_dim: int) -> LiftedSet:
    return LiftedSet(the_set, indices, ambient_dim)


def minkowski_sum(first: FlowSet, second: FlowSet) -> MinkowskiSumSet:
    return MinkowskiSumSet(first, second)


def intersection(first: FlowSet, second: FlowSet) -> IntersectionSet:
    return IntersectionSet(first, second)


def aggregate(members: Sequence[tuple[FlowSet, Sequence[int]]],
              ambient_dim: int) -> MinkowskiSumSet:
    """Sum over edges of their lifted sets: the one-big-edge view of a network.

    With zero edge utilities, maximizing U over this set is the whole
    flow problem; it exists so that composition and the support calculus
    can be tested directly against solver behaviour.
    """
    return MinkowskiSumSet(*(LiftedSet(the_set, indices, ambient_dim)
                             for the_set, indices in members))
