"""Perspective cones of flow sets and the conic rewriting of an instance.

The flow cone of a set T in R^d is the closure of

    {(x, -lam) : x / lam in T, lam > 0}  in R^{d+1},

a downward-closed convex cone.  T is recovered as the slice at the last
coordinate -1, and the gauge of T gives an exact membership test:
(x, s) with s <= 0 lies in the cone iff gauge(x) <= -s (at s = 0 the
slice is the recession cone, gauge(x) = 0).

Polar membership uses the support-function epigraph form.  For a dual
point (xi, mu), maximizing xi @ (lam t) + mu (-lam) over t in T and
lam > 0 gives lam (xi @ t - mu), which stays nonpositive for every lam
exactly when sup_t xi @ t <= mu.  Hence

    cone polar = {(xi, mu) : f_T(xi) <= mu},

a test that costs one support evaluation instead of sampling cone points.

Clipping the cone to last coordinate in [-1, 0] yields the convex hull of
Q = {0} ∪ (T × {-1}), the constraint set of the fixed-fee problem; its
support function max(0, f_T(xi) - mu) is the per-edge subproblem of the
fee dual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .sets import DEFAULT_TOL, FlowSet, Support, as_vector, scaled_tol

if TYPE_CHECKING:  # pragma: no cover
    from .model import Instance


class FlowCone:
    """Perspective cone of a flow set with the homogenizing coordinate negated."""

    def __init__(self, base: FlowSet):
        self.base = base
        self.dim = base.dim + 1

    def contains(self, point, tol: float = DEFAULT_TOL) -> bool:
        p = as_vector(point, self.dim)
        x, s = p[:-1], p[-1]
        if not -math.inf < s <= scaled_tol(tol, 1.0):  # NaN fails too
            return False
        level = max(0.0, -s)
        g = self.base.gauge(x, min(tol, DEFAULT_TOL))
        return g <= level + scaled_tol(tol, max(1.0, level))

    def polar_contains(self, point, tol: float = DEFAULT_TOL) -> bool:
        p = as_vector(point, self.dim)
        xi, mu = p[:-1], p[-1]
        value = self.base.support(xi).value
        if not math.isfinite(value):
            return bool(math.isinf(mu) and mu > 0)
        return value <= mu + scaled_tol(tol, mu)

    def dominating_completion(self, point, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Push a cone point with activation in [-1, 0] down to activation -1.

        Valid because the cone is downward closed: membership of (x, s)
        with -1 <= s <= 0 implies membership of (x, -1).
        """
        p = as_vector(point, self.dim)
        eps = scaled_tol(tol, 1.0)
        if not -1.0 - eps <= p[-1] <= eps:  # NaN fails too
            raise ValueError("activation coordinate must lie in [-1, 0]")
        if not self.contains(p, tol):
            raise ValueError("point is not in the cone")
        out = p.copy()
        out[-1] = -1.0
        return out


class ClippedCone:
    """The flow cone restricted to activation in [-1, 0]: conv({0} ∪ (T × {-1}))."""

    def __init__(self, cone: FlowCone):
        self.cone = cone
        self.dim = cone.dim

    @property
    def base(self) -> FlowSet:
        return self.cone.base

    def contains(self, point, tol: float = DEFAULT_TOL) -> bool:
        p = as_vector(point, self.dim)
        eps = scaled_tol(tol, 1.0)
        if not -1.0 - eps <= p[-1] <= eps:  # NaN fails too
            return False
        return self.cone.contains(p, tol)

    def support(self, price) -> Support:
        """sup over conv(Q) of xi @ x + mu * s, i.e. max(0, f_T(xi) - mu).

        The supremum over a convex hull equals the supremum over Q
        itself: either stay at 0 or pay mu for activation -1 and collect
        the set's support.  Maximizers are integral by construction.
        """
        p = as_vector(price, self.dim)
        xi, mu = p[:-1], p[-1]
        value, point = self.base.support(xi)
        if not math.isfinite(value):
            return Support(math.inf, None)
        active = value - mu
        if active > 0.0:
            joined = None if point is None else np.append(point, -1.0)
            return Support(float(active), joined)
        return Support(0.0, np.zeros(self.dim))


@dataclass(frozen=True)
class ConicInstance:
    """Conic form of an instance: one shared activation node, one cone per edge.

    Selectors gain a unit row and column, so edge i maps its local
    coordinates to ``(*nodes_i, n)`` in the (n+1)-dimensional ambient
    space; the network objective reads only the original coordinates and
    the per-edge objective folds the activation floor lam >= -1 into an
    indicator.
    """

    base: "Instance"
    cones: tuple[FlowCone, ...]
    clipped: tuple[ClippedCone, ...]

    @property
    def ambient_dim(self) -> int:
        return self.base.n + 1

    def selector(self, i: int) -> tuple[int, ...]:
        return (*self.base.edges[i].nodes, self.base.n)

    def network_objective(self, y_tilde) -> float:
        y = as_vector(y_tilde, self.ambient_dim)
        return self.base.utility.value(y[:-1])

    def edge_objective(self, i: int, point, tol: float = DEFAULT_TOL) -> float:
        p = as_vector(point, self.cones[i].dim)
        if not p[-1] >= -1.0 - scaled_tol(tol, 1.0):  # NaN is outside too
            return -math.inf
        return 0.0

    def to_original_flows(self, tilde_flows, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
        """Map conic edge points at activation -1 back to flows of the base sets."""
        out = []
        for i, point in enumerate(tilde_flows):
            p = as_vector(point, self.cones[i].dim)
            if not abs(p[-1] + 1.0) <= scaled_tol(tol, 1.0):  # NaN fails too
                raise ValueError(f"edge {i}: activation must be -1 to recover a flow")
            out.append(p[:-1].copy())
        return out


def conic_rewrite(instance: "Instance") -> ConicInstance:
    """Rewrite a flow instance over sets into the equivalent conic form."""
    cones = tuple(FlowCone(edge.flow_set) for edge in instance.edges)
    clipped = tuple(ClippedCone(cone) for cone in cones)
    return ConicInstance(base=instance, cones=cones, clipped=clipped)
