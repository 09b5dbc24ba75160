"""Oracles for downward-closed allowable flow sets.

A flow set T describes the feasible flows of one network edge.  Every set
handled here is closed, convex, downward closed (x in T and x' <= x imply
x' in T) and contains 0, so an edge can always dissipate output or stay
unused.  Each set is exposed through three oracles:

* ``contains(x)``   -- membership, with a scaled additive tolerance,
* ``support(xi)``   -- ``sup_{x in T} xi @ x`` together with a maximizer
  when the supremum is finite and attained (the edge "arbitrage"
  subproblem of the dual solver),
* ``gauge(x)``      -- the Minkowski functional
  ``inf {lam > 0 : x / lam in T}``, whose one-level set traces the
  boundary of T.

Downward closure makes the support infinite as soon as any price
component is negative, and makes ``contains(x / lam)`` monotone in
``lam``, which is what the generic gauge bisection relies on.

Every set, built-in or composed, computes its support once, in
``kernel(xi)``: the supremum at prices already known to be nonnegative,
taken and returned as Python floats.  The dual solver calls it directly.
``support`` is the one vector adapter (``support_from_kernel``): it
answers ``inf`` at any negative price and converts to and from numpy.
"""

from __future__ import annotations

import bisect
import functools
import math
import numbers
import operator
from typing import NamedTuple, Sequence

import numpy as np

DEFAULT_TOL = 1e-9

# lambda beyond which a point is treated as unreachable by scaling
GAUGE_LIMIT = 1e12


class Support(NamedTuple):
    """Value of a support function and, when attained, a maximizer."""

    value: float
    point: np.ndarray | None


def as_vector(x, dim: int) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim == 0 and dim == 1:
        v = v.reshape(1)
    if v.shape != (dim,):
        raise ValueError(f"expected a vector of length {dim}, got shape {v.shape}")
    return v


def _floats(v, dim: int) -> list[float]:
    """A vector as a list of floats.  A list of length ``dim``, such as the
    solver's own prices, passes through; anything else goes through
    ``as_vector``."""
    if type(v) is list and len(v) == dim:
        return v
    return as_vector(v, dim).tolist()


# characters of a refused value's ``repr`` that a message shows at most
SHOWN_CHARS = 80


def _shown(value) -> str:
    """``repr(value)`` for a refusal message, cut after ``SHOWN_CHARS``
    characters: a deeply nested array or a long string in a number field
    keeps the start that names it, not all of it."""
    text = repr(value)
    return text if len(text) <= SHOWN_CHARS else text[:SHOWN_CHARS] + "..."


def _real(value, what: str) -> float:
    """A real number as a Python float.  JSON's int and float pass by their
    exact type; any other ``numbers.Real`` (numpy scalars) is converted;
    bools, strings, an int beyond float range and everything else are
    refused by name.  Range checks stay with the caller."""
    if type(value) is float:
        return value
    if type(value) is int or (isinstance(value, numbers.Real) and not isinstance(value, bool)):
        try:
            return float(value)
        except OverflowError:  # an int beyond the largest float
            raise OverflowError(f"{what} is an integer too large for a float") from None
    raise TypeError(f"{what} must be a real number, got {_shown(value)}")


def _array(value, what: str) -> tuple:
    """The entries of an array as a tuple; anything that is not iterable
    is refused by name."""
    try:
        return tuple(value)
    except TypeError:
        raise TypeError(f"{what} must be an array, got {_shown(value)}") from None


def _index(value, what: str) -> int:
    """A nonnegative integer count or node index; bools, floats and
    strings are refused."""
    if type(value) is not int:
        try:
            if isinstance(value, bool):
                raise TypeError
            value = operator.index(value)
        except TypeError:
            raise TypeError(f"{what} must be an integer, got {_shown(value)}") from None
    if value < 0:
        raise ValueError(f"{what} must be nonnegative, got {value}")
    return value


def scaled_tol(tol: float, rhs: float) -> float:
    """Additive tolerance for one defining inequality, scaled by max(1, |rhs|)."""
    return tol * max(1.0, abs(rhs))


class FlowSet:
    """Base class for allowable-flow-set oracles.

    Subclasses set ``dim`` and ``upper_bound`` (elementwise bound b with
    x <= b for every member; entries may be ``inf``) and implement
    ``contains`` and ``kernel``; ``support`` is derived from ``kernel``.
    Instances are immutable after construction and all operations are
    pure, so they are safe to share across threads.

    ``unique_maximizer`` is true when the support's maximizer is unique at
    every price vector with all components positive, so that the support
    has no kink there.  The dual solver's gap certificate then never looks
    for a second maximizer of the set (``solver._certify``).  False, the
    default, is always safe: the certificate compares the maximizers at
    nearby prices and weighs them when they differ.
    """

    dim: int
    upper_bound: np.ndarray
    unique_maximizer: bool = False

    def contains(self, x, tol: float = DEFAULT_TOL) -> bool:
        raise NotImplementedError

    # The four families and ``MinkowskiSumSet`` repeat this method in their
    # own class body, because perfbench's tracer counts support calls by
    # wrapping exactly those classes' own ``support``.
    def support(self, price) -> Support:
        return support_from_kernel(self, price)

    def kernel(self, xi: Sequence[float]) -> tuple[float, tuple[float, ...] | None]:
        """The support at prices ``xi >= 0`` given as Python floats, with the
        maximizer as a tuple of floats (or None when unattained)."""
        raise NotImplementedError

    def gauge(self, x, tol: float = DEFAULT_TOL) -> float:
        """Minkowski functional by bisection over the membership oracle.

        Returns 0 for recession directions (x / lam feasible for every
        lam > 0) and ``inf`` when no lam up to GAUGE_LIMIT works.  The
        membership tolerance is tightened in proportion to the candidate
        scaling, so directions outside the recession cone cannot pass as
        members once scaled far down.
        """
        v = as_vector(x, self.dim)
        if not np.any(v):
            return 0.0

        def member(lam: float) -> bool:
            return self.contains(v / lam, DEFAULT_TOL / max(1.0, lam))

        hi = 1.0
        while not member(hi):
            hi *= 2.0
            if hi > GAUGE_LIMIT:
                return math.inf
        lo = 0.0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if member(mid):
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)


def support_from_kernel(the_set: FlowSet, price) -> Support:
    """``support`` through ``kernel``: infinite at any negative price."""
    xi = as_vector(price, the_set.dim)
    if (xi < 0.0).any():
        return Support(math.inf, None)
    value, point = the_set.kernel(xi.tolist())
    return Support(value, None if point is None else np.array(point))


class RationalGain:
    """Gain h(w) = w / (1 + w): strictly concave, increasing, h(0) = 0."""

    kind = "rational"

    def value(self, w: float) -> float:
        return w / (1.0 + w)

    def best_output(self, w: float) -> float:
        # increasing gain, so the largest admissible input is best
        return self.value(w)

    def best_input(self, price_in: float, price_out: float, cap: float) -> float:
        """Argmax of ``-price_in * w + price_out * h(w)`` over [0, cap]."""
        if price_out <= 0.0:
            return 0.0
        if price_in <= 0.0:
            return cap
        w = math.sqrt(price_out / price_in) - 1.0
        return min(max(w, 0.0), cap)


class PiecewiseLinearGain:
    """Concave piecewise-linear gain tabulated as (input, output) breakpoints.

    The implicit first breakpoint is (0, 0); segment slopes must be
    strictly decreasing, which guarantees concavity without any runtime
    checks.
    """

    kind = "piecewise_linear"

    def __init__(self, points: Sequence[Sequence[float]]):
        pts = []
        for point in _array(points, "points"):
            pair = _array(point, "gain point")
            if len(pair) != 2:
                raise ValueError(f"gain point must be two numbers, got {_shown(point)}")
            pts.append((_real(pair[0], "gain point"), _real(pair[1], "gain point")))
        if not pts:
            raise ValueError("piecewise gain needs at least one breakpoint")
        ws = [0.0] + [p[0] for p in pts]
        hs = [0.0] + [p[1] for p in pts]
        if not all(map(math.isfinite, ws + hs)):
            raise ValueError("breakpoints must be finite numbers")
        for a, b in zip(ws, ws[1:]):
            if b <= a:
                raise ValueError("breakpoint inputs must be strictly increasing and positive")
        slopes = [(hb - ha) / (wb - wa) for (wa, wb, ha, hb) in zip(ws, ws[1:], hs, hs[1:])]
        for a, b in zip(slopes, slopes[1:]):
            if b >= a:
                raise ValueError("segment slopes must be strictly decreasing")
        self.inputs, self.outputs, self.slopes = ws, hs, slopes
        self._segments = list(zip(ws, ws[1:], slopes))
        # input beyond which extra flow no longer raises the output
        self._peak = next((w for w, s in zip(ws, slopes) if s <= 0.0), ws[-1])

    @property
    def last_input(self) -> float:
        return self.inputs[-1]

    def value(self, w: float) -> float:
        """Linear interpolation between breakpoints; 0 for w <= 0."""
        ws = self.inputs
        if w > ws[-1] + 1e-12:
            raise ValueError("input beyond the tabulated range")
        if w <= 0.0:
            return 0.0
        k = bisect.bisect_right(ws, w) - 1
        if k == len(self.slopes):
            return self.outputs[-1]
        return self.outputs[k] + self.slopes[k] * (w - ws[k])

    def best_output(self, w: float) -> float:
        return self.value(min(w, self._peak))

    def best_input(self, price_in: float, price_out: float, cap: float) -> float:
        w = 0.0
        for lo, hi, s in self._segments:
            if lo >= cap:
                break
            if -price_in + price_out * s > 0.0:
                w = min(hi, cap)
            else:
                break
        return w


class CappedConcaveEdge(FlowSet):
    """Directed two-node edge: send up to ``capacity`` units in, get h(input) out.

    T is the downward closure of {(-w, h(w)) : 0 <= w <= capacity}, i.e.

        T = {x : x1 <= 0,  x2 <= h(min(capacity, -x1))}

    for a nondecreasing gain (the best reachable output is used when the
    tabulated gain flattens out).
    """

    dim = 2

    def __init__(self, gain: RationalGain | PiecewiseLinearGain | None = None,
                 capacity: float = 1.0):
        capacity = _real(capacity, "capacity")
        if not 0.0 < capacity < math.inf:
            raise ValueError("capacity must be positive and finite")
        gain = RationalGain() if gain is None else gain
        if isinstance(gain, PiecewiseLinearGain) and gain.last_input < capacity:
            raise ValueError("tabulated gain must cover [0, capacity]")
        self.gain = gain
        self.capacity = capacity
        # a strictly concave gain has one best input; a piecewise-linear
        # one has a whole segment of them at a slope's break-even price
        self.unique_maximizer = isinstance(gain, RationalGain)
        self.upper_bound = np.array([0.0, gain.best_output(capacity)])

    def contains(self, x, tol: float = DEFAULT_TOL) -> bool:
        x1, x2 = _floats(x, 2)
        if not x1 <= scaled_tol(tol, 0.0):  # NaN-safe: max(0.0, nan) below is 0.0
            return False
        w = min(self.capacity, max(0.0, -x1))
        bound = self.gain.best_output(w)
        return x2 <= bound + scaled_tol(tol, bound)

    def support(self, price) -> Support:
        return support_from_kernel(self, price)

    def kernel(self, xi):
        price_in, price_out = xi
        w = self.gain.best_input(price_in, price_out, self.capacity)
        out = self.gain.value(w)
        value = -price_in * w + price_out * out
        if value <= 0.0:
            return 0.0, (0.0, 0.0)
        return value, (-w, out)


class LinearTickEdge(FlowSet):
    """One orderbook tick: pay w <= cap of asset 1, receive price * w of asset 2.

    Downward closure of the segment {(-w, price * w) : 0 <= w <= cap};
    the support function is cap * max(0, price * xi2 - xi1) on xi >= 0.
    """

    dim = 2

    def __init__(self, price: float, cap: float):
        price, cap = _real(price, "price"), _real(cap, "cap")
        if not (0.0 < price < math.inf and 0.0 < cap < math.inf):
            raise ValueError("price and cap must be positive and finite")
        self.price = price
        self.cap = cap
        self._out = price * cap
        self.upper_bound = np.array([0.0, self._out])

    def contains(self, x, tol: float = DEFAULT_TOL) -> bool:
        x1, x2 = _floats(x, 2)
        if not x1 <= scaled_tol(tol, 0.0):  # NaN-safe: max(0.0, nan) below is 0.0
            return False
        bound = self.price * min(self.cap, max(0.0, -x1))
        return x2 <= bound + scaled_tol(tol, bound)

    def support(self, price) -> Support:
        return support_from_kernel(self, price)

    def kernel(self, xi):
        unit = self.price * xi[1] - xi[0]
        if unit <= 0.0:
            return 0.0, (0.0, 0.0)
        return self.cap * unit, (-self.cap, self._out)


class ProductMarketEdge(FlowSet):
    """Two-asset constant-product market with reserves (R1, R2).

    Feasible trades keep the product of post-trade reserves at or above
    its initial value k = R1 * R2:

        T = {x : (R1 - x1)(R2 - x2) >= k,  x1 <= R1,  x2 <= R2}.

    Zero lies on the boundary.  For strictly positive prices the support
    has the closed form  xi1 R1 + xi2 R2 - 2 sqrt(k xi1 xi2)  with
    maximizer on the reserve curve; when exactly one price vanishes the
    supremum is finite but approached only in the limit, so no maximizer
    is returned.
    """

    dim = 2
    unique_maximizer = True

    def __init__(self, reserves: Sequence[float]):
        try:
            r1, r2 = reserves
        except TypeError:
            raise TypeError(f"reserves must be an array, got {_shown(reserves)}") from None
        except ValueError:  # not two entries
            raise ValueError("reserves must be two positive finite numbers") from None
        # JSON's floats pass as they are; anything else through _real
        if type(r1) is not float:
            r1 = _real(r1, "reserves")
        if type(r2) is not float:
            r2 = _real(r2, "reserves")
        if not (0.0 < r1 < math.inf and 0.0 < r2 < math.inf):
            raise ValueError("reserves must be two positive finite numbers")
        self._r1, self._r2 = r1, r2
        self.invariant = r1 * r2
        if not 0.0 < self.invariant < math.inf:  # an infinite k would leave 0 outside T
            raise ValueError("reserves must have a positive finite product")

    # a numpy copy of the checked floats, built on first use: loading and
    # solving a document never read it
    @functools.cached_property
    def upper_bound(self) -> np.ndarray:
        return np.array((self._r1, self._r2))

    def contains(self, x, tol: float = DEFAULT_TOL) -> bool:
        x1, x2 = _floats(x, 2)
        r1, r2 = self._r1, self._r2
        if x1 > r1 + scaled_tol(tol, r1):
            return False
        if x2 > r2 + scaled_tol(tol, r2):
            return False
        # a tolerance relative to k however small: an absolute one accepts
        # draining a market whose k is below it (for k >= 1 this is the
        # float of scaled_tol)
        k = self.invariant
        prod = max(r1 - x1, 0.0) * max(r2 - x2, 0.0)
        return prod >= k - tol * k

    def support(self, price) -> Support:
        return support_from_kernel(self, price)

    def kernel(self, xi):
        x1, x2 = xi
        r1, r2, k = self._r1, self._r2, self.invariant
        if x1 == 0.0 or x2 == 0.0:
            if x1 == x2:  # both prices zero
                return 0.0, (0.0, 0.0)
            # the free coordinate runs to -inf along the reserve curve
            return x1 * r1 + x2 * r2, None
        value = x1 * r1 + x2 * r2 - 2.0 * math.sqrt(k * x1 * x2)
        point = (r1 - math.sqrt(k * x2 / x1), r2 - math.sqrt(k * x1 / x2))
        return max(value, 0.0), point

    @staticmethod
    def batch_kernel(reserves: np.ndarray):
        """``kernel`` of a run of markets in one numpy pass, given their
        reserves interleaved (r1, r2 of the first market, then of the next).

        The returned function takes the array x of nonnegative prices of
        the markets, interleaved the same way, and returns the arrays
        (values, points) of their supports and of their maximizers, also
        interleaved.  Each row takes the float operations of ``kernel``'s
        closed form, so it equals ``kernel`` bit for bit.  Where a row has
        a zero price its value is still ``kernel``'s (the root term is 0),
        but its point is not: the caller takes that row's point from
        ``kernel``.  Such a row divides by zero, and an extreme price
        overflows, so the caller sets numpy's error state.
        """
        r1, r2 = reserves[0::2], reserves[1::2]
        k = r1 * r2  # each market's invariant, bit for bit
        invariants = np.repeat(k, 2)

        def batched(x: np.ndarray):
            x1, x2 = x[0::2], x[1::2]
            values = np.maximum(x1 * r1 + x2 * r2 - 2.0 * np.sqrt(k * x1 * x2), 0.0)
            # row by row, (r1 - sqrt(k x2 / x1), r2 - sqrt(k x1 / x2))
            swapped = x.reshape(-1, 2)[:, ::-1].ravel()
            return values, reserves - np.sqrt(invariants * swapped / x)

        return batched


class HalfLineEdge(FlowSet):
    """One-node edge supplying at most ``cap`` units: T = {z : z <= cap}.

    The simplest flow set; also the building block of the knapsack
    reduction, where cap is the item weight.
    """

    dim = 1
    unique_maximizer = True

    def __init__(self, cap: float):
        cap = _real(cap, "cap")
        if not cap >= 0.0:  # NaN fails too; +inf is a valid cap
            raise ValueError("cap must be nonnegative")
        self.cap = cap
        self.upper_bound = np.array([cap])

    def contains(self, x, tol: float = DEFAULT_TOL) -> bool:
        return _floats(x, 1)[0] <= self.cap + scaled_tol(tol, self.cap)

    def support(self, price) -> Support:
        return support_from_kernel(self, price)

    def kernel(self, xi):
        price = xi[0]
        if price == 0.0:
            return 0.0, (0.0,)
        if self.cap == math.inf:
            return math.inf, None
        return price * self.cap, (self.cap,)

    def gauge(self, x, tol: float = DEFAULT_TOL) -> float:
        v = as_vector(x, 1)
        if v[0] <= 0.0:
            return 0.0
        if self.cap == 0.0:
            return math.inf
        return float(v[0] / self.cap)
