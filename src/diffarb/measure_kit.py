"""Real-function and measure calculus for diffusion characteristics.

This module provides the numeric substrate used everywhere else:

* a small closed expression grammar for scale functions and densities
  (serializable, with exact one-sided derivatives and a.e. second
  derivatives),
* ``SmoothPiece1D`` -- a piecewise-smooth monotone function with explicit
  kink bookkeeping,
* ``DecomposedMeasure`` -- a measure written explicitly as an absolutely
  continuous density plus atoms plus an optional singular-continuous
  component on a declared base,
* monotone inversion, pushforward of measures through increasing maps,
  second-derivative measures of convex-difference functions,
* integrability deciders for local-L2 style conditions, combining an exact
  exponent rule on annotated singularities with a conservative numeric
  refinement fallback.

Everything is pure and immutable after construction; all function handles
accept and return numpy arrays.
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass, fields, replace
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "MeasureKitError",
    "QuadratureError",
    "KinkMismatchError",
    "QuadConfig",
    "Expr",
    "Const",
    "Affine",
    "PowerSigned",
    "PowerAbs",
    "ExpIntegral",
    "Sum",
    "Product",
    "Compose",
    "Piecewise",
    "Tabulated",
    "expr_from_json",
    "SmoothPiece1D",
    "ScComponent",
    "DecomposedMeasure",
    "measure_from_json",
    "sc_from_json",
    "json_object",
    "json_number",
    "json_list",
    "json_pair",
    "adaptive_quad",
    "gl_fixed",
    "invert_monotone_vec",
    "pushforward",
    "leading_increment",
    "second_derivative_decomposition",
    "LocalBehavior",
    "same_point",
    "IntegrabilityVerdict",
    "window_nodes",
    "decide_L2_local",
    "decide_weighted_L2_boundary",
    "decide_abs_integral",
    "sampled_total_variation",
]


class MeasureKitError(Exception):
    """Base error for this module."""


class QuadratureError(MeasureKitError):
    """Adaptive quadrature failed to reach the requested tolerance.

    Raised instead of silently returning a truncated value.
    """


class KinkMismatchError(MeasureKitError):
    """Declared kink list disagrees with the one-sided derivatives."""


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances of the equality checks: eq_rel is the relative tolerance
    for algebraic identities, atom_loc the absolute tolerance for matching
    atom locations."""

    eq_rel: float = 1e-9
    atom_loc: float = 1e-12

    def override(self, **kw: float) -> "QuadConfig":
        json_object(kw, "tolerance", {f.name for f in fields(self)})
        return replace(self, **{k: float(v) for k, v in kw.items()})


DEFAULT_QUAD = QuadConfig()


def _arr(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


def close_rel(a: float, b: float, tol: float, floor: float = 1e-15) -> bool:
    """Relative closeness with an absolute floor for near-zero pairs."""
    a = float(a)
    b = float(b)
    scale = max(abs(a), abs(b))
    if scale <= floor:
        return True
    return abs(a - b) <= tol * scale


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gl_fixed(f: Callable[[np.ndarray], np.ndarray], a: float, b: float, n: int = 21) -> float:
    """Fixed n-point Gauss-Legendre panel. Nodes never touch a or b."""
    return 0.0 if a == b else _gl_panels(f, [a], [b], n)[0]


def _gl_panels(f: Callable[[np.ndarray], np.ndarray], a, b, n: int = 21) -> list[float]:
    """``gl_fixed`` on the panels [a_i, b_i], a_i != b_i, read from one call
    of f on their stacked nodes; each panel gets the bits it gets alone."""
    x, w = _leggauss(n)
    a, b = np.asarray(a, float), np.asarray(b, float)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    vals = _arr(f((mid[:, None] + half[:, None] * x).ravel())).reshape(a.size, n)
    return [float(h * np.dot(w, v)) for h, v in zip(half, vals)]


def adaptive_quad(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    rtol: float = 1e-8,
    atol: float = 1e-12,
    max_panels: int = 2000,
) -> float:
    """Globally adaptive quadrature of a vectorized integrand.

    Error per panel is estimated as the difference between 21- and 10-point
    Gauss rules, both read from one call of f on the 31 stacked nodes;
    panels are split worst-first until the summed error meets
    max(atol, rtol * |integral|). Raises :class:`QuadratureError` if the
    panel budget is exhausted -- never returns a silently truncated value.
    """
    if a == b:
        return 0.0
    sign = 1.0
    if a > b:
        a, b, sign = b, a, -1.0
    x21, w21 = _leggauss(21)
    x10, w10 = _leggauss(10)
    x31 = np.concatenate([x21, x10])

    def panel(lo: float, hi: float):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        v = _arr(f(mid + half * x31))
        if not np.all(np.isfinite(v)):
            return lo, hi, 0.0, math.inf
        i21 = float(half * np.dot(w21, v[:21]))
        i10 = float(half * np.dot(w10, v[21:]))
        return lo, hi, i21, abs(i21 - i10)

    panels = [panel(a, b)]
    while True:
        total = sum(p[2] for p in panels)
        err = sum(p[3] for p in panels)
        if err <= max(atol, rtol * abs(total)):
            return sign * total
        if len(panels) >= max_panels:
            raise QuadratureError(
                f"adaptive quadrature on [{a}, {b}] did not converge: "
                f"{len(panels)} panels, residual error {err:.3e}"
            )
        worst = max(range(len(panels)), key=lambda i: panels[i][3])
        lo, hi, _, _ = panels.pop(worst)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            raise QuadratureError(
                f"adaptive quadrature on [{a}, {b}] hit float resolution near {lo}"
            )
        panels.append(panel(lo, mid))
        panels.append(panel(mid, hi))


# ---------------------------------------------------------------------------
# Expression grammar
# ---------------------------------------------------------------------------


class Expr:
    """Base of the closed expression grammar.

    ``jet(x, side, order)`` walks the tree once and returns the value and
    the one-sided derivatives up to ``order`` (0, 1 or 2): ``(f,)``,
    ``(f, f')`` or ``(f, f', f'')``, f'' being the a.e. second derivative
    (density of the AC part of f''). ``side`` is +1 for right-hand, -1 for
    left-hand limits; away from the breakpoints both sides agree, and the
    value never depends on it. ``value``, ``deriv`` and ``deriv2`` read the
    jet, so each formula has one home and a caller that needs several
    outputs walks the tree once.

    ``bounds(a, b)`` returns sound enclosures ``((lo, hi), (lo', hi'),
    (lo'', hi''))`` of f, f' and f'' (both sides) over each closed window
    [a, b], arrays of windows alike, by interval arithmetic on the tree with
    every rounding outward. A node without a rule inherits the unbounded
    default, so nothing built on it is ever found bounded.

    ``inverse(y)`` is a closed-form root of f(x) = y at each target of a 1-D
    array, or None (the default); ``invert_monotone_vec`` checks it.

    ``local(c, side)`` is the leading power (e, k), k != 0 finite, with
    f(x) = k |x - c|^e (1 + o(1)) as x -> c from ``side``, or None (the
    default) where no rule reads it.
    """

    def jet(self, x: np.ndarray, side: int = 1, order: int = 1) -> tuple:
        raise NotImplementedError

    def bounds(self, a, b) -> tuple:
        shape = np.broadcast(a, b).shape
        return ((np.full(shape, -np.inf), np.full(shape, np.inf)),) * 3

    def inverse(self, y: np.ndarray) -> Optional[np.ndarray]:
        return None

    def local(self, c: float, side: int) -> Optional[tuple[float, float]]:
        return None

    def value(self, x: np.ndarray) -> np.ndarray:
        return self.jet(x, 1, 0)[0]

    def deriv(self, x: np.ndarray, side: int = 1) -> np.ndarray:
        return self.jet(x, side, 1)[1]

    def deriv2(self, x: np.ndarray, side: int = 1) -> np.ndarray:
        """A.e. second derivative (density of the AC part of f'')."""
        return self.jet(x, side, 2)[2]

    def children(self) -> tuple["Expr", ...]:
        """Sub-expressions whose breakpoints, infinite-slope points and
        jumps this node inherits."""
        return ()

    def breakpoints(self) -> tuple[float, ...]:
        """Candidate points where the function may fail to be C^2."""
        return _union(c.breakpoints() for c in self.children())

    def infinite_slope_points(self) -> tuple[float, ...]:
        """Points where the first derivative diverges to +inf."""
        return _union(c.infinite_slope_points() for c in self.children())

    def is_continuous(self) -> bool:
        """No jump anywhere; only ``Piecewise`` can introduce one."""
        return all(c.is_continuous() for c in self.children())

    def __call__(self, x):
        return self.value(_arr(x))


def _union(point_sets) -> tuple[float, ...]:
    return tuple(sorted(set().union(*point_sets)))


def _outward(lo, hi, ulps: int = 1) -> tuple:
    """lo moved down and hi up by ``ulps`` floats, NaN to the infinite bound,
    both of one shape and rounded as one stacked array. A zero stays: the
    sums and products here make one only exactly."""
    v = np.array((lo, hi), float)
    out = np.array([-np.inf, np.inf]).reshape((2,) + (1,) * (v.ndim - 1))
    for _ in range(ulps):
        v = np.where(v == 0.0, v, np.nextafter(v, out))
    v = np.where(np.isnan(v), out, v)
    return v[0], v[1]


def _flat(shape, c: float = 0.0) -> tuple:
    """The exact enclosure (c, c) on windows of ``shape``."""
    v = np.full(shape, c)
    return v, v


def _add(x: tuple, y: tuple) -> tuple:
    return _outward(x[0] + y[0], x[1] + y[1])


def _mul(x: tuple, y: tuple) -> tuple:
    """Interval product; an exact zero times an infinite bound counts as 0."""
    with np.errstate(invalid="ignore"):
        c = np.array([x[0] * y[0], x[0] * y[1], x[1] * y[0], x[1] * y[1]])
    c = np.where(np.isnan(c), 0.0, c)
    return _outward(c.min(axis=0), c.max(axis=0))


def _stacked(enclosures) -> tuple:
    """Enclosures of one shape as one (lo, hi) pair of stacked arrays, so
    that each interval operation runs once over all of them; ``zip`` of the
    pair splits it again."""
    return np.array([e[0] for e in enclosures]), np.array([e[1] for e in enclosures])


def _lead(e: float, k: float) -> Optional[tuple[float, float]]:
    """The leading power (e, k), or None unless k is finite and nonzero."""
    return (e, k) if k != 0.0 and math.isfinite(k) else None


def _pow(u: float, p: float) -> float:
    """u ** p for u > 0 as numpy rounds it: +inf or 0 past the float range."""
    with np.errstate(over="ignore", under="ignore"):
        return float(np.power(u, p))


@dataclass(frozen=True)
class Const(Expr):
    c: float

    def jet(self, x, side=1, order=1):
        x = _arr(x)
        return (np.full_like(x, self.c), *(np.zeros_like(x) for _ in range(order)))

    def bounds(self, a, b):
        shape = np.broadcast(a, b).shape
        return _flat(shape, self.c), _flat(shape), _flat(shape)

    def local(self, c, side):
        return _lead(0.0, self.c)


@dataclass(frozen=True)
class Affine(Expr):
    """a*x + b."""

    a: float
    b: float

    def jet(self, x, side=1, order=1):
        x = _arr(x)
        out = (self.a * x + self.b, np.full_like(x, self.a) if order else None, np.zeros_like(x) if order > 1 else None)
        return out[: order + 1]

    def bounds(self, a, b):
        va, vb = self.a * _arr(a) + self.b, self.a * _arr(b) + self.b
        shape = np.broadcast(va, vb).shape
        return _outward(np.minimum(va, vb), np.maximum(va, vb)), _flat(shape, self.a), _flat(shape)

    def inverse(self, y):
        return (y - self.b) / self.a if self.a > 0 else None

    def local(self, c, side):
        v = self.a * c + self.b
        return _lead(0.0, v) if v != 0.0 else _lead(1.0, self.a * side)


@dataclass(frozen=True)
class PowerSigned(Expr):
    """sign(x - center) * |x - center| ** p  with p > 0.

    Odd-symmetric power around ``center``; strictly increasing for every
    p > 0. For p < 1 the derivative diverges at the center, for p > 1 it
    vanishes there; both cases keep the two one-sided derivatives equal.
    """

    center: float
    p: float

    def __post_init__(self):
        if not self.p > 0:
            raise MeasureKitError("PowerSigned requires p > 0")

    def jet(self, x, side=1, order=1):
        u = _arr(x) - self.center
        au, sign = np.abs(u), np.sign(u)
        out = [sign * au**self.p]
        if order:
            with np.errstate(divide="ignore"):
                d = self.p * au ** (self.p - 1.0)
            at_center = 1.0 if self.p == 1.0 else (0.0 if self.p > 1.0 else np.inf)
            out.append(np.where(au == 0.0, at_center, d))
        if order > 1:
            with np.errstate(divide="ignore", invalid="ignore"):
                d2 = self.p * (self.p - 1.0) * sign * au ** (self.p - 2.0)
            out.append(np.where(au == 0.0, 0.0, d2))
        return tuple(out)

    def bounds(self, a, b):
        # u as the jet rounds it, both ends as one stacked array; f is monotone
        # in u, f' in |u| and f'' on each side, with limits at u -> 0-+;
        # np.power may be an ulp off
        u = np.array(np.broadcast_arrays(_arr(a) - self.center, _arr(b) - self.center))
        (ua, ub), p, k = u, self.p, self.p * (self.p - 1.0)
        if p == 1.0:
            return _outward(ua, ub), _flat(ua.shape, 1.0), _flat(ua.shape)
        au, sign = np.abs(u), np.sign(u)
        with np.errstate(all="ignore"):
            value = sign * au**p
            d = p * np.array((np.where((ua <= 0.0) & (ub >= 0.0), 0.0, au.min(axis=0)), au.max(axis=0))) ** (p - 1.0)
            dd = np.where(u == 0.0, 0.0, k * sign * au ** (p - 2.0))
            lim = k * np.power(0.0, p - 2.0)  # f'' at 0+, and -lim at 0-
        sides = [np.where((ua <= 0.0) & (ub > 0.0), lim, dd[0]), np.where((ua < 0.0) & (ub >= 0.0), -lim, dd[0])]
        dd = np.concatenate((dd, sides))
        return tuple(zip(*_outward(*_stacked([(v.min(axis=0), v.max(axis=0)) for v in (value, d, dd)]), 4)))

    def breakpoints(self):
        return () if self.p == 1.0 else (self.center,)

    def infinite_slope_points(self):
        return (self.center,) if self.p < 1.0 else ()

    def local(self, c, side):
        u = c - self.center
        return (self.p, float(side)) if u == 0.0 else _lead(0.0, math.copysign(_pow(abs(u), self.p), u))


@dataclass(frozen=True)
class PowerAbs(Expr):
    """|x - center| ** p for any real p: a speed density with a power zero
    or pole at ``center``, or a scale on one side of it.

    At the center the value is 0**p (1 at p = 0, +inf for p < 0), the
    one-sided slope the limit from ``side`` (an odd function's: the two
    signs differ), and the a.e. second derivative 0, as ``PowerSigned``
    reads it.
    """

    center: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.center) and math.isfinite(self.p)):
            raise MeasureKitError("PowerAbs requires a finite center and p")

    def jet(self, x, side=1, order=1):
        u = _arr(x) - self.center
        au, p = np.abs(u), self.p
        with np.errstate(divide="ignore", invalid="ignore"):
            out = [au**p]
            if order:
                at_center = 0.0 if p > 1.0 or p == 0.0 else side * (1.0 if p == 1.0 else math.copysign(np.inf, p))
                out.append(np.where(au == 0.0, at_center, p * np.sign(u) * au ** (p - 1.0)))
            if order > 1:
                out.append(np.where(au == 0.0, 0.0, p * (p - 1.0) * au ** (p - 2.0)))
        return tuple(out)

    def bounds(self, a, b):
        # f, |f'| and f'' are monotone in |u| on each side; |u| spans [m, M],
        # m = 0 on a window that holds or touches the center, where f' takes
        # both signs and the jet's f'' = 0; np.power may be an ulp off
        u = np.array(np.broadcast_arrays(_arr(a) - self.center, _arr(b) - self.center))
        (ua, ub), p, k = u, self.p, self.p * (self.p - 1.0)
        if p == 0.0:
            return _flat(ua.shape, 1.0), _flat(ua.shape), _flat(ua.shape)
        holds = (ua <= 0.0) & (ub >= 0.0)
        au = np.abs(u)
        w = np.array((np.where(holds, 0.0, au.min(axis=0)), au.max(axis=0)))
        with np.errstate(all="ignore"):
            value, g = w**p, p * w ** (p - 1.0)
            dd = k * w ** (p - 2.0) if k else np.zeros_like(w)
        top = np.abs(g).max(axis=0)
        d = np.where(holds, np.array((-top, top)), np.where(ub < 0.0, -g, g))
        dd = np.concatenate((dd, np.where(holds, 0.0, dd[:1])))
        return tuple(zip(*_outward(*_stacked([(v.min(axis=0), v.max(axis=0)) for v in (value, d, dd)]), 4)))

    def breakpoints(self):
        return () if self.p == 0.0 else (self.center,)

    def infinite_slope_points(self):
        return (self.center,) if 0.0 < self.p < 1.0 else ()

    def local(self, c, side):
        u = abs(c - self.center)
        return (self.p, 1.0) if u == 0.0 else _lead(0.0, _pow(u, self.p))


@dataclass(frozen=True)
class ExpIntegral(Expr):
    """x -> integral_anchor^x exp( integral_inner-anchor^y mu(z) dz ) dy.

    The canonical representation of a scale function with mu in L2_loc;
    both anchors are fixed at construction. Evaluation uses nested adaptive
    quadrature at relative tolerance 1e-10, both levels split at the
    breakpoints of mu, where the integrands may jump or kink.
    """

    mu: Expr
    anchor: float = 0.0
    inner_anchor: Optional[float] = None

    def _quad(self, f, a: float, b: float) -> float:
        cuts = sorted(p for p in self.mu.breakpoints() if min(a, b) < p < max(a, b))
        ends = [a, *(cuts if a <= b else cuts[::-1]), b]
        parts = [adaptive_quad(f, lo, hi, rtol=1e-10, atol=1e-14) for lo, hi in zip(ends, ends[1:])]
        return sum(parts[1:], parts[0])

    def _inner(self, y: float) -> float:
        return self._quad(self.mu.value, self.anchor if self.inner_anchor is None else self.inner_anchor, y)

    def _growth(self, y):
        ys = _arr(y)
        flat = np.atleast_1d(ys).ravel()
        with np.errstate(over="ignore"):  # overflow is inf: the scale diverges
            out = np.exp([self._inner(float(v)) for v in flat])
        return out.reshape(np.shape(ys)) if np.shape(ys) else out[0]

    def jet(self, x, side=1, order=1):
        xs = _arr(x)
        flat = np.atleast_1d(xs).ravel()
        vals = np.empty_like(flat)
        acc = 0.0
        prev = self.anchor
        for idx in np.argsort(flat):  # the value accumulates from point to point in sorted order
            xi = float(flat[idx])
            acc += self._quad(self._growth, prev, xi)
            vals[idx] = acc
            prev = xi
        out = [vals.reshape(np.shape(xs)) if np.shape(xs) else vals[0]]
        if order:
            d = np.array([self._growth(float(v)) for v in flat])
            out.append(d.reshape(np.shape(xs)) if np.shape(xs) else d[0])
        if order > 1:
            out.append(self.mu.value(xs) * out[1])
        return tuple(out)

    def breakpoints(self):
        # mu is not a child: the integral is continuous with a finite slope
        # whatever mu is, and inherits only mu's breakpoints
        return self.mu.breakpoints()


@dataclass(frozen=True)
class Sum(Expr):
    terms: tuple[Expr, ...]

    def __init__(self, terms: Sequence[Expr]):
        object.__setattr__(self, "terms", tuple(terms))

    def jet(self, x, side=1, order=1):
        x = _arr(x)
        out = [np.zeros_like(x) for _ in range(order + 1)]
        for t in self.terms:
            out = [o + v for o, v in zip(out, t.jet(x, side, order))]
        return tuple(out)

    def bounds(self, a, b):
        # the first term's enclosures, then one stacked interval sum per term
        if not self.terms:
            return (_flat(np.broadcast(a, b).shape),) * 3
        lo, hi = _stacked(self.terms[0].bounds(a, b))
        for t in self.terms[1:]:
            t_lo, t_hi = _stacked(t.bounds(a, b))
            lo, hi = _outward(lo + t_lo, hi + t_hi)
        return tuple(zip(lo, hi))

    @cached_property
    def _cubic(self) -> Optional[tuple[float, float, float, float]]:
        """(a, b, k, c) when the sum is a*x + b + k*sign(x - c)|x - c|^3 with
        a >= 0 and k > 0, its affine and constant terms folded in order."""
        a = b = 0.0
        rest = []
        for t in self.terms:
            if isinstance(t, Affine):
                a, b = a + t.a, b + t.b
            elif isinstance(t, Const):
                b = b + t.c
            else:
                rest.append(t)
        if len(rest) != 1 or not isinstance(rest[0], Product) or len(rest[0].factors) != 2 or not a >= 0:
            return None
        k = [f.c for f in rest[0].factors if isinstance(f, Const)]
        cube = [f.center for f in rest[0].factors if isinstance(f, PowerSigned) and f.p == 3.0]
        return (a, b, k[0], cube[0]) if k and cube and k[0] > 0 else None

    def inverse(self, y):
        # t = x - c solves t^3 + P t + Q = 0 with P = a/k >= 0: the real root
        # in the hyperbolic form of Cardano's formula, then one Newton step
        if self._cubic is None:
            return None
        a, b, k, c = self._cubic
        q = (a * c + b - y) / k
        if a > 0:
            p = a / k
            r = math.sqrt(p / 3.0)
            x = c - 2.0 * r * np.sinh(np.arcsinh(1.5 * q / (p * r)) / 3.0)
        else:
            x = c - np.cbrt(q)
        fx, d = self.jet(x)
        return np.where(d > 0, x - (fx - y) / d, x)

    def children(self):
        return self.terms


@dataclass(frozen=True)
class Product(Expr):
    factors: tuple[Expr, ...]

    def __init__(self, factors: Sequence[Expr]):
        object.__setattr__(self, "factors", tuple(factors))

    def jet(self, x, side=1, order=1):
        x = _arr(x)
        jets = [t.jet(x, side, order) for t in self.factors]
        vals = [j[0] for j in jets]
        n = len(jets)

        def times_others(part, *skip):  # part times the value of every factor not in skip, in order
            for k, v in enumerate(vals):
                if k not in skip:
                    part = part * v
            return part

        out = [times_others(np.ones_like(x))]
        if order:
            d = np.zeros_like(x)
            for i in range(n):
                d = d + times_others(jets[i][1], i)
            out.append(d)
        if order > 1:
            d2 = np.zeros_like(x)
            for i in range(n):
                d2 = d2 + times_others(jets[i][2], i)
            # ordered pairs (i, j), i != j: each unordered pair appears twice,
            # matching the product-rule coefficient 2 f'g'
            for i in range(n):
                for j in range(n):
                    if i != j:
                        d2 = d2 + times_others(jets[i][1] * jets[j][1], i, j)
            out.append(d2)
        return tuple(out)

    def bounds(self, a, b):
        # the constant factors fold into one interval k, which scales each
        # enclosure once; the jet's product rule runs on the other factors,
        # one interval operation at a time
        consts = [t.c for t in self.factors if isinstance(t, Const)]
        bs, shape = [t.bounds(a, b) for t in self.factors if not isinstance(t, Const)], np.broadcast(a, b).shape
        if len(bs) == 1:
            out = bs[0]
        else:

            def times_others(part, *skip):
                for k, bk in enumerate(bs):
                    part = part if k in skip else _mul(part, bk[0])
                return part

            d = d2 = _flat(shape)
            for i, bi in enumerate(bs):
                d = _add(d, times_others(bi[1], i))
                d2 = _add(d2, times_others(bi[2], i))
                for j, bj in enumerate(bs):
                    if i != j:
                        d2 = _add(d2, times_others(_mul(bi[1], bj[1]), i, j))
            out = times_others(_flat(shape, 1.0)), d, d2
        if not consts:
            return out
        lo = hi = math.prod(consts)  # each rounded product moves the bounds one float out
        for _ in consts[1:]:
            lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        return tuple(zip(*_mul(_stacked(out), (lo, hi))))

    def local(self, c, side):
        leads = [t.local(c, side) for t in self.factors]
        if None in leads:
            return None
        return _lead(sum(e for e, _ in leads), math.prod(k for _, k in leads))

    def children(self):
        return self.factors


@dataclass(frozen=True)
class Compose(Expr):
    """outer(inner(x)). Kink detection covers kinks of the inner map."""

    outer: Expr
    inner: Expr

    def jet(self, x, side=1, order=1):
        inner = self.inner.jet(_arr(x), side, order)
        if not order:
            return self.outer.jet(inner[0], 1, 0)
        u, di = inner[0], inner[1]
        # the outer slope is taken on the side the inner map moves u toward
        oside = np.where(di >= 0, side, -side)
        right = self.outer.jet(u, 1, order if side > 0 else 1)
        left = self.outer.jet(u, -1, order if side < 0 else 1)
        out = (right[0], np.where(oside > 0, right[1], left[1]) * di)
        if order > 1:
            o = right if side > 0 else left
            out += (o[2] * di * di + o[1] * inner[2],)
        return out

    def children(self):
        return (self.outer, self.inner)

    def _pull_back(self, pts: tuple[float, ...]) -> tuple[float, ...]:
        # exact preimages are available when the inner map is affine;
        # otherwise kink detection is limited to the inner breakpoints
        if isinstance(self.inner, Affine) and self.inner.a != 0:
            return tuple((p - self.inner.b) / self.inner.a for p in pts)
        return ()

    def breakpoints(self):
        pts = set(self.inner.breakpoints())
        pts.update(self._pull_back(self.outer.breakpoints()))
        return tuple(sorted(pts))

    def infinite_slope_points(self):
        pts = set(self.inner.infinite_slope_points())
        pts.update(self._pull_back(self.outer.infinite_slope_points()))
        return tuple(sorted(pts))


@dataclass(frozen=True)
class Piecewise(Expr):
    """Pieces glued at strictly increasing breakpoints.

    Values at a breakpoint follow the right-hand piece, and one-sided
    derivatives the piece on their side. Jumps are allowed (densities may
    be discontinuous); continuity is enforced separately where the
    expression is used as a scale function.
    """

    points: tuple[float, ...]
    pieces: tuple[Expr, ...]

    def __init__(self, points: Sequence[float], pieces: Sequence[Expr]):
        points = tuple(float(p) for p in points)
        pieces = tuple(pieces)
        if len(pieces) != len(points) + 1:
            raise MeasureKitError("Piecewise needs len(pieces) == len(points) + 1")
        if any(points[i] >= points[i + 1] for i in range(len(points) - 1)):
            raise MeasureKitError("Piecewise breakpoints must be strictly increasing")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "pieces", pieces)

    def children(self):
        return self.pieces

    def is_continuous(self) -> bool:
        for i, p in enumerate(self.points):
            left = float(self.pieces[i].value(np.asarray(p)))
            right = float(self.pieces[i + 1].value(np.asarray(p)))
            if not close_rel(left, right, 1e-9, floor=1e-12):
                return False
        return super().is_continuous()

    @cached_property
    def _points(self) -> np.ndarray:
        return np.asarray(self.points)

    def jet(self, x, side=1, order=1):
        x = _arr(x)
        flat = np.atleast_1d(x).ravel()
        at = self._points.searchsorted(flat, "right")
        dat = self._points.searchsorted(flat, "left") if order and side < 0 else at
        # (piece index, first and last output read from it): a point on a
        # breakpoint, read from the left, takes its value and its slopes
        # from two pieces
        parts = [(at, 0, order)] if dat is at or np.array_equal(at, dat) else [(at, 0, 0), (dat, 1, order)]
        outs = [None] * (order + 1)
        for idx, first, last in parts:
            if flat.size == 1 or (flat.size and idx.min() == idx.max()):  # one piece holds every point
                outs[first : last + 1] = self.pieces[idx[0]].jet(flat, side, last)[first:]
                continue
            # each piece reads exactly its own points, in input order, grouped by one stable sort
            outs[first : last + 1] = (np.empty_like(flat) for _ in range(first, last + 1))
            perm = np.argsort(idx, kind="stable")
            cuts = np.searchsorted(idx[perm], np.arange(len(self.pieces) + 1)).tolist()
            for piece, a, b in zip(self.pieces, cuts, cuts[1:]):
                if a < b:
                    sel = perm[a:b]
                    got = piece.jet(flat[sel], side, last)
                    for k in range(first, last + 1):
                        outs[k][sel] = got[k]
        return tuple(o.reshape(np.shape(x)) if np.shape(x) else o[0] for o in outs)

    def bounds(self, a, b):
        # the jet reads a piece only on its closed sub-interval: the union
        # over the pieces whose one meets the window, on the part it meets
        a, b = np.broadcast_arrays(_arr(a), _arr(b))
        out = [(np.full(a.shape, np.inf), np.full(a.shape, -np.inf)) for _ in range(3)]
        ends = (-np.inf, *self.points, np.inf)
        for piece, lo, hi in zip(self.pieces, ends, ends[1:]):
            meets = (a <= hi) & (b >= lo)
            for (olo, ohi), (glo, ghi) in zip(out, piece.bounds(np.maximum(a[meets], lo), np.minimum(b[meets], hi))):
                olo[meets], ohi[meets] = np.minimum(olo[meets], glo), np.maximum(ohi[meets], ghi)
        return tuple(out)

    @cached_property
    def _images(self) -> Optional[np.ndarray]:
        img = self.value(np.asarray(self.points))
        return img if np.all(np.diff(img) > 0) else None

    def inverse(self, y):
        # the piece by the breakpoint images; an image maps to its breakpoint exactly
        if self._images is None:
            return None
        k, out = self._images.searchsorted(y), np.empty_like(y)
        for i, piece in enumerate(self.pieces):
            mask = k == i
            if mask.any():
                x = piece.inverse(y[mask])
                if x is None:
                    return None
                out[mask] = x
        return np.where(np.append(self._images, np.nan)[k] == y, np.append(self.points, np.nan)[k], out)

    def local(self, c, side):
        # the piece that x lies in as x -> c from ``side``
        k = bisect.bisect_right(self.points, c) if side > 0 else bisect.bisect_left(self.points, c)
        return self.pieces[k].local(c, side)

    def breakpoints(self):
        return _union((self.points, super().breakpoints()))


@dataclass(frozen=True)
class Tabulated(Expr):
    """Monotone piecewise-linear interpolant of strictly increasing samples.

    Outside the sampled range the end segments extrapolate linearly.
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __init__(self, xs: Sequence[float], ys: Sequence[float]):
        xs = tuple(float(v) for v in xs)
        ys = tuple(float(v) for v in ys)
        if len(xs) != len(ys) or len(xs) < 2:
            raise MeasureKitError("Tabulated needs >= 2 samples")
        if any(xs[i] >= xs[i + 1] for i in range(len(xs) - 1)):
            raise MeasureKitError("Tabulated xs must be strictly increasing")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def jet(self, x, side=1, order=1):
        x = _arr(x)
        xs = np.asarray(self.xs)
        ys = np.asarray(self.ys)
        s = np.diff(ys) / np.diff(xs)
        out = np.interp(x, xs, ys)
        out = np.where(x < xs[0], ys[0] + s[0] * (x - xs[0]), out)
        out = np.where(x > xs[-1], ys[-1] + s[-1] * (x - xs[-1]), out)
        if not order:
            return (out,)
        idx = np.searchsorted(xs, np.atleast_1d(x), side="right" if side > 0 else "left") - 1
        d = s[np.clip(idx, 0, len(s) - 1)]
        d = d.reshape(np.shape(x)) if np.shape(x) else float(d[0])
        return (out, d, np.zeros_like(x)) if order > 1 else (out, d)

    def bounds(self, a, b):
        # values: the knots in the window and its ends (np.interp may round
        # past a knot); slopes: the segments the window meets, on both sides
        a, b = np.broadcast_arrays(_arr(a), _arr(b))
        xs, ys = np.asarray(self.xs), np.asarray(self.ys)
        s = np.diff(ys) / np.diff(xs)
        va, vb = self.jet(a, 1, 0)[0], self.jet(b, 1, 0)[0]
        inside = (xs >= a[..., None]) & (xs <= b[..., None])
        lo = np.minimum(np.minimum(va, vb), np.where(inside, ys, np.inf).min(axis=-1))
        hi = np.maximum(np.maximum(va, vb), np.where(inside, ys, -np.inf).max(axis=-1))
        first = np.clip(np.searchsorted(xs, a, "left") - 1, 0, s.size - 1)
        last = np.clip(np.searchsorted(xs, b, "right") - 1, 0, s.size - 1)
        seg = (np.arange(s.size) >= first[..., None]) & (np.arange(s.size) <= last[..., None])
        slope = np.where(seg, s, np.inf).min(axis=-1), np.where(seg, s, -np.inf).max(axis=-1)
        return _outward(lo, hi, 2), slope, _flat(a.shape)

    def breakpoints(self):
        return tuple(self.xs[1:-1])


# ---------------------------------------------------------------------------
# JSON readers: each value of a document is checked once, where it is read
# ---------------------------------------------------------------------------


def json_object(obj, what: str, keys, required=(), error=MeasureKitError) -> dict:
    """``obj``, checked to be a JSON object whose keys lie in ``keys`` and
    include ``required``."""
    if not isinstance(obj, dict):
        raise error(f"{what} must be an object, got {type(obj).__name__}")
    for k in obj:
        if k not in keys:
            raise error(f"unknown {what} key {k!r}")
    for k in required:
        if k not in obj:
            raise error(f"missing required {what} field {k!r}")
    return obj


def json_number(value, what: str, error=MeasureKitError) -> float:
    """A real number (not NaN), or ``"inf"`` / ``"-inf"``, as a float."""
    if isinstance(value, str) and value in ("inf", "-inf"):
        return float(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or math.isnan(value):
        raise error(f"{what} must be a number, got {value!r}")
    return float(value)


def json_list(value, what: str, error=MeasureKitError) -> list:
    """``value``, checked to be a JSON list."""
    if not isinstance(value, list):
        raise error(f"{what} must be a list, got {value!r}")
    return value


def json_pair(value, what: str, error=MeasureKitError) -> tuple[float, float]:
    """A list of two numbers, read by ``json_number``."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise error(f"{what} must be a pair of numbers, got {value!r}")
    return json_number(value[0], what, error), json_number(value[1], what, error)


def expr_from_json(obj: dict) -> Expr:
    """Parse an expression node; an unknown tag or key is an error."""
    if not isinstance(obj, dict) or "node" not in obj:
        raise MeasureKitError("expression object must be a dict with a 'node' tag")
    tag = obj["node"]

    def get(*keys, optional=()):
        json_object(obj, f"{tag} node", ("node", *keys, *optional), required=keys)
        return [obj[k] for k in keys]

    def nums(*keys):
        return [json_number(v, f"{tag} field {k!r}") for k, v in zip(keys, get(*keys))]

    def exprs(items):
        return [expr_from_json(t) for t in json_list(items, f"{tag} items")]

    if tag == "const":
        return Const(*nums("c"))
    if tag == "affine":
        return Affine(*nums("a", "b"))
    if tag == "power_signed":
        return PowerSigned(*nums("center", "p"))
    if tag == "power_abs":
        return PowerAbs(*nums("center", "p"))
    if tag == "exp_integral":
        (mu,) = get("mu", optional=("anchor", "inner_anchor"))
        anchor, inner = obj.get("anchor", 0.0), obj.get("inner_anchor")
        return ExpIntegral(
            expr_from_json(mu),
            json_number(anchor, "exp_integral field 'anchor'"),
            None if inner is None else json_number(inner, "exp_integral field 'inner_anchor'"),
        )
    if tag == "sum":
        return Sum(exprs(*get("terms")))
    if tag == "product":
        return Product(exprs(*get("factors")))
    if tag == "compose":
        return Compose(*map(expr_from_json, get("outer", "inner")))
    if tag == "piecewise":
        points, pieces = get("breakpoints", "pieces")
        points = [json_number(x, "piecewise breakpoint") for x in json_list(points, "breakpoints")]
        return Piecewise(points, exprs(pieces))
    if tag == "tabulated":
        pairs = [json_pair(xy, "tabulated sample") for xy in json_list(*get("samples"), "samples")]
        return Tabulated([x for x, _ in pairs], [y for _, y in pairs])
    raise MeasureKitError(f"unknown expression node tag {tag!r}")


# ---------------------------------------------------------------------------
# SmoothPiece1D
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmoothPiece1D:
    """Piecewise-smooth function read through one handle.

    ``jet(x, side=1, order=1)`` has ``Expr.jet``'s signature and output
    order: ``(f,)``, ``(f, f')`` or ``(f, f', f'')``, the derivatives one-sided
    (``side`` +1 or -1). ``value``, ``d_plus``, ``d_minus`` and ``d2_ac`` read
    it; ``d2_ac`` is the density of the absolutely continuous part of the
    second derivative measure, and kink jumps carry the atomic part
    separately.
    """

    domain: tuple[float, float]
    jet: Callable[..., tuple]
    kinks: tuple[tuple[float, float], ...] = ()
    infinite_slope: tuple[float, ...] = ()
    expr: Optional[Expr] = None
    zero_slope: tuple[float, ...] = ()  # breakpoints with a one-sided derivative of 0

    def value(self, x: np.ndarray) -> np.ndarray:
        return self.jet(x, 1, 0)[0]

    def d_plus(self, x: np.ndarray) -> np.ndarray:
        return self.jet(x, 1, 1)[1]

    def d_minus(self, x: np.ndarray) -> np.ndarray:
        return self.jet(x, -1, 1)[1]

    def d2_ac(self, x: np.ndarray) -> np.ndarray:
        return self.jet(x, 1, 2)[2]

    @classmethod
    def from_expr(cls, e: Expr, domain: tuple[float, float]) -> "SmoothPiece1D":
        """Build from an expression; the function must be continuous.

        One-sided derivatives at the expression's breakpoints determine the
        kink list and the zero-slope points; continuity at the breakpoints is
        mandatory here (this is the constructor used for scale functions and
        their inverses).
        """
        lo, hi = domain
        if not e.is_continuous():
            raise MeasureKitError("expression has a jump at a breakpoint; not usable as a function piece")
        cs = [c for c in e.breakpoints() if lo < c < hi]
        slopes = [e.jet(np.array(cs), side, 1)[1].tolist() for side in (-1, 1)] if cs else ((), ())
        kinks, flat = [], []
        for c, dm, dp in zip(cs, *slopes):
            if math.isfinite(dm) and math.isfinite(dp) and not close_rel(dm, dp, 1e-12):
                kinks.append((c, dp - dm))
            if dm == 0.0 or dp == 0.0:
                flat.append(c)
        inf_pts = tuple(p for p in e.infinite_slope_points() if lo < p < hi)
        return cls(
            domain=domain,
            jet=e.jet,
            kinks=tuple(kinks),
            infinite_slope=inf_pts,
            expr=e,
            zero_slope=tuple(flat),
        )

    def check_increasing(self) -> None:
        """Strictly increasing on 512 even points of the domain (cut to
        -+1e6) and its special points, where a power may turn."""
        lo, hi = self.domain
        a = lo if math.isfinite(lo) else -1e6
        b = hi if math.isfinite(hi) else 1e6
        xs, inner = np.linspace(a, b, 512), [c for c in self.special_points if a < c < b]
        if inner:
            xs = np.unique(np.concatenate((xs, inner)))
        vals = _arr(self.value(xs))
        if np.any(np.diff(vals) <= 0):
            bad = int(np.argmax(np.diff(vals) <= 0))
            raise MeasureKitError(f"function is not strictly increasing near x = {xs[bad]}")

    @cached_property
    def special_points(self) -> tuple[float, ...]:
        """The kinks, infinite-slope points and expression breakpoints inside
        the domain, sorted."""
        lo, hi = self.domain
        pts = {c for c, _ in self.kinks} | set(self.infinite_slope)
        pts.update(self.expr.breakpoints() if self.expr is not None else ())
        return tuple(sorted(c for c in pts if lo < c < hi))

    @cached_property
    def kink_images(self) -> tuple[np.ndarray, np.ndarray]:
        """The kinks c at which the root check of ``invert_monotone_vec``
        holds for their own image, f(c - w) < f(c) <= f(c + w) with w =
        ``_eight_ulp(c)``, and those images f(c): a target equal to one maps
        to its kink before any root search, so that the one-sided slopes of
        an inverse differ there."""
        c = np.array([c for c, _ in self.kinks], float)
        if not c.size:
            return c, c
        w = _eight_ulp(c)
        with np.errstate(all="ignore"):
            lo, v, hi = np.split(_arr(self.value(np.concatenate((c - w, c, c + w)))), 3)
        keep = (lo < v) & (v <= hi)
        return c[keep], v[keep]

    @cached_property
    def node_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nodes x, images f(x) and inverse slopes 1/f'(x) for inversion: 1,025
        on a core (the domain, cut to 8 wide on an infinite side), the special
        points, and the core ends -+ 2^k out to the float range (every k < 64,
        then every 16th), cut to a strictly increasing run of finite images.
        Phase 1 of ``invert_monotone_vec`` guesses by linear interpolation in
        (f(x), x) and Newton-steps from there; the inverse slopes serve only
        the cubic Hermite guess of phase 2, ``_invert_safeguarded``."""
        lo, hi = self.domain
        a = lo if math.isfinite(lo) else min(-4.0, hi - 8.0)
        b = hi if math.isfinite(hi) else max(4.0, a + 8.0)
        tails = 2.0 ** np.r_[0:64, 64:1024:16]
        xs = np.unique(np.concatenate([np.linspace(a, b, 1025), self.special_points, a - tails, b + tails]))
        xs = xs[(xs >= lo) & (xs <= hi)]
        with np.errstate(all="ignore"):  # far tails may overflow: those nodes drop out
            us = _arr(self.value(xs))
            xs, us = xs[np.isfinite(us)], us[np.isfinite(us)]
            keep = np.concatenate(([True], us[1:] > np.maximum.accumulate(us)[:-1]))
            return xs[keep], us[keep], 1.0 / _arr(self.d_plus(xs[keep]))


# ---------------------------------------------------------------------------
# Monotone inversion
# ---------------------------------------------------------------------------


_EXPONENT = 0x7FF0000000000000


def _eight_ulp(x: np.ndarray) -> np.ndarray:
    """8 * np.spacing(np.maximum(np.abs(x), 0.5)), the same bits for finite
    x, built from the exponent bits: 8 ulp of |x|, and no finer than at 1/2.
    A NaN x gets a finite width, and any bracket around it fails."""
    e = np.maximum(np.asarray(x, float).view(np.int64) & _EXPONENT, 1022 << 52)
    return (e - (49 << 52)).view(float)


def invert_monotone_vec(f: SmoothPiece1D, ys: np.ndarray) -> np.ndarray:
    """Solve f(x) = y for strictly increasing f, elementwise: the left edge of
    {f >= y} to float resolution. NaN inverts to NaN. A target equal to one
    of ``f.kink_images`` maps to its kink, with no root search.
    A root x stands if f(x - w) < y <= f(x + w), w = ``_eight_ulp(x)``; the
    closed-form root of ``f.expr.inverse`` is kept where it stands and lies
    inside the domain. The other targets take the Newton phases, which build
    ``f.node_table`` and give a node exactly. Phase 1 guesses x by linear
    interpolation in the table and takes at most 8 Newton steps on the whole
    batch, each reading f and f'_+ from one ``f.jet`` call; a point freezes
    at its first step of at most w. Every other target (no freeze, a failed
    check, at or beyond an end of the table) goes to phase 2,
    ``_invert_safeguarded``, which maps a target beyond the table to its end."""
    y = np.atleast_1d(_arr(ys)).ravel()
    out, idx = np.full_like(y, np.nan), np.flatnonzero(~np.isnan(y))
    pc, pv = f.kink_images
    if pv.size and idx.size:
        k = np.minimum(pv.searchsorted(y[idx]), pv.size - 1)
        hit = pv[k] == y[idx]
        out[idx[hit]], idx = pc[k[hit]], idx[~hit]
    with np.errstate(all="ignore"):  # a NaN or overflowing root, or a zero slope, fails the check
        root = None if f.expr is None or not idx.size else f.expr.inverse(y[idx])
        if root is not None:
            w = _eight_ulp(root)
            fv = _arr(f.value(np.concatenate((root - w, root + w))))
            good = (root > f.domain[0]) & (root < f.domain[1]) & (fv[: idx.size] < y[idx]) & (fv[idx.size :] >= y[idx])
            out[idx[good]], idx = root[good], idx[~good]
        if not idx.size:
            return out.reshape(np.shape(ys))
        y = y[idx]
        nx, nu, _ = f.node_table
        x = np.interp(y, nu, nx)
        inside = (y > nu[0]) & (y < nu[-1])
        frozen = ~inside  # the table's ends take no step
        for _ in range(8):
            fx, d = f.jet(x)
            g = _arr(fx) - y
            xn = np.clip(np.where(g == 0, x, x - g / _arr(d)), nx[0], nx[-1])
            small = np.abs(xn - x) <= _eight_ulp(x)
            x = np.where(frozen, x, xn)
            frozen |= small
            if frozen.all():
                break
        w = _eight_ulp(x)
        fv = _arr(f.value(np.concatenate((x - w, x + w))))
    bad = np.flatnonzero(~(inside & frozen & (fv[: y.size] < y) & (fv[y.size :] >= y)))
    if bad.size:
        x[bad] = _invert_safeguarded(f, y[bad])
    out[idx] = x
    return out.reshape(np.shape(ys))


def _invert_safeguarded(f: SmoothPiece1D, y: np.ndarray) -> np.ndarray:
    """Phase 2 of ``invert_monotone_vec``: safeguarded Newton from a cubic
    Hermite guess in the cell of ``f.node_table`` with f(a) < y <= f(b),
    stepping only the live points. If f(x -+ 8 ulp) does not bracket y at the
    Newton point (a float-noise band near a zero of f'), it bisects and
    polishes the midpoint by three guarded Newton steps."""
    lo, hi = f.domain
    nx, nu, nm = f.node_table
    k = np.searchsorted(nu, y, "left")
    ex = np.concatenate(([lo if math.isfinite(lo) else nx[0]], nx, [hi if math.isfinite(hi) else nx[-1]]))
    eu = np.concatenate(([-np.inf], nu, [np.inf]))
    em = np.concatenate(([np.nan], nm, [np.nan]))
    a, b = ex[k], ex[k + 1]
    with np.errstate(invalid="ignore"):  # cubic Hermite in y, slopes from the table
        h, dx, t = eu[k + 1] - eu[k], b - a, (y - eu[k]) / (eu[k + 1] - eu[k])
        x = a + t * dx + t * (1 - t) * ((1 - t) * (h * em[k] - dx) - t * (h * em[k + 1] - dx))
    x = np.clip(np.where(np.isfinite(x), x, 0.5 * (a + b)), a, b)
    hit = np.flatnonzero(y == eu[k + 1])
    if hit.size:
        a[hit] = np.where(_arr(f.value(np.nextafter(b[hit], -np.inf))) < y[hit], b[hit], a[hit])
    newton = np.ones(y.shape, bool)
    act = a < b
    for _ in range(100):
        live = np.flatnonzero(act)
        if not live.size:
            break
        xl, yl, nl = x[live], y[live], newton[live]
        with np.errstate(divide="ignore", invalid="ignore"):
            fx, d = f.jet(xl)
            g = _arr(fx) - yl
            al = np.where(g < 0, xl, a[live])
            bl = np.where(~(g < 0), xl, b[live])
            xn = np.where(g == 0, xl, xl - g / np.where(nl, _arr(d), np.nan))
        a[live], b[live] = al, bl
        ok = (xn > al) & (xn < bl)
        w = _eight_ulp(xl)
        pinned = nl & (np.abs(xn - xl) <= w)
        xl = np.where(pinned | ok, xn, 0.5 * (al + bl))
        x[live] = xl
        done = bl - al <= 4 * np.finfo(float).eps * np.maximum(1.0, np.abs(bl))
        if pinned.any():
            fv = _arr(f.value(np.concatenate((xl - w, xl + w))))
            good = pinned & (fv[: xl.size] < yl) & (fv[xl.size :] >= yl)
            a[live], b[live] = np.where(good, xl - w, al), np.where(good, xl + w, bl)
            newton[live] = nl & ~(pinned & ~good)
            done = np.where(pinned, good, done)
        act[live] = ~done
    # a Newton point stands; a bisected point is its bracket's midpoint, polished
    x = np.where(newton & (a < b), x, 0.5 * (a + b))
    bis = np.flatnonzero(~newton)
    for _ in range(3 if bis.size else 0):
        fx, d = (_arr(v) for v in f.jet(x[bis]))
        ok = np.isfinite(d) & (d >= 1e-6)
        step = np.where(ok, (fx - y[bis]) / np.where(ok, d, 1.0), 0.0)
        x[bis] = np.clip(x[bis] - step, a[bis], b[bis])
    return x


# ---------------------------------------------------------------------------
# Decomposed measures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScComponent:
    """Singular-continuous part: multiplier(x) dBase(x) on a declared base.

    Two sc parts are comparable only if their ``base_id`` matches; this is
    an enforced declaration, never inferred from the cdf handles.
    """

    base_id: str
    base_cdf: Callable[[np.ndarray], np.ndarray]
    multiplier: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float] = (0.0, 1.0)


@dataclass(frozen=True)
class DecomposedMeasure:
    """Measure = ac_density dx + sum of atoms + optional sc component.

    ``ac_density`` is any vectorized callable; an ``Expr`` (as every
    document's density is) also gives ``NaturalScaleView.bounded`` bounds.

    ``atoms`` are (point, mass) pairs, sorted and pairwise distinct; mass may
    be math.inf only at the endpoints of ``support`` (absorption), and may be
    negative for signed second-derivative measures.
    """

    support: tuple[float, float]
    ac_density: Optional[Callable[[np.ndarray], np.ndarray]] = None
    atoms: tuple[tuple[float, float], ...] = ()
    sc: Optional[ScComponent] = None
    ac_breakpoints: tuple[float, ...] = ()

    def __post_init__(self):
        pts = [a[0] for a in self.atoms]
        if any(pts[i] >= pts[i + 1] for i in range(len(pts) - 1)):
            raise MeasureKitError("atoms must be sorted by location and pairwise distinct")
        lo, hi = self.support
        for x, m in self.atoms:
            if not (lo <= x <= hi):
                raise MeasureKitError(f"atom at {x} outside support {self.support}")
            if math.isinf(m) and x not in (lo, hi):
                raise MeasureKitError("infinite atom mass is only allowed at support endpoints")

    def atom_mass_at(self, x: float, loc_tol: float = 1e-12) -> float:
        for p, m in self.atoms:
            if abs(p - x) <= loc_tol * (1.0 + abs(x)):
                return m
        return 0.0

    def interior_atoms(self, lo: float, hi: float) -> tuple[tuple[float, float], ...]:
        """Atoms strictly inside (lo, hi)."""
        eps = 1e-12
        lo_cut = lo + eps * (1 + abs(lo)) if math.isfinite(lo) else lo
        hi_cut = hi - eps * (1 + abs(hi)) if math.isfinite(hi) else hi
        return tuple((p, m) for p, m in self.atoms if lo_cut < p < hi_cut)


def sc_from_json(obj: dict, support: tuple[float, float]) -> ScComponent:
    """Parse a singular-continuous part; ``support`` is used when the object
    declares none."""
    json_object(obj, "sc", ("base_id", "base_cdf", "multiplier", "support"), ("base_id", "base_cdf", "multiplier"))
    return ScComponent(
        str(obj["base_id"]),
        expr_from_json(obj["base_cdf"]).value,
        expr_from_json(obj["multiplier"]).value,
        json_pair(obj.get("support", support), "sc support"),
    )


def measure_from_json(obj: dict, support: tuple[float, float]) -> DecomposedMeasure:
    """Parse a measure: ``ac`` density, ``atoms`` as [point, mass] pairs
    (mass ``"inf"`` for absorption) and an ``sc`` part on ``support``."""
    json_object(obj, "measure", ("ac", "atoms", "sc"))
    ac, sc = obj.get("ac"), obj.get("sc")
    atoms = [json_pair(pair, "atom") for pair in json_list(obj.get("atoms", []), "atoms")]
    return DecomposedMeasure(
        support=support,
        ac_density=None if ac is None else expr_from_json(ac),
        atoms=tuple(sorted(atoms, key=lambda t: t[0])),
        sc=None if sc is None else sc_from_json(sc, support),
    )


# ---------------------------------------------------------------------------
# Pushforward and second-derivative decomposition
# ---------------------------------------------------------------------------


def pushforward(
    m: DecomposedMeasure,
    s: SmoothPiece1D,
    q: SmoothPiece1D,
    qprime_zero_intervals: Sequence[tuple[float, float]] = (),
) -> DecomposedMeasure:
    """Image measure of ``m`` under the strictly increasing map ``s``, whose
    inverse is ``q``.

    Atoms move to (s(point), mass). The ac density transforms pointwise as
    m_ac(q(u)) * q'_+(u), q and q'_+ read from one ``q.jet`` call (one
    inversion for a numeric inverse, or a declared q's own jet). An sc part
    keeps its base_id and gets its cdf composed with q. If the inverse has a
    zero-derivative set of positive measure (``qprime_zero_intervals``
    nonempty) the ac part cannot be pushed as a density, and the call is an
    error.
    """
    if qprime_zero_intervals:
        raise MeasureKitError(
            "pushforward through a map whose inverse has q' = 0 on a set of "
            "positive measure requires an explicit annotation"
        )
    lo, hi = m.support
    u_lo = float(s.value(np.asarray(lo))) if math.isfinite(lo) else -math.inf
    u_hi = float(s.value(np.asarray(hi))) if math.isfinite(hi) else math.inf

    new_atoms = tuple(
        (float(s.value(np.asarray(p))) if math.isfinite(p) else p, mass) for p, mass in m.atoms
    )

    def inverse(u: np.ndarray) -> np.ndarray:
        return _arr(q.value(np.atleast_1d(_arr(u))))

    density = None
    if m.ac_density is not None:
        src = m.ac_density

        def pushed(u: np.ndarray) -> np.ndarray:
            u = np.atleast_1d(_arr(u))
            x, qp = (_arr(v) for v in q.jet(u))
            with np.errstate(invalid="ignore"):
                out = _arr(src(x)) * qp
            for i in np.flatnonzero(np.isnan(out) & ~np.isnan(u)):  # 0 * inf: the limit from inside
                out[i] = _pushed_limit(src, q, float(u[i]), -1 if u[i] == u_hi else 1)
            return out

        density = pushed

    sc = None
    if m.sc is not None:
        base = m.sc

        def cdf_u(u: np.ndarray) -> np.ndarray:
            return _arr(base.base_cdf(inverse(u)))

        def mult_u(u: np.ndarray) -> np.ndarray:
            return _arr(base.multiplier(inverse(u)))

        sc_lo = float(s.value(np.asarray(base.support[0])))
        sc_hi = float(s.value(np.asarray(base.support[1])))
        sc = ScComponent(base.base_id, cdf_u, mult_u, (sc_lo, sc_hi))

    # the pushed density may jump at images of scale kinks and of source
    # density breakpoints; record them so mass integration can split there
    breaks = {float(s.value(np.asarray(c))) for c, _ in s.kinks}
    breaks.update(float(s.value(np.asarray(p))) for p in m.ac_breakpoints if math.isfinite(p))
    breaks.update(float(s.value(np.asarray(p))) for p in s.infinite_slope if math.isfinite(p))
    return DecomposedMeasure(
        support=(u_lo, u_hi),
        ac_density=density,
        atoms=new_atoms,
        sc=sc,
        ac_breakpoints=tuple(sorted(b for b in breaks if u_lo < b < u_hi)),
    )


def leading_increment(f: Expr, c: float, side: int) -> Optional[tuple[float, float]]:
    """The leading power (e, k), e > 0, of f(x) - f(c) as x -> c from
    ``side``: f's own where its leading exponent is positive (then f(c) =
    0), else (1, f'(c) side) where the one-sided slope is finite and
    nonzero; None otherwise."""
    lead = f.local(c, side)
    if lead is not None and lead[0] > 0.0:
        return lead
    with np.errstate(all="ignore"):
        return _lead(1.0, float(f.jet(np.asarray(float(c)), side, 1)[1]) * side)


def _pushed_limit(m, q: SmoothPiece1D, u: float, side: int) -> float:
    """The limit of m(q(v)) q'(v) as v -> u from ``side`` where the product
    reads 0 * inf, from the leading powers of q(v) - q(u) and of m at q(u);
    NaN where no rule reads them. With q(v) - x ~ k_q |v - u|^e_q and
    m(y) ~ k_m |y - x|^e_m, the product is k_m |k_q|^e_m k_q e_q side
    |v - u|^(e_q e_m + e_q - 1)."""
    lq = None if q.expr is None else leading_increment(q.expr, u, side)
    lm = m.local(float(q.value(np.asarray(u))), side) if isinstance(m, Expr) and lq else None
    if lm is None:
        return math.nan
    (eq, kq), (em, km) = lq, lm
    e, k = eq * em + eq - 1.0, km * _pow(abs(kq), em) * kq * eq * side
    return 0.0 if e > 0.0 else (k if e == 0.0 else math.copysign(math.inf, k))


def second_derivative_decomposition(
    q: SmoothPiece1D,
    kinks: Sequence[tuple[float, float]],
    sc: Optional[ScComponent] = None,
) -> DecomposedMeasure:
    """Second-derivative measure of a convex-difference function.

    ``kinks`` is the declared list of (point, jump of q'_+). Each declared
    jump is validated against the one-sided derivative handles; the AC
    density is taken from ``q.d2_ac`` and the sc part from the declaration.
    Local finite variation of q' is tested by the semimartingale check.
    """
    atoms = []
    kinks = sorted(kinks, key=lambda t: t[0])
    cs = np.array([c for c, _ in kinks])  # every kink read by one call per side
    for (c, jump), actual in zip(kinks, (_arr(q.d_plus(cs)) - _arr(q.d_minus(cs))).tolist() if kinks else ()):
        if not close_rel(actual, jump, 1e-9, floor=1e-12):
            raise KinkMismatchError(
                f"declared kink jump {jump} at {c} disagrees with derivatives ({actual})"
            )
        if abs(jump) > 0:
            atoms.append((c, jump))
    return DecomposedMeasure(
        support=q.domain,
        ac_density=q.d2_ac,
        atoms=tuple(atoms),
        sc=sc,
        ac_breakpoints=q.special_points,
    )


def sampled_total_variation(
    dfun: Callable[[np.ndarray], np.ndarray],
    interval: tuple[float, float],
) -> tuple[list[float], bool]:
    """Total variation of a derivative handle on grids of 2^9 to 2^12 cells.

    Returns the TV estimates and a stability flag: stable means the last
    refinement grew by less than 10 % and stayed finite. The handle is
    evaluated once, on the finest grid, offset slightly so isolated
    non-differentiability points are not hit exactly; the coarser grids are
    its strides 8, 4 and 2, each from half a stride in, so a blow-up at a
    dyadic point (the midpoint, say) nears the grid at every refinement
    instead of sharing one nearest point with all of them.
    """
    a, b = interval
    n = 2**12
    vals = _arr(dfun(np.linspace(a, b, n + 1) + (b - a) * 0.5 / (n * 7919.0)))
    tvs: list[float] = []
    for stride in (8, 4, 2, 1):
        v = vals[stride // 2 :: stride]
        if not np.all(np.isfinite(v)):
            return tvs + [math.inf], False
        tvs.append(float(np.sum(np.abs(np.diff(v)))))
    if tvs[-1] == 0.0:
        return tvs, True
    return tvs, tvs[-1] <= 1.10 * tvs[-2] + 1e-12


# ---------------------------------------------------------------------------
# Integrability deciders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalBehavior:
    """Declares f(x) ~ coeff * |x - point| ** exponent on the given side."""

    point: float
    side: str  # 'left' | 'right' | 'both'
    exponent: float
    coeff: float

    def __post_init__(self):
        if self.side not in ("left", "right", "both"):
            raise MeasureKitError("side must be 'left', 'right' or 'both'")
        if self.coeff == 0:
            raise MeasureKitError("LocalBehavior requires a nonzero coefficient")


def same_point(p: float, x: float) -> bool:
    """Does an annotation at p stand for the finite point x? The one
    tolerance, 1e-9 relative to x, that matches annotations to boundary
    images."""
    return math.isfinite(x) and abs(p - x) <= 1e-9 * (1 + abs(x))


@dataclass(frozen=True)
class IntegrabilityVerdict:
    status: str  # 'finite' | 'divergent' | 'inconclusive'
    method: str  # 'exponent-rule' | 'numeric-refinement'
    diagnostics: tuple[float, ...] = ()


_LEVEL_CAP = 40
_TAIL_FRACTION = 1e-8
_DIVERGENCE_RATIO = 0.9


def _dyadic_probe(
    g: Callable[[np.ndarray], np.ndarray],
    point: float,
    direction: int,
    width: float,
    context_total: float,
) -> tuple[str, list[float]]:
    """Probe integral of g over dyadically shrinking annuli toward a point.

    Divergent when level increments stop decaying geometrically (ratio >=
    0.9 sustained over the last three levels); finite when the geometric
    tail bound drops below 1e-8 of the accumulated total; inconclusive when
    the float resolution floor is reached first.

    g is read once per batch of levels: levels 1-4, which always run before
    the first decision, then up to 8 at a time. A batch that raises is read
    again one level at a time, so an error surfaces only at a level reached.
    """
    floor = 1e-13 * (1.0 + abs(point))
    panels = []  # one annulus per level, down to the float resolution floor
    for k in range(1, _LEVEL_CAP + 1):
        outer = width * 2.0 ** (1 - k)
        inner = width * 2.0 ** (-k)
        if inner < floor:
            break
        panels.append((point + inner, point + outer) if direction > 0 else (point - outer, point - inner))
    vals: list[float] = []
    total = abs(context_total)
    while len(vals) < len(panels):
        batch = panels[len(vals) : 4 if not vals else len(vals) + 8]
        try:
            sums = _gl_panels(g, *zip(*batch))
        except Exception:
            sums = [None] * len(batch)
        for (a, b), val in zip(batch, sums):
            val = gl_fixed(g, a, b, 21) if val is None else val
            if not math.isfinite(val):
                return "divergent", vals + [val]
            vals.append(val)
            total += abs(val)
            if len(vals) >= 4:
                if max(vals[-3:]) == 0.0:
                    return "finite", vals
                r1 = vals[-1] / vals[-2] if vals[-2] > 0 else (0.0 if vals[-1] == 0 else math.inf)
                r2 = vals[-2] / vals[-3] if vals[-3] > 0 else (0.0 if vals[-2] == 0 else math.inf)
                if min(r1, r2) >= _DIVERGENCE_RATIO:
                    return "divergent", vals
                r = max(r1, r2)
                if r < 1.0:
                    tail = vals[-1] * r / (1.0 - r)
                    if tail < _TAIL_FRACTION * max(total, 1e-300):
                        return "finite", vals
    return "inconclusive", vals


def window_nodes(a, b) -> np.ndarray:
    """The points where ``decide_L2_local`` reads f on the window (a, b)
    before any point splits it: the 1,023 inner points of a 1,025-point
    uniform grid, on which suspicious points are detected. Given arrays of
    edges, one row per window, each row the same floats as for its window
    alone."""
    return np.linspace(a, b, 1025, axis=-1)[..., 1:-1]


def _row_medians(rows: np.ndarray) -> np.ndarray:
    """``np.median(rows, axis=1)``, the same bits. At an odd row length (1,023
    for ``window_nodes``) that is the middle of one ``np.partition``."""
    n = rows.shape[1]
    if n % 2 == 0:
        return np.median(rows, axis=1)
    return np.partition(rows, n // 2, axis=1)[:, n // 2]


def _detect_suspicious(
    g_rows: np.ndarray, windows: Sequence[tuple[float, float]], known: Sequence[Sequence[float]]
) -> list[list[float]]:
    """Suspicious points of many windows at once. Row i of ``g_rows`` holds
    g at ``window_nodes(*windows[i])``; its points are the nodes where g is
    not finite or exceeds 1e6 times the median of the row's finite values,
    at most one per 1/64 of the window and none that near a point of
    ``known[i]``. A row with no finite value has none, and neither has a
    finite row whose largest value is at most 1e6 times its smallest: the
    median is never below the smallest value, so no value exceeds 1e6 times
    it. The other rows take their medians, those finite throughout from one
    call, each other one of its finite values alone, and are flagged."""
    vals = np.abs(g_rows)
    ok = np.isfinite(vals)
    clean = ok.all(axis=1)
    quiet = clean & (vals.max(axis=1) <= 1e6 * vals.min(axis=1))
    rows = np.flatnonzero(~quiet & ok.any(axis=1))
    found: list[list[float]] = [[] for _ in windows]
    if not rows.size:
        return found
    vals, ok, clean = vals[rows], ok[rows], clean[rows]
    scale = np.zeros(rows.size)
    scale[clean] = _row_medians(vals[clean])
    for j in np.flatnonzero(~clean):
        scale[j] = np.median(vals[j][ok[j]])
    flag = ~ok | (vals > 1e6 * (scale + 1e-300)[:, None])
    for j in np.flatnonzero(flag.any(axis=1)):
        i = rows[j]
        (a, b), pts = windows[i], found[i]
        for x in window_nodes(a, b)[flag[j]]:
            if all(abs(x - p) > (b - a) / 64 for p in list(known[i]) + pts):
                pts.append(float(x))
    return found


def _decide_g_integral(
    g: Callable[[np.ndarray], np.ndarray],
    window: tuple[float, float],
    specials: Sequence[tuple[float, Optional[float]]],
) -> IntegrabilityVerdict:
    """Decide finiteness of the integral of g >= 0 over a window.

    ``specials`` holds (point, g_exponent | None): annotated points carry the
    exact local exponent of g (rule: finite iff exponent > -1, strictly);
    None marks an un-annotated suspicious point probed numerically.
    """
    a, b = window
    if not a < b:
        raise MeasureKitError("window must be nondegenerate")
    method = "exponent-rule"
    diagnostics: list[float] = []
    statuses: list[str] = []
    pts = sorted(set(p for p, _ in specials if a <= p <= b))
    exps = {p: e for p, e in specials if a <= p <= b}

    # exact rule on annotated points
    for p in pts:
        e = exps.get(p)
        if e is not None:
            statuses.append("finite" if e > -1.0 else "divergent")

    if "divergent" in statuses:
        return IntegrabilityVerdict("divergent", "exponent-rule", tuple(diagnostics))

    # numeric part: probe un-annotated points; only the probes read the smooth remainder
    probed = [p for p in pts if exps.get(p) is None]
    gaps = [a] + pts + [b]
    context = 0.0
    try:
        for i in range(len(gaps) - 1):
            lo_, hi_ = gaps[i], gaps[i + 1]
            pad_lo = 0.05 * (hi_ - lo_) if gaps[i] in pts else 0.0
            pad_hi = 0.05 * (hi_ - lo_) if gaps[i + 1] in pts else 0.0
            if probed and hi_ - pad_hi > lo_ + pad_lo:
                context += gl_fixed(g, lo_ + pad_lo, hi_ - pad_hi, 42)
    except (OverflowError, FloatingPointError):
        context = 1.0
    if not math.isfinite(context):
        context = 1.0

    for p in probed:
        method = "numeric-refinement"
        for direction in (-1, 1):
            if direction < 0 and p <= a:
                continue
            if direction > 0 and p >= b:
                continue
            width = min(abs(p - a) if direction < 0 else abs(b - p), (b - a) * 0.25)
            if width <= 0:
                continue
            status, vals = _dyadic_probe(g, p, direction, width, context)
            diagnostics = vals[-6:]
            statuses.append(status)
            if status == "divergent":
                return IntegrabilityVerdict("divergent", method, tuple(diagnostics))

    if "inconclusive" in statuses:
        return IntegrabilityVerdict("inconclusive", method, tuple(diagnostics))
    return IntegrabilityVerdict("finite", method, tuple(diagnostics))


def decide_L2_local(
    f: Callable[[np.ndarray], np.ndarray],
    window: tuple[float, float],
    behaviors: Sequence[LocalBehavior] = (),
    suspicious: Sequence[float] = (),
    auto_detect: bool = True,
) -> IntegrabilityVerdict:
    """Is the integral of f^2 over the window finite?

    Annotated singularities f ~ C|x-x0|^p are decided exactly: the
    contribution is finite iff p > -1/2 (strict). Un-annotated suspicious
    points fall back to dyadic numeric refinement, which may return
    'inconclusive' -- a value, not an error.

    With ``auto_detect``, f is read at ``window_nodes(*window)`` and
    ``_detect_suspicious`` adds the points it flags there, unless an
    annotated exponent already makes the integral diverge. A caller that
    has detected already, for many windows at once, passes its points as
    ``suspicious`` with ``auto_detect=False``.
    """
    a, b = window

    def g(x):
        v = _arr(f(x))
        return v * v

    specials: list[tuple[float, Optional[float]]] = []
    for beh in behaviors:
        if a <= beh.point <= b:
            specials.append((beh.point, 2.0 * beh.exponent))
    known = [p for p, _ in specials]
    for p in suspicious:
        if a <= p <= b and all(abs(p - q_) > 1e-12 for q_ in known):
            specials.append((float(p), None))
            known.append(float(p))
    if auto_detect and not any(e is not None and e <= -1.0 for _, e in specials):  # no annotated pole decides alone
        v = _arr(f(window_nodes(a, b)))
        for p in _detect_suspicious((v * v)[None], [window], [known])[0]:
            specials.append((p, None))
    return _decide_g_integral(g, window, specials)


def _weighted(specials: Sequence[tuple[float, Optional[float]]], w: float) -> list:
    """``specials`` of an integrand weighted by |x - w|: an exponent annotated
    at w rises by one and moves onto w, and w is probed when none is."""
    out = [(w, e + 1.0) if same_point(p, w) else (p, e) for p, e in specials]
    return out if any(same_point(p, w) for p, _ in out) else out + [(w, None)]


def decide_weighted_L2_boundary(
    f: Callable[[np.ndarray], np.ndarray],
    b_image: float,
    window: tuple[float, float],
    behaviors: Sequence[LocalBehavior] = (),
    distance: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> IntegrabilityVerdict:
    """Is the integral of |x - b_image| f(x)^2 over a boundary collar finite?

    For f ~ C|x-b|^p at the boundary image the contribution is finite iff
    p > -1 (strict). Over a chart t of the natural scale u, ``distance(t)``
    gives the weight |u(t) - s(b)| in place of |t - b_image|.
    """
    a, b = window
    if not (same_point(a, b_image) or same_point(b, b_image)):
        raise MeasureKitError("window must be adjacent to the boundary image")

    def g(x):
        x = _arr(x)
        v = _arr(f(x))
        return (np.abs(x - b_image) if distance is None else distance(x)) * v * v

    near = [(c.point, 2.0 * c.exponent) for c in behaviors if same_point(c.point, b_image) or a <= c.point <= b]
    return _decide_g_integral(g, window, _weighted(near, b_image))


def decide_abs_integral(
    f: Callable[[np.ndarray], np.ndarray],
    window: tuple[float, float],
    point_exponents: Sequence[tuple[float, float]] = (),
    weight_point: Optional[float] = None,
    suspicious: Sequence[float] = (),
    distance: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> IntegrabilityVerdict:
    """Finiteness of the integral of |f| (optionally weighted by |x - w|).

    ``point_exponents`` annotates |f| ~ C|x-x0|^p; the rule threshold is
    p > -1 (plus one when the annotation stands for the weight point, and
    then it moves onto it). Over a chart t of the natural scale u,
    ``distance(t)`` gives the weight |u(t) - s(b)| in place of |t - w|.
    Used for the |q''| prerequisites of the semimartingale check.
    """

    def g(x):
        x = _arr(x)
        v = np.abs(_arr(f(x)))
        if weight_point is not None:
            v = v * (np.abs(x - weight_point) if distance is None else distance(x))
        return v

    specials = list(point_exponents) if weight_point is None else _weighted(point_exponents, float(weight_point))
    return _decide_g_integral(g, window, specials + [(float(p), None) for p in suspicious])
