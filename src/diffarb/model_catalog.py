"""Named model builders with exact annotations and expected verdicts.

Each entry constructs a fully annotated :class:`DiffusionSpec` (kinks, the
zero set of the inverse-scale derivative, local behaviours of phi near its
singular points) and fixes the expected NIP/NSA/NUPBR/RP verdicts as a
function of the parameters, with the equality predicates evaluated in exact
rational arithmetic. The catalog doubles as the golden test set.

An entry declares the inverse scale q but not the natural-scale speed
mU = m o s^-1, which ``derive_natural_scale`` pushes forward through q;
only fat_cantor, whose q' vanishes on a set of positive measure, declares mU.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .diffusion_model import DiffusionSpec, StateInterval
from .measure_kit import (
    Affine,
    Const,
    DecomposedMeasure,
    LocalBehavior,
    Piecewise,
    PowerAbs,
    PowerSigned,
    Product,
    SmoothPiece1D,
    json_number,
    json_object,
)

__all__ = ["CatalogEntry", "CATALOG", "build_model", "expected_verdict", "ExpectedVerdict", "catalog_names"]


@dataclass(frozen=True)
class ExpectedVerdict:
    nip: str
    nsa: str
    nupbr: str
    rp: str

    @classmethod
    def of(cls, nip: bool, nsa: bool, nupbr: bool, rp: bool) -> "ExpectedVerdict":
        f = lambda b: "holds" if b else "fails"
        return cls(f(nip), f(nsa), f(nupbr), f(rp))


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    params: dict  # name -> (default, human-readable range)
    builder: Callable[..., DiffusionSpec]
    expected: Callable[..., ExpectedVerdict]
    rationale: str

    def check_params(self, kw: Optional[dict]) -> dict:
        """The defaults overridden by ``kw``, an object whose values are
        numbers, rationals such as ``"4/3"``, ``"inf"`` or ``"-inf"`` where
        the default is infinite, or None where the default is None; each
        value must lie in its parameter's range."""
        kw = json_object({} if kw is None else kw, f"{self.name} parameter", self.params, error=ValueError)
        full = {k: v[0] for k, v in self.params.items()}
        for k, v in kw.items():
            if v is None and full[k] is None:
                continue
            if isinstance(v, str) and v not in ("inf", "-inf"):
                v = _rational(v)
            v = json_number(v, f"parameter {k!r}", error=ValueError)
            if math.isinf(v) and not (full[k] is not None and math.isinf(full[k])):
                raise ValueError(f"parameter {k!r} must be finite, got {v}")
            rng = self.params[k][1].split(";")[0]
            if not _RANGE_RULES[rng](v):
                raise ValueError(f"parameter {k!r} = {v} is outside its range ({rng})")
            full[k] = v
        return full


# the rule of every range text in CatalogEntry.params (up to a ';' comment);
# a text missing here is a KeyError, never an unchecked parameter
_RANGE_RULES = {
    "any real": lambda v: True,
    "default: the sticky point": lambda v: True,
    "natural-scale start": lambda v: True,
    "zero": lambda v: v == 0.0,
    "nonzero": lambda v: v != 0.0,
    "> 0": lambda v: v > 0.0,
    ">= 0": lambda v: v >= 0.0,
    "> 1": lambda v: v > 1.0,
    "(0, 1)": lambda v: 0.0 < v < 1.0,
    "(0, 2)": lambda v: 0.0 < v < 2.0,
    "(-1, 0)": lambda v: -1.0 < v < 0.0,
    "[0, inf]": lambda v: v >= 0.0,
    # beyond 50 generations the removed radius 2^-(n+3) is below 1e-16
    "integer in [1, 50]": lambda v: 1 <= v <= 50 and v == int(v),
}


def _rational(text: str) -> float:
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"{text!r} is not a number") from None


def _frac(x) -> Fraction:
    """Exact rational value of a parameter: the float is snapped to the
    nearest rational with a small denominator, recovering the intended value
    of inputs such as 4/3 that are not exactly representable.
    """
    return Fraction(float(x)).limit_denominator(10**9)


_R_INF = math.inf


# ---------------------------------------------------------------------------
# Brownian motion
# ---------------------------------------------------------------------------


def _build_brownian_motion(r: float, x0: float) -> DiffusionSpec:
    J = StateInterval(-_R_INF, _R_INF)
    return DiffusionSpec(
        J=J,
        scale=SmoothPiece1D.from_expr(Affine(1.0, 0.0), (J.alpha, J.beta)),
        speed=DecomposedMeasure((J.alpha, J.beta), Const(1.0)),
        x0=float(x0),
        r=float(r),
        model_id="brownian_motion",
        q_expr=Affine(1.0, 0.0),
    )


def _expected_brownian_motion(r, x0) -> ExpectedVerdict:
    return ExpectedVerdict.of(True, True, True, True)


# ---------------------------------------------------------------------------
# Brownian motion reflected at 1, optionally sticky
# ---------------------------------------------------------------------------


def _build_sticky_reflected_bm(r: float, rho: float, x0: float) -> DiffusionSpec:
    J = StateInterval(1.0, _R_INF, alpha_closed=True)
    atoms = ((1.0, float(rho)),) if rho > 0 else ()
    speed = DecomposedMeasure(support=(1.0, _R_INF), ac_density=Const(1.0), atoms=atoms)
    return DiffusionSpec(
        J=J,
        scale=SmoothPiece1D.from_expr(Affine(1.0, 0.0), (J.alpha, J.beta)),
        speed=speed,
        x0=float(x0),
        r=float(r),
        model_id="sticky_reflected_bm",
        q_expr=Affine(1.0, 0.0),
        declared_boundaries=(("left", "reflecting"),),
    )


def _expected_sticky_reflected_bm(r, rho, x0) -> ExpectedVerdict:
    ok = 2 * _frac(r) * _frac(rho) == 1
    return ExpectedVerdict.of(ok, ok, ok, True)


# ---------------------------------------------------------------------------
# Squared Bessel of dimension delta in (0, 2), reflecting at the origin
# ---------------------------------------------------------------------------


def _bessel_family(delta: float, r: float, x0: float, m0: float) -> DiffusionSpec:
    """Common construction for the (generalized) squared Bessel entries.

    Scale x^(1 - delta/2); speed density x^(delta/2 - 1) / (2 (2 - delta))
    on (0, inf) so that the natural-scale speed density is
    u^(p-2) / (4 nu^2) with p = 2/(2 - delta), nu = delta/2 - 1. The origin
    carries a speed atom m0 in [0, inf]: 0 means instantaneous reflection,
    inf means absorption.
    """
    nu = delta / 2.0 - 1.0
    p = 1.0 / (1.0 - delta / 2.0)
    J = StateInterval(0.0, _R_INF, alpha_closed=True)
    atoms = ((0.0, float(m0)),) if m0 > 0 else ()
    speed = DecomposedMeasure((0.0, _R_INF), Product([Const(1.0 / (2.0 * (2.0 - delta))), PowerAbs(0.0, nu)]), atoms)
    kind = "absorbing" if math.isinf(m0) else "reflecting"
    # phi(u) = (p-1)/(2u) - (r / (4 |nu|)) u^(p-1): a simple pole at the
    # boundary image regardless of r
    return DiffusionSpec(
        J=J,
        scale=SmoothPiece1D.from_expr(PowerSigned(0.0, 1.0 - delta / 2.0), (0.0, _R_INF)),
        speed=speed,
        x0=float(x0),
        r=float(r),
        model_id="squared_bessel",
        q_expr=PowerSigned(0.0, p),
        declared_boundaries=(("left", kind),),
        phi_behaviors=(LocalBehavior(0.0, "right", -1.0, (p - 1.0) / 2.0),),
        qpp_behaviors=(LocalBehavior(0.0, "right", p - 2.0, p * (p - 1.0)),),
    )


def _build_squared_bessel(delta: float, r: float, x0: float) -> DiffusionSpec:
    return _bessel_family(delta, r, x0, m0=0.0)


def _expected_squared_bessel(delta, r, x0) -> ExpectedVerdict:
    # reflecting origin: the boundary identity r*0*m = q'(0)/2 = 0 always
    # holds, so NIP holds; phi ~ c/u fails the reflecting-collar square
    # integrability, so NSA (hence NUPBR) fails
    return ExpectedVerdict.of(True, False, False, True)


def _build_gen_squared_bessel(nu: float, r: float, m0: float, x0: float) -> DiffusionSpec:
    delta = 2.0 * (1.0 + nu)
    spec = _bessel_family(delta, r, x0, m0=m0)
    return dataclasses.replace(spec, model_id="gen_squared_bessel")


def _expected_gen_squared_bessel(nu, r, m0, x0) -> ExpectedVerdict:
    absorbing = math.isinf(m0)
    # absorbing at a zero boundary value satisfies the NIP boundary clause
    # for every rate; the weighted collar integral of phi^2 always diverges
    return ExpectedVerdict.of(True, absorbing, False, True)


# ---------------------------------------------------------------------------
# Cube of a Brownian motion
# ---------------------------------------------------------------------------


def _build_cubed_bm(r: float, x0: float) -> DiffusionSpec:
    J = StateInterval(-_R_INF, _R_INF)
    return DiffusionSpec(
        J=J,
        scale=SmoothPiece1D.from_expr(PowerSigned(0.0, 1.0 / 3.0), (J.alpha, J.beta)),
        speed=DecomposedMeasure((J.alpha, J.beta), Product([Const(1.0 / 3.0), PowerAbs(0.0, -2.0 / 3.0)])),
        x0=float(x0),
        r=float(r),
        model_id="cubed_bm",
        q_expr=PowerSigned(0.0, 3.0),
        qprime_zero_set=((0.0, 0.0),),
        phi_behaviors=(LocalBehavior(0.0, "both", -1.0, 1.0),),
    )


def _expected_cubed_bm(r, x0) -> ExpectedVerdict:
    # q = u^3 is C^1 with absolutely continuous derivative and there are no
    # boundaries, so NIP holds; phi = 1/u + O(u) is not square integrable
    # near 0, so NSA fails; the zero set {0} is a Lebesgue-null point
    return ExpectedVerdict.of(True, False, False, True)


# ---------------------------------------------------------------------------
# Sticky-skew Brownian motion
# ---------------------------------------------------------------------------


def _build_sticky_skew(kappa: float, c: float, xi: float, r: float, x0: Optional[float]) -> DiffusionSpec:
    xi = float(xi)
    x0 = xi if x0 is None else float(x0)
    J = StateInterval(-_R_INF, _R_INF)
    # s(x) = (x - xi) * v_kappa(x), v = kappa below xi and 1 - kappa above
    scale_expr = Piecewise(
        [xi],
        [Affine(kappa, -kappa * xi), Affine(1.0 - kappa, -(1.0 - kappa) * xi)],
    )
    speed = DecomposedMeasure(
        support=(J.alpha, J.beta),
        ac_density=Piecewise([xi], [Const(1.0 / kappa), Const(1.0 / (1.0 - kappa))]),
        atoms=((xi, float(c)),),
    )
    return DiffusionSpec(
        J=J,
        scale=SmoothPiece1D.from_expr(scale_expr, (J.alpha, J.beta)),
        speed=speed,
        x0=x0,
        r=float(r),
        model_id="sticky_skew",
        q_expr=Piecewise([0.0], [Affine(1.0 / kappa, xi), Affine(1.0 / (1.0 - kappa), xi)]),
    )


def _expected_sticky_skew(kappa, c, xi, r, x0) -> ExpectedVerdict:
    k = _frac(kappa)
    ok = _frac(r) * _frac(xi) * _frac(c) == (2 * k - 1) / (2 * k * (1 - k))
    return ExpectedVerdict.of(ok, ok, ok, True)


# ---------------------------------------------------------------------------
# Fat-complement model: inverse scale with a flat-derivative set of
# positive Lebesgue measure
# ---------------------------------------------------------------------------


def _rationals_lexicographic(count: int) -> list[Fraction]:
    """First rationals of [0, 1] ordered by (denominator, numerator)."""
    out: list[Fraction] = []
    den = 1
    while len(out) < count:
        for num in range(0, den + 1):
            if math.gcd(num, den) == 1:
                out.append(Fraction(num, den))
                if len(out) == count:
                    return out
        den += 1
    return out


def fat_complement_components(generations: int) -> list[tuple[float, float]]:
    """Closed components of F = [0,1] minus neighbourhoods of the first
    ``generations`` rationals (radius 2^-(n+3) around the n-th)."""
    removed = []
    for n, qn in enumerate(_rationals_lexicographic(generations), start=1):
        rn = Fraction(1, 2 ** (n + 3))
        removed.append((qn - rn, qn + rn))
    removed.sort()
    merged: list[list[Fraction]] = []
    for lo, hi in removed:
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    comps = []
    prev = Fraction(0)
    for lo, hi in merged:
        if lo > prev:
            comps.append((float(max(prev, 0)), float(min(lo, 1))))
        prev = max(prev, hi)
    if prev < 1:
        comps.append((float(prev), 1.0))
    return [(a, b) for a, b in comps if b > a]


class _FlatSpotInverseScale:
    """q(x) = integral_0^x dist(z, F) dz + tilt * x for a finite union F,
    and its inverse s = q^{-1}, both in closed form.

    dist(z, F) is piecewise affine with slopes in {-1, 0, +1}; the integral
    is evaluated exactly as a piecewise quadratic, so s is one quadratic
    root per knot segment (``inverse_jet``) and no point is inverted
    numerically. The tiny tilt keeps q strictly increasing on the flats so
    the approximant remains a valid, simulatable scale inverse;
    classification relies on the declared annotations, not on the tilt.
    """

    def __init__(self, components: list[tuple[float, float]], tilt: float = 1e-9):
        self.ends = np.array(components, float).ravel()  # sorted: the components are disjoint and in order
        self.tilt = float(tilt)
        lo, hi = self.ends[0], self.ends[-1]
        # the ends, the midpoints of the gaps, and far knots on a doubling
        # ladder that keep each segment's value exact
        gaps = 0.5 * (self.ends[1:-1:2] + self.ends[2::2])
        knots = [*self.ends, *gaps, 0.0, *(lo - 2.0 ** np.arange(22)), *(hi + 2.0 ** np.arange(22))]
        self.t = np.array(sorted(set(knots)))
        # every end is a knot: each knot segment lies in F (an odd count of
        # ends at or below it) or between the same two ends throughout
        j = np.searchsorted(self.ends, self.t[:-1], "right")
        self.inside = j % 2 == 1
        self.lo_end = np.concatenate(([-np.inf], self.ends))[j]
        self.hi_end = np.concatenate((self.ends, [np.inf]))[j]
        self.d_at = self._dist(self.t)
        slopes = np.diff(self.d_at) / np.diff(self.t)
        self.slope = np.round(slopes).astype(float)  # exactly -1, 0, +1
        seg = self.d_at[:-1] * np.diff(self.t) + 0.5 * self.slope * np.diff(self.t) ** 2
        # q(0) = 0; summing outward from it, no far segment absorbs a near one
        i0 = int(np.searchsorted(self.t, 0.0))
        self.Q = np.concatenate([-np.cumsum(seg[:i0][::-1])[::-1], [0.0], np.cumsum(seg[i0:])])
        # the knot images q(t): non-decreasing, and tied only where a segment
        # is narrower than an ulp of its image (from 29 generations on)
        self.U = self.Q + self.tilt * self.t
        # a root stays in its knot segment, so that s is monotone across the
        # knots; the outer two segments extrapolate
        self.u_lo = np.concatenate(([-np.inf], self.t[1:-1]))
        self.u_hi = np.concatenate((self.t[1:-1], [np.inf]))
        for v in vars(self).values():  # shared by every build of one generation count
            if isinstance(v, np.ndarray):
                v.flags.writeable = False

    def _dist(self, z: np.ndarray, k: Optional[np.ndarray] = None) -> np.ndarray:
        # the nearest end of F is one of the two ends around z's knot segment
        # k: float subtraction is monotone, so no farther end comes out
        # nearer; fmin keeps the distance of an infinite z infinite
        z = np.asarray(z, float)
        k = self._segment(z) if k is None else k
        with np.errstate(invalid="ignore"):
            return np.where(self.inside[k], 0.0, np.fmin(z - self.lo_end[k], self.hi_end[k] - z))

    def _segment(self, x: np.ndarray, side: int = 1) -> np.ndarray:
        if x.ndim == 1 and x.size > 256 and np.all(x[1:] >= x[:-1]):  # sorted, as a grid or a sampled flat
            # each inner knot starts the run of x in the next segment: no search per point
            starts = np.searchsorted(x, self.t[1:-1], "left" if side > 0 else "right")
            return np.repeat(np.arange(len(self.t) - 1), np.diff(starts, prepend=0, append=x.size))
        k = np.searchsorted(self.t, x, side="right" if side > 0 else "left") - 1
        return np.minimum(np.maximum(k, 0), len(self.t) - 2)  # np.clip's wrapper costs more on a few points

    def jet(self, x, side=1, order=1):
        """q, q' and q'' (the slope of dist(., F) on the knot segment on
        ``side``), up to ``order``; the segment is looked up once."""
        x = np.asarray(x, float)
        k = self._segment(x)
        h = x - self.t[k]
        out = (self.Q[k] + self.d_at[k] * h + 0.5 * self.slope[k] * h * h + self.tilt * x,)
        if order:
            out += (self._dist(x, k) + self.tilt,)
        if order > 1:
            out += (self.slope[k if side > 0 else self._segment(x, side)],)
        return out

    def inverse_jet(self, x, side=1, order=1):
        """s = q^{-1} at x, then 1/q'(s) and -q''(s)/q'(s)^3 on ``side``, up
        to ``order``. On x's knot segment k, the last whose image starts at
        or below x, clipped as ``_segment`` clips so that the far tails
        extrapolate as q's jet does, q(t_k + h) - x = a h^2 + b h + c with
        a = q''/2, b = q'(t_k) > 0 and c = q(t_k) - x. The root
        -2c / (b + sqrt(b^2 - 4ac)) takes no difference of near-equal terms,
        and is computed halved so that no term overflows. -+inf maps to
        -+inf and NaN to NaN."""
        x = np.asarray(x, float)
        k = np.searchsorted(self.U, x, "right") - 1
        k = np.minimum(np.maximum(k, 0), len(self.t) - 2)
        a, half_b, c = 0.5 * self.slope[k], 0.5 * (self.d_at[k] + self.tilt), self.U[k] - x
        with np.errstate(invalid="ignore"):
            h = -c / (half_b + np.sqrt(np.maximum(half_b * half_b - a * c, 0.0)))
            u = np.where(np.isinf(x), x, np.minimum(np.maximum(self.t[k] + h, self.u_lo[k]), self.u_hi[k]))
        if not order:
            return (u,)
        _, d, *dd = self.jet(u, side, order)
        return (u, 1.0 / d, -dd[0] / d**3) if order > 1 else (u, 1.0 / d)


@dataclass(frozen=True)
class _FlatSpotPiece(SmoothPiece1D):
    """fat_cantor's q, read through ``core.jet``, with its q'' knot table:
    q'' is the slope of dist(., F), exactly -1, 0 or +1 on each knot
    segment. NIP.iii and the q' variation check read the table, not
    samples."""

    core: Optional[_FlatSpotInverseScale] = None

    def d2_segments(self, lo, hi):
        # each hi is read from its left: a knot at hi ends the last segment,
        # and the segment it starts lies outside [lo, hi]
        c = self.core
        k0, k1 = c._segment(np.asarray(lo, float)).tolist(), c._segment(np.asarray(hi, float), -1).tolist()
        return [(np.array([a, *c.t[i + 1 : j + 1], b]), c.slope[i : j + 1]) for a, b, i, j in zip(lo, hi, k0, k1)]


@lru_cache(maxsize=None)
def _fat_cantor_core(generations: int) -> tuple[tuple, _FlatSpotInverseScale]:
    """F's components and q's read-only closed form, shared by every build."""
    comps = tuple(fat_complement_components(generations))
    return comps, _FlatSpotInverseScale(comps)


def _build_fat_cantor(r: float, generations: float, u0: float) -> DiffusionSpec:
    comps, core = _fat_cantor_core(int(generations))
    q = _FlatSpotPiece(domain=(-_R_INF, _R_INF), jet=core.jet, core=core)
    J = StateInterval(-_R_INF, _R_INF)
    scale = SmoothPiece1D(domain=(J.alpha, J.beta), jet=core.inverse_jet)
    speed = DecomposedMeasure(support=(J.alpha, J.beta), ac_density=scale.d_plus)
    x0 = float(q.value(np.asarray(u0)))
    return DiffusionSpec(
        J=J,
        scale=scale,
        speed=speed,
        x0=x0,
        r=float(r),
        model_id="fat_cantor",
        q_piece=q,
        speed_natural=DecomposedMeasure((-_R_INF, _R_INF), Const(1.0)),
        qprime_zero_set=comps,
        phi_behaviors=tuple(
            b for lo, hi in comps for b in (LocalBehavior(lo, "left", -1.0, -0.5), LocalBehavior(hi, "right", -1.0, 0.5))
        ),
    )


def _expected_fat_cantor(r, generations, u0) -> ExpectedVerdict:
    # q is C^1 with Lipschitz derivative and no boundaries: NIP holds; phi
    # has simple poles at the flat-set edges: NSA fails; the flat set has
    # positive Lebesgue measure: the representation property fails
    return ExpectedVerdict.of(True, False, False, False)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

CATALOG: dict[str, CatalogEntry] = {
    e.name: e
    for e in [
        CatalogEntry(
            "brownian_motion",
            {"r": (0.0, "any real"), "x0": (0.0, "any real")},
            _build_brownian_motion,
            _expected_brownian_motion,
            "driftless price with globally bounded phi = -r u: every condition holds",
        ),
        CatalogEntry(
            "sticky_reflected_bm",
            {"r": (0.5, "any real"), "rho": (1.0, ">= 0"), "x0": (1.5, "> 1")},
            _build_sticky_reflected_bm,
            _expected_sticky_reflected_bm,
            "reflecting boundary at 1: the drift of the discounted price at the "
            "boundary vanishes iff 2 r rho = 1, and phi = -r u is locally bounded",
        ),
        CatalogEntry(
            "squared_bessel",
            {"delta": (1.0, "(0, 2)"), "r": (0.0, "zero"), "x0": (1.0, "> 0")},
            _build_squared_bessel,
            _expected_squared_bessel,
            "instantaneously reflecting origin with q'(0) = 0: boundary clause "
            "holds, but phi ~ c/u is not square integrable on a boundary collar",
        ),
        CatalogEntry(
            "gen_squared_bessel",
            {
                "nu": (-0.5, "(-1, 0)"),
                "r": (0.0, "any real"),
                "m0": (_R_INF, "[0, inf]; inf = absorbing origin"),
                "x0": (1.0, "> 0"),
            },
            _build_gen_squared_bessel,
            _expected_gen_squared_bessel,
            "origin at price zero: absorbing passes the boundary clause for any "
            "rate and phi ~ c/u keeps the distance-weighted collar integral "
            "infinite; a reflecting origin already fails the unweighted collar",
        ),
        CatalogEntry(
            "cubed_bm",
            {"r": (0.0, "zero"), "x0": (1.0, "nonzero")},
            _build_cubed_bm,
            _expected_cubed_bm,
            "q = u^3: smooth with one flat point; phi = 1/u fails local square "
            "integrability at an interior point while the flat set is a null set",
        ),
        CatalogEntry(
            "sticky_skew",
            {
                "kappa": (0.75, "(0, 1)"),
                "c": (1.0, "> 0"),
                "xi": (4.0 / 3.0, "any real"),
                "r": (1.0, "any real"),
                "x0": (None, "default: the sticky point"),
            },
            _build_sticky_skew,
            _expected_sticky_skew,
            "skew kink and sticky atom at the same point: the singular parts "
            "cancel iff r xi c = (2k - 1) / (2k(1 - k))",
        ),
        CatalogEntry(
            "fat_cantor",
            {"r": (0.0, "zero"), "generations": (8, "integer in [1, 50]"), "u0": (0.55, "natural-scale start")},
            _build_fat_cantor,
            _expected_fat_cantor,
            "C^1 inverse scale whose derivative vanishes on a closed set of "
            "positive measure: simple poles of phi at the set's edges",
        ),
    ]
}


def catalog_names() -> list[str]:
    return sorted(CATALOG)


def _entry(name: str) -> CatalogEntry:
    if not isinstance(name, str) or name not in CATALOG:
        raise KeyError(f"unknown catalog model {name!r}; known: {catalog_names()}")
    return CATALOG[name]


def build_model(name: str, params: Optional[dict] = None) -> DiffusionSpec:
    entry = _entry(name)
    return entry.builder(**entry.check_params(params))


def expected_verdict(name: str, params: Optional[dict] = None) -> ExpectedVerdict:
    entry = _entry(name)
    return entry.expected(**entry.check_params(params))
