"""Named model builders with exact annotations and expected verdicts.

Each entry constructs a fully annotated :class:`DiffusionSpec` (kinks, the
zero set of the inverse-scale derivative, local behaviours of phi near its
singular points) and fixes the expected NIP/NSA/NUPBR/RP verdicts as a
function of the parameters, with the equality predicates evaluated in exact
rational arithmetic. The catalog doubles as the golden test set.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .diffusion_model import DiffusionSpec, StateInterval, inverse_piece
from .measure_kit import (
    Affine,
    DecomposedMeasure,
    LocalBehavior,
    Piecewise,
    PowerSigned,
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


def _lebesgue(support) -> DecomposedMeasure:
    return DecomposedMeasure(support=support, ac_density=lambda x: np.ones_like(np.asarray(x, float)))


# ---------------------------------------------------------------------------
# Brownian motion
# ---------------------------------------------------------------------------


def _build_brownian_motion(r: float, x0: float) -> DiffusionSpec:
    J = StateInterval(-_R_INF, _R_INF)
    scale = SmoothPiece1D.from_expr(Affine(1.0, 0.0), (J.alpha, J.beta))
    speed = _lebesgue((J.alpha, J.beta))
    return DiffusionSpec(
        J=J,
        scale=scale,
        speed=speed,
        x0=float(x0),
        r=float(r),
        model_id="brownian_motion",
        q_expr=Affine(1.0, 0.0),
        speed_natural=speed,
    )


def _expected_brownian_motion(r, x0) -> ExpectedVerdict:
    return ExpectedVerdict.of(True, True, True, True)


# ---------------------------------------------------------------------------
# Brownian motion reflected at 1, optionally sticky
# ---------------------------------------------------------------------------


def _build_sticky_reflected_bm(r: float, rho: float, x0: float) -> DiffusionSpec:
    J = StateInterval(1.0, _R_INF, alpha_closed=True)
    scale = SmoothPiece1D.from_expr(Affine(1.0, 0.0), (J.alpha, J.beta))
    atoms = ((1.0, float(rho)),) if rho > 0 else ()
    speed = DecomposedMeasure(
        support=(1.0, _R_INF), ac_density=lambda x: np.ones_like(np.asarray(x, float)), atoms=atoms
    )
    return DiffusionSpec(
        J=J,
        scale=scale,
        speed=speed,
        x0=float(x0),
        r=float(r),
        model_id="sticky_reflected_bm",
        q_expr=Affine(1.0, 0.0),
        speed_natural=speed,
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
    scale = SmoothPiece1D.from_expr(PowerSigned(0.0, 1.0 - delta / 2.0), (0.0, _R_INF))
    c_speed = 1.0 / (2.0 * (2.0 - delta))

    def m_ac(x):
        x = np.asarray(x, float)
        with np.errstate(divide="ignore"):
            return c_speed * np.abs(x) ** nu

    atoms = ((0.0, float(m0)),) if m0 > 0 else ()
    speed = DecomposedMeasure(support=(0.0, _R_INF), ac_density=m_ac, atoms=atoms)

    c_u = 1.0 / (4.0 * nu * nu)

    def mU_ac(u):
        u = np.asarray(u, float)
        with np.errstate(divide="ignore"):
            return c_u * np.abs(u) ** (p - 2.0)

    speed_nat = DecomposedMeasure(support=(0.0, _R_INF), ac_density=mU_ac, atoms=atoms)

    kind = "absorbing" if math.isinf(m0) else "reflecting"
    # phi(u) = (p-1)/(2u) - (r / (4 |nu|)) u^(p-1): a simple pole at the
    # boundary image regardless of r
    return DiffusionSpec(
        J=J,
        scale=scale,
        speed=speed,
        x0=float(x0),
        r=float(r),
        model_id="squared_bessel",
        q_expr=PowerSigned(0.0, p),
        speed_natural=speed_nat,
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
    scale = SmoothPiece1D.from_expr(PowerSigned(0.0, 1.0 / 3.0), (J.alpha, J.beta))

    def m_ac(x):
        x = np.asarray(x, float)
        with np.errstate(divide="ignore"):
            return (1.0 / 3.0) * np.abs(x) ** (-2.0 / 3.0)

    return DiffusionSpec(
        J=J,
        scale=scale,
        speed=DecomposedMeasure(support=(J.alpha, J.beta), ac_density=m_ac),
        x0=float(x0),
        r=float(r),
        model_id="cubed_bm",
        q_expr=PowerSigned(0.0, 3.0),
        speed_natural=_lebesgue((-_R_INF, _R_INF)),
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
    scale = SmoothPiece1D.from_expr(scale_expr, (J.alpha, J.beta))

    def m_ac(x):
        x = np.asarray(x, float)
        return np.where(x > xi, 1.0 / (1.0 - kappa), 1.0 / kappa)

    speed = DecomposedMeasure(
        support=(J.alpha, J.beta), ac_density=m_ac, atoms=((xi, float(c)),), ac_breakpoints=(xi,)
    )
    q_expr = Piecewise([0.0], [Affine(1.0 / kappa, xi), Affine(1.0 / (1.0 - kappa), xi)])

    def mU_ac(u):
        u = np.asarray(u, float)
        return np.where(u > 0, (1.0 - kappa) ** -2.0, kappa**-2.0)

    speed_nat = DecomposedMeasure(
        support=(-_R_INF, _R_INF), ac_density=mU_ac, atoms=((0.0, float(c)),), ac_breakpoints=(0.0,)
    )
    return DiffusionSpec(
        J=J,
        scale=scale,
        speed=speed,
        x0=x0,
        r=float(r),
        model_id="sticky_skew",
        q_expr=q_expr,
        speed_natural=speed_nat,
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
    """q(x) = integral_0^x dist(z, F) dz + tilt * x for a finite union F.

    dist(z, F) is piecewise affine with slopes in {-1, 0, +1}; the integral
    is evaluated exactly as a piecewise quadratic. The tiny tilt keeps q
    strictly increasing on the flats so the approximant remains a valid,
    simulatable scale inverse; classification relies on the declared
    annotations, not on the tilt.
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
        self.d_at = self._dist(self.t)
        slopes = np.diff(self.d_at) / np.diff(self.t)
        self.slope = np.round(slopes).astype(float)  # exactly -1, 0, +1
        seg = self.d_at[:-1] * np.diff(self.t) + 0.5 * self.slope * np.diff(self.t) ** 2
        # q(0) = 0; summing outward from it, no far segment absorbs a near one
        i0 = int(np.searchsorted(self.t, 0.0))
        self.Q = np.concatenate([-np.cumsum(seg[:i0][::-1])[::-1], [0.0], np.cumsum(seg[i0:])])

    def _dist(self, z: np.ndarray) -> np.ndarray:
        # the nearest end of F is one of the two ends around z: float
        # subtraction is monotone, so no farther end comes out nearer
        z = np.asarray(z, float)
        e = self.ends
        k = np.searchsorted(e, z, "right")  # odd: z lies in a component
        below = np.where(k > 0, z - e[np.maximum(k - 1, 0)], np.inf)
        above = np.where(k < e.size, e[np.minimum(k, e.size - 1)] - z, np.inf)
        return np.where(k % 2 == 1, 0.0, np.minimum(below, above))

    def _segment(self, x: np.ndarray, side: int = 1) -> np.ndarray:
        k = np.searchsorted(self.t, x, side="right" if side > 0 else "left") - 1
        return np.clip(k, 0, len(self.t) - 2)

    def _q_raw(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, float)
        k = self._segment(x)
        h = x - self.t[k]
        return self.Q[k] + self.d_at[k] * h + 0.5 * self.slope[k] * h * h

    def q_value(self, x):
        x = np.asarray(x, float)
        return self._q_raw(x) + self.tilt * x

    def q_deriv(self, x):
        x = np.asarray(x, float)
        return self._dist(x) + self.tilt

    def q_deriv2(self, x, side=1):
        x = np.asarray(x, float)
        return self.slope[self._segment(x, side)]


def _build_fat_cantor(r: float, generations: float, u0: float) -> DiffusionSpec:
    comps = fat_complement_components(int(generations))
    core = _FlatSpotInverseScale(comps)
    q = SmoothPiece1D(
        domain=(-_R_INF, _R_INF),
        value=core.q_value,
        d_plus=core.q_deriv,
        d_minus=core.q_deriv,
        d2_ac=lambda x: core.q_deriv2(x, 1),
        kinks=(),
    )
    J = StateInterval(-_R_INF, _R_INF)
    scale = inverse_piece(q, (J.alpha, J.beta))
    speed = DecomposedMeasure(support=(J.alpha, J.beta), ac_density=scale.d_plus)
    behaviors = []
    for a, b in comps:
        behaviors.append(LocalBehavior(a, "left", -1.0, -0.5))
        behaviors.append(LocalBehavior(b, "right", -1.0, 0.5))
    x0 = float(core.q_value(np.asarray(u0)))
    return DiffusionSpec(
        J=J,
        scale=scale,
        speed=speed,
        x0=x0,
        r=float(r),
        model_id="fat_cantor",
        q_piece=q,
        speed_natural=_lebesgue((-_R_INF, _R_INF)),
        qprime_zero_set=tuple(comps),
        phi_behaviors=tuple(behaviors),
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
