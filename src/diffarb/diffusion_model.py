"""Market model record, boundary classification, and standing assumptions.

A market is a one-dimensional regular diffusion on a state interval J,
described by a strictly increasing continuous scale function and a speed
measure, together with a constant interest rate r and a finite horizon. The
discounted price is exp(-r t) Y_t.

This module derives the natural-scale view (inverse scale q, its second
derivative measure, the pushforward speed measure, and the phi / gamma
fields used by the classifier), classifies boundary behaviour with a
Feller-type accessibility test, and verifies the semimartingale standing
assumption (q must be a difference of two convex functions, with weighted
|q''| integrability near accessible boundaries).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .measure_kit import (
    DecomposedMeasure,
    Expr,
    LocalBehavior,
    QuadConfig,
    DEFAULT_QUAD,
    ScComponent,
    SmoothPiece1D,
    _leggauss,
    close_rel,
    decide_abs_integral,
    expr_from_json,
    invert_monotone_vec,
    json_list,
    json_number,
    json_object,
    json_pair,
    leading_increment,
    measure_from_json,
    pushforward,
    same_point,
    sampled_total_variation,
    sc_from_json,
    second_derivative_decomposition,
)

__all__ = [
    "SpecValidationError",
    "StateInterval",
    "BoundaryBehavior",
    "DiffusionSpec",
    "NaturalScaleView",
    "AssumptionCheck",
    "AssumptionReport",
    "WindowTable",
    "window_table",
    "classify_boundary",
    "derive_natural_scale",
    "check_semimartingale_assumption",
    "load_model_spec",
    "inverse_piece",
]


class SpecValidationError(Exception):
    """The model description violates a standing assumption."""


@dataclass(frozen=True)
class StateInterval:
    """State interval J with endpoint membership flags."""

    alpha: float
    beta: float
    alpha_closed: bool = False
    beta_closed: bool = False

    def __post_init__(self):
        if not self.alpha < self.beta:
            raise SpecValidationError("state interval requires alpha < beta")
        if self.alpha_closed and not math.isfinite(self.alpha):
            raise SpecValidationError("a closed endpoint must be finite")
        if self.beta_closed and not math.isfinite(self.beta):
            raise SpecValidationError("a closed endpoint must be finite")


@dataclass(frozen=True)
class BoundaryBehavior:
    """Everything known about one end of J: the one record the deciders,
    the semimartingale check and the chain read.

    kind is 'inaccessible', 'absorbing' or 'reflecting'; a reflecting
    boundary carries its stickiness (the speed-measure atom there, 0 meaning
    instantaneous reflection). An absorbing boundary is exactly an endpoint
    in J with infinite speed atom. ``value`` is the endpoint b of J and
    ``image`` its scale image s(b), +-inf where the scale diverges. An
    annotation (``phi_behaviors``, ``qpp_behaviors``) within 1e-9 relative
    of ``image`` applies at ``image``.
    """

    kind: str
    value: float
    image: float
    stickiness: float = 0.0
    note: str = ""

    def __post_init__(self):
        if self.kind not in ("inaccessible", "absorbing", "reflecting"):
            raise SpecValidationError(f"unknown boundary kind {self.kind!r}")

    @property
    def accessible(self) -> bool:
        return self.kind in ("absorbing", "reflecting")


@dataclass(frozen=True)
class DiffusionSpec:
    """Full market model: diffusion characteristics plus analytic annotations.

    Annotations let the classifier decide integral conditions exactly. Some
    are checked against the model, and the rest are trusted:

    * checked: the declared boundary kinds (against the collar integral
      test, certified finite where the scale and an ``Expr`` density have
      finite bounds on the collar, else probed; an inconclusive probe defers
      to the declaration), the kink jumps of q (against its one-sided
      derivatives; a kink image of an inverted scale maps to its kink
      exactly) and ``speed_natural`` (its atoms, and its ac part pointwise
      on four probe intervals, against the pushforward of ``speed``, which
      is mU where no ``speed_natural`` is declared);
    * trusted: ``phi_behaviors`` and ``qpp_behaviors`` (the local exponents
      the deciders use), ``qprime_zero_set``, the inverse scale ``q_expr`` /
      ``q_piece`` and ``qpp_sc``. A false one can give a wrong verdict.

    A behaviour whose point lies within 1e-9 relative of a boundary image
    s(b) is read as annotated at s(b) itself.
    """

    J: StateInterval
    scale: SmoothPiece1D
    speed: DecomposedMeasure
    x0: float
    r: float
    horizon: float = 1.0
    model_id: str = "model"
    qprime_zero_set: tuple[tuple[float, float], ...] = ()  # natural-scale coords, (a, b) with a == b for points
    phi_behaviors: tuple[LocalBehavior, ...] = ()
    qpp_behaviors: tuple[LocalBehavior, ...] = ()
    q_expr: Optional[Expr] = None
    q_piece: Optional[SmoothPiece1D] = None
    speed_natural: Optional[DecomposedMeasure] = None
    declared_boundaries: tuple[tuple[str, str], ...] = ()  # (side, kind)
    qpp_sc: Optional[ScComponent] = None

    def __post_init__(self):
        for name in ("x0", "r", "horizon"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise SpecValidationError(f"field {name!r} must be finite, got {value!r}")
        if not self.horizon > 0:
            raise SpecValidationError("horizon must be positive")
        lo, hi = self.J.alpha, self.J.beta
        if not (lo <= self.x0 <= hi):
            raise SpecValidationError("x0 outside the state interval")
        for a, b in self.qprime_zero_set:
            if a > b:
                raise SpecValidationError("zero-set intervals must have a <= b")


@dataclass(frozen=True)
class NaturalScaleView:
    """Everything the classifier needs, read in one chart t of s(J): u for
    a declared q, else the state x (``scale`` is s). ``m_ac`` is the
    state-space speed density whenever mU is its pushforward, in either
    chart, and phi reads mU_ac as m_ac(q) q'. Integrals over u are taken
    over t, du = du/dt dt, so only points given in u are ever inverted."""

    sJ: tuple[float, float]
    q: SmoothPiece1D
    qpp: DecomposedMeasure
    mU: DecomposedMeasure
    boundaries: tuple[tuple[str, BoundaryBehavior], ...]
    r: float
    s_x0: float
    scale: Optional[SmoothPiece1D] = None
    m_ac: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def chart(self, u) -> np.ndarray:
        """Chart points of natural-scale points u, by one inversion of those
        inside s(J) in the state chart; a boundary image goes to its endpoint."""
        u = np.asarray(u, float)
        if self.scale is None:
            return u
        (_, lo), (_, hi) = self.boundaries
        inner = (u != lo.image) & (u != hi.image)
        t = np.where(inner, u, np.where(u == lo.image, lo.value, hi.value))
        t[inner] = invert_monotone_vec(self.scale, u[inner])
        return t

    def point(self, t) -> tuple:
        """(u, q, q', q'', du/dt) at chart points t, from one jet read."""
        if self.scale is None:
            return (t, *(np.asarray(v, float) for v in self.q.jet(t, order=2)), 1.0)
        u, ds, d, qpp = _inverse_jet(self.scale, t)
        return u, t, d, qpp, ds

    def drift_over_slope(self, t, power: int, dt: bool = False) -> np.ndarray:
        """The drift density q''/2 - r q mU_ac over q'**power at chart points
        t (times sqrt(du/dt) with ``dt``), on {q' != 0, finite}, 0 elsewhere.
        Its numerator is coded here alone."""
        u, qv, d, qpp, dudt = self.point(t)
        out = 0.5 * qpp
        with np.errstate(divide="ignore", invalid="ignore"):  # where q' is infinite, q mU_ac may be 0 * inf
            if self.r != 0.0 and self.mU.ac_density is not None:
                mU_ac = self.mU.ac_density(u) if self.m_ac is None else np.asarray(self.m_ac(qv), float) * d
                out = out - self.r * qv * np.asarray(mU_ac, float)
            if power:
                out = out / (d if power == 1 else d * d)
            if dt:
                out = out * np.sqrt(dudt)
        return np.where((d != 0.0) & np.isfinite(d), out, 0.0)

    def phi(self, u) -> np.ndarray:
        """phi = (q''/2 - r q mU_ac) / q' on {q' != 0}, 0 elsewhere."""
        return self.drift_over_slope(self.chart(u), 1)

    def phi_dt(self, t) -> np.ndarray:
        """phi sqrt(du/dt) at chart points t, whose square integrates dt as phi**2 does du."""
        return self.drift_over_slope(t, 1, dt=True)

    def boundary_slope(self, side: str) -> float:
        """One-sided q' at a boundary image, taken from the interior side: in
        the state chart 1/s' at the endpoint, with no inversion."""
        if self.scale is not None:
            k = int(side == "right")
            return float(_inverse_jet(self.scale, np.asarray(self.boundaries[k][1].value), 1 - 2 * k, 1)[2])
        if side == "left":
            return float(self.q.d_plus(np.asarray(self.sJ[0])))
        return float(self.q.d_minus(np.asarray(self.sJ[1])))

    def bounded(self, lo, hi) -> tuple[np.ndarray, np.ndarray]:
        """Two masks of closed chart windows [lo, hi] (arrays alike), from one
        ``Expr.bounds`` call on the scale and one on the density. ``drift``:
        phi sqrt(du/dt), |q''| du/dt and q' are bounded, s' in [d, M], d > 0,
        and s'' bounded (in the u chart q' and q''), and with r != 0 also q
        and the density phi reads, an ``Expr``: ``m_ac`` over the window's
        x-range (q's enclosure in the u chart), else a declared mU in u.
        ``plain``: |q''| du/dt and q' are bounded, the same without the
        density and, in the u chart, with q' only bounded. Never with a
        ``q_piece`` or ``qpp_sc``."""
        lo, hi = np.broadcast_arrays(np.asarray(lo, float), np.asarray(hi, float))
        f = (self.q if self.scale is None else self.scale).expr
        if f is None or self.qpp.sc is not None:
            return (np.zeros(lo.shape, bool),) * 2
        (v_lo, v_hi), (d_lo, d_hi), dd = f.bounds(lo, hi)
        ok = np.isfinite([lo, hi, d_hi, *dd]).all(axis=0)
        drift = ok & (d_lo > 0.0)
        if self.r != 0.0 and self.mU.ac_density is not None:  # phi reads q and the density
            dens = self.m_ac if self.m_ac is not None else self.mU.ac_density if self.scale is None else None
            xs = (v_lo, v_hi) if self.scale is None and self.m_ac is not None else (lo, hi)
            drift &= isinstance(dens, Expr) and np.isfinite([v_lo, v_hi, *dens.bounds(*xs)[0]]).all(axis=0)
        return drift, ok if self.scale is None else ok & (d_lo > 0.0)

    def collar(self, side: str, fraction: float = 1.0) -> tuple[float, float]:
        """Window of length fraction * min(1, |s(J)|/4) at a boundary image."""
        lo_u, hi_u = self.sJ
        span = hi_u - lo_u
        ell = fraction * (min(1.0, span / 4.0) if math.isfinite(span) else 1.0)
        return (lo_u, lo_u + ell) if side == "left" else (hi_u - ell, hi_u)


_GENERIC_WINDOWS = 32


@dataclass(frozen=True)
class WindowTable:
    """Every point and window one classify maps, placed in u, mapped by one
    ``view.chart`` call and certified by one ``view.bounded`` pass: the q'
    variation window (chart window, ``plain`` mask) or None; each accessible
    end's ``view.collar`` (u and chart window, ``drift`` and ``plain``); the
    33 edges of the generic NSA windows in u and in the chart, and their
    ``drift`` masks; each interior phi annotation with (lo, point, hi) in the
    chart; the 9 gamma samples in u and in the chart."""

    variation: Optional[tuple]
    collars: dict
    edges: np.ndarray
    t_edges: list
    generic: np.ndarray
    behaviors: list
    gamma: tuple

    def collar(self, side: str, behaviors, drift: bool) -> tuple:
        """The collar at ``side`` in the chart, its boundary end there, the
        ``behaviors`` annotated at the boundary image moved onto that end,
        and its ``drift`` or ``plain`` mask."""
        k, (u, t, *masks) = int(side == "right"), self.collars[side]
        moved = [replace(b, point=t[k]) for b in behaviors if same_point(b.point, u[k])]
        return t, t[k], moved, masks[0 if drift else 1]


def window_table(view: NaturalScaleView, spec: DiffusionSpec) -> WindowTable:
    """The ``WindowTable`` of a classify of ``spec`` on ``view``."""
    (lo_u, hi_u), x0 = view.sJ, view.s_x0
    var = []  # a compact interior window over the start image, the kinks and the flat spots
    if not view.q.infinite_slope:
        focus = [x0] + [c for c, _ in view.q.kinks] + [a for a, _ in spec.qprime_zero_set]
        margin = 0.05 * min(1.0, hi_u - lo_u)
        lo = max(min(focus) - 2.0, lo_u + margin)
        hi = min(max(focus) + 2.0, hi_u - margin)
        var = [lo, hi] if lo < hi else []
    sides = [side for side, beh in view.boundaries if beh.accessible]
    collars = [view.collar(side) for side in sides]
    # the generic windows stop half a collar short of each finite boundary image, and
    # reach 0.5 past the start image, but at most halfway to a boundary
    lo_c = view.collar("left", 0.5)[1] if math.isfinite(lo_u) else x0 - 8.0
    hi_c = view.collar("right", 0.5)[0] if math.isfinite(hi_u) else x0 + 8.0
    lo_c = min(lo_c, max(x0 - 0.5, 0.5 * (lo_u + x0)))
    hi_c = max(hi_c, min(x0 + 0.5, 0.5 * (hi_u + x0)))
    edges = np.linspace(lo_c, hi_c, _GENERIC_WINDOWS + 1)
    # an annotation at a boundary image belongs to that boundary's collar
    behaviors = [
        b for b in spec.phi_behaviors
        if lo_u < b.point < hi_u and not (same_point(b.point, lo_u) or same_point(b.point, hi_u))
    ]
    gaps = [min(1.0, 0.5 * min(b.point - lo_u, hi_u - b.point)) for b in behaviors]
    ends = [(max(b.point - g, lo_u + 1e-12), b.point, min(b.point + g, hi_u - 1e-12)) for b, g in zip(behaviors, gaps)]
    # the gamma samples: 1/4 inside each finite boundary image, 2 from the start image on an infinite side
    lo = lo_u + 0.25 if math.isfinite(lo_u) else x0 - 2.0
    hi = hi_u - 0.25 if math.isfinite(hi_u) else x0 + 2.0
    gamma = np.linspace(lo, hi, 9) if lo < hi else np.linspace(x0 - 0.5, x0 + 0.5, 9)
    rows = [var, np.ravel(collars), edges, np.ravel(ends), gamma]
    tv, tc, te, tb, tg = np.split(view.chart(np.concatenate(rows)), np.cumsum([len(r) for r in rows])[:-1])
    tc, n = tc.reshape(-1, 2), len(var) // 2
    drift, plain = view.bounded(np.concatenate([tv[:1], tc[:, 0], te[:-1]]), np.concatenate([tv[1:], tc[:, 1], te[1:]]))
    rims = {side: (u, tuple(t), drift[n + i], plain[n + i])
            for i, (side, u, t) in enumerate(zip(sides, collars, tc.tolist()))}
    return WindowTable((tuple(tv.tolist()), plain[0]) if n else None, rims, edges, te.tolist(), drift[n + len(sides) :],
                       list(zip(behaviors, tb.reshape(-1, 3).tolist())), (gamma, tg))


# ---------------------------------------------------------------------------
# Boundary classification
# ---------------------------------------------------------------------------


def _scale_limit(scale: SmoothPiece1D, b: float, side: str) -> float:
    """s(b) by continuity; +-inf when the scale diverges at the endpoint.

    An infinite end is read from s at -+10^k, k = 1..11, in one call."""
    if math.isfinite(b):
        return float(scale.value(np.asarray(b)))
    sign = -1.0 if side == "left" else 1.0
    vals = [float(v) for v in scale.value(sign * 10.0 ** np.arange(1, 12))]
    if not math.isfinite(vals[-1]):
        return sign * math.inf
    # converging increments mean a finite limit (the endpoint stays
    # inaccessible either way, not being part of J)
    inc_last = abs(vals[-1] - vals[-2])
    inc_prev = abs(vals[-2] - vals[-3])
    if inc_last <= 1e-6 * (1.0 + abs(vals[-1])) and inc_last <= inc_prev:
        return vals[-1]
    return sign * math.inf


_RULE_MARGIN = 1e-9  # how far e_s + e_m must clear -1 for the power rule to decide


def classify_boundary(spec: DiffusionSpec, side: str) -> BoundaryBehavior:
    """Feller-type accessibility test plus the speed-atom dichotomy.

    Accessible iff |s(b)| < infinity and the integral of |s(b) - s(y)| m(dy)
    over a collar at b converges. Two exact readings come before the probe.
    First the power rule (Feller 1952): where the leading powers of s(y) -
    s(b) (``leading_increment``) and of an ``Expr`` density at b
    (``Expr.local``) sum to e_s + e_m beyond -1 -+ ``_RULE_MARGIN``, the
    integral is finite iff e_s + e_m > -1. Then the certificate: a collar on
    which ``Expr.bounds`` encloses both the scale and an ``Expr`` density
    finitely bounds the integrand on a compact set, so the integral is
    finite. Any other collar goes to ``decide_abs_integral``, the dyadic
    probe toward b. Accessible with infinite atom -> absorbing;
    finite atom -> reflecting (stickiness = atom). A declared behaviour is
    validated against the test; a definite conflict is an error, and an
    inconclusive test defers to the declaration. An accessible end, tested
    or declared, must belong to J.
    """
    if side not in ("left", "right"):
        raise SpecValidationError("side must be 'left' or 'right'")
    b = spec.J.alpha if side == "left" else spec.J.beta
    in_J = spec.J.alpha_closed if side == "left" else spec.J.beta_closed
    declared = dict(spec.declared_boundaries).get(side)
    s_b = _scale_limit(spec.scale, b, side)

    if not (math.isfinite(b) and math.isfinite(s_b)):
        note = "scale image infinite" if math.isfinite(b) else "infinite endpoint"
        if declared not in (None, "inaccessible"):
            raise SpecValidationError(f"{side} boundary declared {declared} ({note})")
        return BoundaryBehavior("inaccessible", b, s_b, note=note)

    # integral test on a collar at the boundary
    other = spec.J.beta if side == "left" else spec.J.alpha
    reach = min(1.0, 0.25 * abs(other - b)) if math.isfinite(other) else 1.0
    lo, hi = (b, b + reach) if side == "left" else (b - reach, b)
    status, dens, f = "finite", spec.speed.ac_density, spec.scale.expr
    exact = isinstance(dens, Expr) and f is not None
    # the power rule: |s(y) - s(b)| m(y) ~ C |y - b|^e with e = e_s + e_m
    inward = 1 if side == "left" else -1
    lead_s = leading_increment(f, b, inward) if exact else None
    lead_m = dens.local(b, inward) if lead_s else None
    e = lead_s[0] + lead_m[0] if lead_m else None
    if e is not None and abs(e + 1.0) > _RULE_MARGIN:
        status = "finite" if e > -1.0 else "divergent"
    # else the certificate, s and the density bounded on the compact collar, else the probe
    elif dens is not None and not (
        exact and bool(np.isfinite([*f.bounds(lo, hi)[0], *dens.bounds(lo, hi)[0]]).all())
    ):

        def g(y: np.ndarray) -> np.ndarray:
            y = np.atleast_1d(np.asarray(y, float))
            return np.abs(np.asarray(spec.scale.value(y), float) - s_b) * np.abs(np.asarray(dens(y), float))

        verdict = decide_abs_integral(g, (lo, hi), suspicious=[b])
        status = verdict.status
    for p, m in spec.speed.interior_atoms(spec.J.alpha, spec.J.beta):
        if lo <= p <= hi and math.isinf(m):
            status = "divergent"

    atom = spec.speed.atom_mass_at(b)
    if status == "inconclusive" and declared is not None:
        kind, note = declared, "accessibility test inconclusive; declaration used"
    elif status == "inconclusive":
        kind, note = "inaccessible", "accessibility test inconclusive and no declaration given"
    elif status == "finite":
        kind, note = ("absorbing" if math.isinf(atom) else "reflecting"), ""
    else:
        kind, note = "inaccessible", "speed-weighted scale integral diverges"

    if kind != "inaccessible" and not in_J:
        raise SpecValidationError(
            f"{side} boundary is accessible but excluded from the state interval"
        )
    if declared is not None and declared != kind:
        raise SpecValidationError(
            f"declared {side} boundary {declared!r} conflicts with the "
            f"accessibility test ({kind!r})"
        )
    stick = atom if kind == "reflecting" and math.isfinite(atom) else 0.0
    return BoundaryBehavior(kind, b, s_b, stick, note)


# ---------------------------------------------------------------------------
# Natural-scale derivation
# ---------------------------------------------------------------------------


def _inverse_jet(scale: SmoothPiece1D, x, side: int = 1, order: int = 2) -> tuple:
    """(s, s', q', q'') at x = q(u) from one ``scale.jet`` read: q' = 1/s',
    +inf where s' <= 0, and q'' = -s''/s'^3 (a.e.) where finite, else 0."""
    s, d, *dd = (np.asarray(v, float) for v in scale.jet(x, side, order))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (s, d, np.where(d > 0, 1.0 / d, np.inf))
        if order > 1:
            c = -dd[0] / d**3
            out += (np.where(np.isfinite(c), c, 0.0),)
    return out


def inverse_piece(scale: SmoothPiece1D, sJ: tuple[float, float]) -> SmoothPiece1D:
    """Inverse q = s^{-1} of the increasing piece s = ``scale`` on its image
    ``sJ``. Its jet holds no state: each call inverts its points once and
    reads ``_inverse_jet`` there. Kinks of s map to kinks of q and flat
    points of s to infinite-slope points of q. ``invert_monotone_vec`` maps
    the image of a kink of s to that kink by lookup, so reading q at a kink
    of q (its one-sided slopes, q at an atom there) takes no root search; a
    cubic scale's other points take Cardano's root. Only a model that
    declares neither q nor an inverse scale is inverted so; every catalog
    model declares q, and fat_cantor's scale is q's inverse in closed form."""

    def jet(u, side=1, order=1):
        x = invert_monotone_vec(scale, u)
        return (x, *_inverse_jet(scale, x, side, order)[2:]) if order else (x,)

    kinks = []
    for c, _ in scale.kinks:
        u, dp = map(float, scale.jet(np.asarray(c)))
        dm = float(scale.d_minus(np.asarray(c)))
        if dp > 0 and dm > 0:
            kinks.append((u, 1.0 / dp - 1.0 / dm))
    inf_slope = tuple(float(scale.value(np.asarray(c))) for c in scale.zero_slope)
    return SmoothPiece1D(domain=sJ, jet=jet, kinks=tuple(kinks), infinite_slope=inf_slope)


def derive_natural_scale(spec: DiffusionSpec, cfg: QuadConfig = DEFAULT_QUAD) -> NaturalScaleView:
    """Populate the natural-scale cache for a validated model."""
    boundaries = tuple((side, classify_boundary(spec, side)) for side in ("left", "right"))
    sJ = tuple(beh.image for _, beh in boundaries)
    for _, beh in boundaries:
        if spec.x0 == beh.value and beh.kind != "reflecting":
            raise SpecValidationError(
                "starting value absorbing"
                if beh.kind == "absorbing"
                else "x0 must lie in the interior or at a reflecting boundary"
            )

    chart = {}  # the scale in the state chart (u for a declared q), m_ac for a pushed mU
    if spec.q_piece is not None:
        q = spec.q_piece
    elif spec.q_expr is not None:
        q = SmoothPiece1D.from_expr(spec.q_expr, sJ)
    else:
        q = inverse_piece(spec.scale, sJ)
        chart["scale"] = spec.scale

    qpp = second_derivative_decomposition(q, q.kinks, sc=spec.qpp_sc)

    if spec.speed_natural is not None:
        mU = spec.speed_natural
        _validate_speed_hint(spec, mU, cfg)
    else:
        zero_ivals = tuple((a, b) for a, b in spec.qprime_zero_set if b > a)
        mU = pushforward(spec.speed, spec.scale, q, qprime_zero_intervals=zero_ivals)
        chart["m_ac"] = spec.speed.ac_density

    return NaturalScaleView(
        sJ=sJ,
        q=q,
        qpp=qpp,
        mU=mU,
        boundaries=boundaries,
        r=spec.r,
        s_x0=float(spec.scale.value(np.asarray(spec.x0))),
        **chart,
    )


def _validate_speed_hint(spec: DiffusionSpec, mU: DecomposedMeasure, cfg: QuadConfig) -> None:
    """Cross-check a declared natural-scale speed against the pushforward.

    Atom images must carry the state-space masses. The ac densities are
    compared pointwise, m_ac(x) against mU_ac(s(x)) s'_+(x), to 1e-4 relative
    (``close_rel``) at 8 Gauss-Legendre nodes in each of 4 equal sample
    intervals of J (x0 -+ 2 on an infinite side), skipping nodes within 1e-9
    relative of a scale kink, an ac breakpoint or an atom; exactly one
    non-finite side is a mismatch. No integral is taken, so models with a
    declared q' = 0 set, whose pushforward is undefined, are checked too.
    """
    for p, m in spec.speed.atoms:
        u = float(spec.scale.value(np.asarray(p))) if math.isfinite(p) else p
        mu_mass = mU.atom_mass_at(u, cfg.atom_loc)
        if math.isinf(m) != math.isinf(mu_mass) or (
            math.isfinite(m) and not close_rel(m, mu_mass, 1e-9)
        ):
            raise SpecValidationError(
                f"declared natural-scale speed atom at {u} has mass {mu_mass}, "
                f"but the state-space atom at {p} has mass {m}"
            )
    if spec.speed.ac_density is None or mU.ac_density is None:
        return
    lo, hi = spec.J.alpha, spec.J.beta
    a = lo if math.isfinite(lo) else spec.x0 - 2.0
    b = hi if math.isfinite(hi) else spec.x0 + 2.0
    probes = np.linspace(a, b, 5)
    xs = (probes[:-1, None] + 0.5 * np.diff(probes)[:, None] * (1.0 + _leggauss(8)[0])).ravel()
    us = np.asarray(spec.scale.value(xs), float)

    def away(v, cuts):  # no finite cut stands for v, read as ``same_point`` reads it
        c = np.array([p for p in cuts if math.isfinite(p)])
        return ~np.any(np.abs(v[:, None] - c) <= 1e-9 * (1 + np.abs(c)), axis=1)

    x_cuts = [c for c, _ in spec.scale.kinks] + [*spec.speed.ac_breakpoints] + [p for p, _ in spec.speed.atoms]
    keep = away(xs, x_cuts) & away(us, mU.ac_breakpoints)
    xs, us = xs[keep], us[keep]
    with np.errstate(all="ignore"):
        lhs = np.asarray(spec.speed.ac_density(xs), float)
        rhs = np.asarray(mU.ac_density(us), float) * np.asarray(spec.scale.d_plus(xs), float)
    for x, l, r in zip(xs, lhs, rhs):
        if math.isfinite(l) != math.isfinite(r) or (math.isfinite(l) and not close_rel(l, r, 1e-4)):
            raise SpecValidationError(
                f"declared natural-scale speed disagrees with pushforward at x = {x}: {l} vs {r}"
            )


# ---------------------------------------------------------------------------
# Standing assumption
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    ok: bool
    note: str = ""


@dataclass(frozen=True)
class AssumptionReport:
    passed: bool
    checks: tuple[AssumptionCheck, ...]

    def failures(self) -> list[str]:
        return [c.note or c.name for c in self.checks if not c.ok]


def check_semimartingale_assumption(
    view: NaturalScaleView, spec: DiffusionSpec, table: Optional[WindowTable] = None
) -> AssumptionReport:
    """Is the price process a semimartingale?

    (a) q'_+ must have locally finite variation (difference of two convex
    functions); (b) near an absorbing boundary image the |q''| measure must
    integrate the distance weight; (c) near a reflecting boundary image
    |q''| must be finite up to the boundary. Failure is a value -- it blocks
    classification but raises nothing here. Of the windows of ``table``
    (``window_table`` by default), one that its ``plain`` mask certifies and
    no annotation marks passes unsampled.
    """
    table = table or window_table(view, spec)
    checks: list[AssumptionCheck] = []

    # (a) local finite variation of q'_+
    if view.q.infinite_slope:
        checks.append(
            AssumptionCheck(
                "q-prime-finite",
                False,
                f"q' explodes at {view.q.infinite_slope} (scale has flat points); "
                "the price process is not a semimartingale",
            )
        )
    elif table.variation is not None:  # over the chart: a monotone change of variable keeps the variation
        t, bv = table.variation  # q', q'' bounded: finite variation
        tvs, stable = ([], True) if bv else sampled_total_variation(lambda t: view.point(t)[2], t)
        checks.append(
            AssumptionCheck(
                "q-prime-bv",
                stable,
                "" if stable else f"sampled total variation of q'_+ unstable: {tvs}",
            )
        )
    else:
        checks.append(AssumptionCheck("q-prime-bv", True, "window degenerate; skipped"))

    # (b), (c) boundary integrability of |q''|, that is of |q''| du/dt over the chart
    for side, beh in view.boundaries:
        if not beh.accessible:
            continue
        window, b_t, bb, certified = table.collar(side, spec.qpp_behaviors, drift=False)
        weighted = beh.kind == "absorbing"
        status = "finite" if not bb and certified else decide_abs_integral(
            lambda t: np.multiply(*view.point(t)[3:]), window, point_exponents=[(b.point, b.exponent) for b in bb],
            weight_point=b_t if weighted else None, distance=lambda t: np.abs(view.point(t)[0] - beh.image),
        ).status
        ok = status == "finite"
        note = "" if ok else f"|q''| {'distance-weighted ' if weighted else ''}integral near s({side}) is {status}"
        checks.append(AssumptionCheck(f"qpp-integrable-{side}-{beh.kind}", ok, note))

    return AssumptionReport(passed=all(c.ok for c in checks), checks=tuple(checks))


# ---------------------------------------------------------------------------
# Model-spec files
# ---------------------------------------------------------------------------

_MODEL_KEYS = (
    "model_id",
    "state_interval",
    "scale",
    "speed",
    "x0",
    "r",
    "horizon",
    "qprime_zero_set",
    "phi_behaviors",
    "qpp_behaviors",
    "boundaries",
    "inverse_scale",
    "speed_natural",
    "qpp_sc",
)
_BEHAVIOR_KEYS = ("point", "side", "exponent", "coeff")


def _number(value, what: str) -> float:
    return json_number(value, what, error=SpecValidationError)


def _list(obj: dict, key: str) -> list:
    return json_list(obj.get(key, []), key, error=SpecValidationError)


def _flag(obj: dict, key: str) -> bool:
    value = obj.get(key, False)
    if not isinstance(value, bool):
        raise SpecValidationError(f"field {key!r} must be true or false, got {value!r}")
    return value


def _behavior(obj) -> LocalBehavior:
    json_object(obj, "behavior", _BEHAVIOR_KEYS, _BEHAVIOR_KEYS, error=SpecValidationError)
    return LocalBehavior(**{k: obj[k] if k == "side" else _number(obj[k], f"behavior field {k!r}") for k in obj})


def _zero_set_item(item) -> tuple[float, float]:
    """An interval [a, b], or a point, of the zero set of q'."""
    if isinstance(item, list):
        return json_pair(item, "qprime_zero_set interval", error=SpecValidationError)
    return (_number(item, "qprime_zero_set point"),) * 2


def load_model_spec(obj: dict) -> DiffusionSpec:
    """Parse the structured model document; unknown keys are rejected at
    every level."""
    json_object(obj, "model", _MODEL_KEYS, ("state_interval", "scale", "speed", "x0", "r"), error=SpecValidationError)
    si = json_object(
        obj["state_interval"], "state_interval", ("alpha", "beta", "alpha_closed", "beta_closed"), ("alpha", "beta"),
        error=SpecValidationError,
    )
    J = StateInterval(
        _number(si["alpha"], "field 'alpha'"),
        _number(si["beta"], "field 'beta'"),
        _flag(si, "alpha_closed"),
        _flag(si, "beta_closed"),
    )
    scale = SmoothPiece1D.from_expr(expr_from_json(obj["scale"]), (J.alpha, J.beta))
    scale.check_increasing()
    speed = measure_from_json(obj["speed"], support=(J.alpha, J.beta))
    speed_nat = None
    if obj.get("speed_natural") is not None:
        lo_u = float(scale.value(np.asarray(J.alpha))) if math.isfinite(J.alpha) else -math.inf
        hi_u = float(scale.value(np.asarray(J.beta))) if math.isfinite(J.beta) else math.inf
        speed_nat = measure_from_json(obj["speed_natural"], support=(lo_u, hi_u))
    decls = json_object(obj.get("boundaries", {}), "boundaries", ("left", "right"), error=SpecValidationError)
    q_expr, qpp_sc = obj.get("inverse_scale"), obj.get("qpp_sc")
    return DiffusionSpec(
        J=J,
        scale=scale,
        speed=speed,
        x0=_number(obj["x0"], "field 'x0'"),
        r=_number(obj["r"], "field 'r'"),
        horizon=_number(obj.get("horizon", 1.0), "field 'horizon'"),
        model_id=str(obj.get("model_id", "model")),
        qprime_zero_set=tuple(map(_zero_set_item, _list(obj, "qprime_zero_set"))),
        phi_behaviors=tuple(map(_behavior, _list(obj, "phi_behaviors"))),
        qpp_behaviors=tuple(map(_behavior, _list(obj, "qpp_behaviors"))),
        q_expr=None if q_expr is None else expr_from_json(q_expr),
        speed_natural=speed_nat,
        declared_boundaries=tuple((side, str(kind)) for side, kind in decls.items()),
        qpp_sc=None if qpp_sc is None else sc_from_json(qpp_sc, (0.0, 1.0)),
    )
