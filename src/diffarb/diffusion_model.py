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
from dataclasses import dataclass
from typing import Optional

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
    behaviors_at,
    close_rel,
    decide_abs_integral,
    expr_from_json,
    invert_monotone_vec,
    json_list,
    json_number,
    json_object,
    json_pair,
    measure_from_json,
    pushforward,
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
      test; an inconclusive test defers to the declaration), the kink jumps
      of q (against its one-sided derivatives) and ``speed_natural`` (its
      atoms, and its ac part on four probe intervals unless q' has an
      annotated zero interval, against the pushforward of ``speed``);
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
    """Derived cache: everything the classifier needs, in s(J) coordinates."""

    sJ: tuple[float, float]
    q: SmoothPiece1D
    qpp: DecomposedMeasure
    mU: DecomposedMeasure
    boundaries: tuple[tuple[str, BoundaryBehavior], ...]
    r: float
    s_x0: float

    def drift_density(self, u) -> np.ndarray:
        """Lebesgue density of the drift measure, q''(u)/2 - r q(u) mU_ac(u)."""
        u = np.asarray(u, float)
        out = 0.5 * np.asarray(self.q.d2_ac(u), float)
        mU_ac = self.mU.ac_density
        if self.r != 0.0 and mU_ac is not None:
            out = out - self.r * np.asarray(self.q.value(u), float) * np.asarray(mU_ac(u), float)
        return out

    def drift_over_slope(self, u, power: int) -> np.ndarray:
        """drift_density(u) / q'(u)**power on {q' != 0, finite}, 0 elsewhere."""
        u = np.asarray(u, float)
        d = np.asarray(self.q.d_plus(u), float)
        out = self.drift_density(u)
        if power:
            with np.errstate(divide="ignore", invalid="ignore"):
                out = out / (d if power == 1 else d * d)
        return np.where((d != 0.0) & np.isfinite(d), out, 0.0)

    def phi(self, u) -> np.ndarray:
        """phi = (q''/2 - r q mU_ac) / q' on {q' != 0}, 0 elsewhere."""
        return self.drift_over_slope(u, 1)

    def gamma(self, u) -> np.ndarray:
        """gamma = (q''/2 - r q mU_ac) / q'^2 on {q' != 0}, 0 elsewhere; any
        value is admissible at boundary images, so none is forced there."""
        return self.drift_over_slope(u, 2)

    def boundary_slope(self, side: str) -> float:
        """One-sided q' at a boundary image, taken from the interior side."""
        if side == "left":
            return float(self.q.d_plus(np.asarray(self.sJ[0])))
        return float(self.q.d_minus(np.asarray(self.sJ[1])))

    def collar(self, side: str, fraction: float = 1.0) -> tuple[float, float]:
        """Window of length fraction * min(1, |s(J)|/4) at a boundary image."""
        lo_u, hi_u = self.sJ
        span = hi_u - lo_u
        ell = fraction * (min(1.0, span / 4.0) if math.isfinite(span) else 1.0)
        return (lo_u, lo_u + ell) if side == "left" else (hi_u - ell, hi_u)


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


def classify_boundary(spec: DiffusionSpec, side: str) -> BoundaryBehavior:
    """Feller-type accessibility test plus the speed-atom dichotomy.

    Accessible iff |s(b)| < infinity and the integral of |s(b) - s(y)| m(dy)
    over a collar at b converges. Accessible with infinite atom -> absorbing;
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
    status = "finite"
    if spec.speed.ac_density is not None:
        sc_fun = spec.scale.value

        def g(y: np.ndarray) -> np.ndarray:
            y = np.atleast_1d(np.asarray(y, float))
            return np.abs(np.asarray(sc_fun(y), float) - s_b) * np.abs(
                np.asarray(spec.speed.ac_density(y), float)
            )

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


def inverse_piece(scale: SmoothPiece1D, sJ: tuple[float, float]) -> SmoothPiece1D:
    """Inverse q = s^{-1} of the increasing piece s = ``scale`` on its image
    ``sJ``, as function handles via root finding. The last array inverted
    is kept: q, q', q'' and the pushed speed density share its inversion.

    q' = 1/s'(q) one-sided, q'' = -s''(q) / s'(q)^3 a.e.; kinks of s map to
    kinks of q and flat points of s to infinite-slope points of q. Models
    built from q take their scale as ``inverse_piece(q, J)``.
    """
    last = [None, None]  # (shape, bytes) of the last array, and its inverse

    def x_of(u):
        u = np.asarray(u, float)
        key = (u.shape, u.tobytes())
        if key != last[0]:
            last[:] = key, invert_monotone_vec(scale, u)
        return last[1]

    def q_val(u):
        return x_of(u).copy()

    def d_side(u, side):
        x = x_of(u)
        d = np.asarray(scale.d_plus(x) if side > 0 else scale.d_minus(x), float)
        with np.errstate(divide="ignore"):
            return np.where(d > 0, 1.0 / d, np.inf)

    def d2(u):
        x = x_of(u)
        d = np.asarray(scale.d_plus(x), float)
        dd = np.asarray(scale.d2_ac(x), float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = -dd / d**3
        return np.where(np.isfinite(out), out, 0.0)

    kinks = []
    for c, _ in scale.kinks:
        u = float(scale.value(np.asarray(c)))
        dp = float(scale.d_plus(np.asarray(c)))
        dm = float(scale.d_minus(np.asarray(c)))
        if dp > 0 and dm > 0:
            kinks.append((u, 1.0 / dp - 1.0 / dm))
    inf_slope = tuple(float(scale.value(np.asarray(c))) for c in scale.zero_slope)
    return SmoothPiece1D(
        domain=sJ,
        value=q_val,
        d_plus=lambda u: d_side(u, 1),
        d_minus=lambda u: d_side(u, -1),
        d2_ac=d2,
        kinks=tuple(kinks),
        infinite_slope=inf_slope,
    )


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

    if spec.q_piece is not None:
        q = spec.q_piece
    elif spec.q_expr is not None:
        q = SmoothPiece1D.from_expr(spec.q_expr, sJ)
    else:
        q = inverse_piece(spec.scale, sJ)

    qpp = second_derivative_decomposition(q, q.kinks, sc=spec.qpp_sc)

    if spec.speed_natural is not None:
        mU = spec.speed_natural
        _validate_speed_hint(spec, mU, cfg)
    else:
        zero_ivals = tuple((a, b) for a, b in spec.qprime_zero_set if b > a)
        mU = pushforward(spec.speed, spec.scale, q, qprime_zero_intervals=zero_ivals)

    return NaturalScaleView(
        sJ=sJ,
        q=q,
        qpp=qpp,
        mU=mU,
        boundaries=boundaries,
        r=spec.r,
        s_x0=float(spec.scale.value(np.asarray(spec.x0))),
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


def check_semimartingale_assumption(view: NaturalScaleView, spec: DiffusionSpec) -> AssumptionReport:
    """Is the price process a semimartingale?

    (a) q'_+ must have locally finite variation (difference of two convex
    functions); (b) near an absorbing boundary image the |q''| measure must
    integrate the distance weight; (c) near a reflecting boundary image
    |q''| must be finite up to the boundary. Failure is a value -- it blocks
    classification but raises nothing here.
    """
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
    else:
        # probe a compact interior window covering the start image and all
        # structurally interesting points (kinks, flat spots)
        s_lo, s_hi = view.sJ
        focus = [view.s_x0] + [c for c, _ in view.q.kinks] + [a for a, _ in spec.qprime_zero_set]
        span = s_hi - s_lo
        margin = 0.05 * min(1.0, span if math.isfinite(span) else 1.0)
        lo = min(focus) - 2.0
        hi = max(focus) + 2.0
        if math.isfinite(s_lo):
            lo = max(lo, s_lo + margin)
        if math.isfinite(s_hi):
            hi = min(hi, s_hi - margin)
        if lo < hi:
            tvs, stable = sampled_total_variation(view.q.d_plus, (lo, hi))
            checks.append(
                AssumptionCheck(
                    "q-prime-bv",
                    stable,
                    "" if stable else f"sampled total variation of q'_+ unstable: {tvs}",
                )
            )
        else:
            checks.append(AssumptionCheck("q-prime-bv", True, "window degenerate; skipped"))

    # (b), (c) boundary integrability of |q''|
    for side, beh in view.boundaries:
        if not beh.accessible:
            continue
        exps = [(b.point, b.exponent) for b in behaviors_at(spec.qpp_behaviors, beh.image)]
        weight = beh.image if beh.kind == "absorbing" else None
        verdict = decide_abs_integral(
            view.q.d2_ac, view.collar(side), point_exponents=exps, weight_point=weight
        )
        label = f"qpp-integrable-{side}-{beh.kind}"
        if verdict.status == "finite":
            checks.append(AssumptionCheck(label, True))
        else:
            checks.append(
                AssumptionCheck(
                    label,
                    False,
                    f"|q''| {'distance-weighted ' if weight is not None else ''}integral "
                    f"near s({side}) is {verdict.status}",
                )
            )

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
