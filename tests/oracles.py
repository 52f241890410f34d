"""Reference implementations read only by the test suite."""

import dataclasses
import math
from typing import Callable, Sequence

import numpy as np

from diffarb.arb_classifier import ConditionReport, _combine, _within
from diffarb.diffusion_model import _GENERIC_WINDOWS, SpecValidationError
from diffarb.mc_engine import (
    StrategyPlan,
    build_chain,
    evaluate_diagnostic,
    evaluate_strategy,
    local_time_field,
    plan_diagnostic,
    plan_strategy,
    sample_paths,
    subseed,
)
from diffarb.measure_kit import (
    DEFAULT_QUAD,
    Affine,
    Compose,
    Const,
    DecomposedMeasure,
    ExpIntegral,
    Expr,
    MeasureKitError,
    Piecewise,
    PowerAbs,
    PowerSigned,
    Product,
    QuadratureError,
    SmoothPiece1D,
    Sum,
    Tabulated,
    _DIVERGENCE_RATIO,
    _LEVEL_CAP,
    _TAIL_FRACTION,
    _arr,
    _leggauss,
    _row_medians,
    adaptive_quad,
    close_rel,
    decide_L2_local,
    invert_monotone_vec,
    same_point,
    window_nodes,
)
from diffarb.model_catalog import CATALOG, build_model


def normal_cdf(x) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in arr])
    return out.reshape(np.shape(x)) if np.shape(x) else float(out[0])


def adaptive_quad_two_calls(f, a, b, rtol=1e-8, atol=1e-12, max_panels=2000) -> float:
    """Reference for ``measure_kit.adaptive_quad``: the same panels, each
    calling f twice, once on the 21 Gauss nodes and once on the 10."""
    if a == b:
        return 0.0
    sign = 1.0
    if a > b:
        a, b, sign = b, a, -1.0

    def panel(lo: float, hi: float):
        x21, w21 = _leggauss(21)
        x10, w10 = _leggauss(10)
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        v21 = _arr(f(mid + half * x21))
        v10 = _arr(f(mid + half * x10))
        if not (np.all(np.isfinite(v21)) and np.all(np.isfinite(v10))):
            return lo, hi, 0.0, math.inf
        i21 = float(half * np.dot(w21, v21))
        i10 = float(half * np.dot(w10, v10))
        return lo, hi, i21, abs(i21 - i10)

    panels = [panel(a, b)]
    while True:
        total = sum(p[2] for p in panels)
        err = sum(p[3] for p in panels)
        if err <= max(atol, rtol * abs(total)):
            return sign * total
        if len(panels) >= max_panels:
            raise QuadratureError(f"no convergence on [{a}, {b}] in {len(panels)} panels")
        worst = max(range(len(panels)), key=lambda i: panels[i][3])
        lo, hi, _, _ = panels.pop(worst)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            raise QuadratureError(f"float resolution near {lo}")
        panels.append(panel(lo, mid))
        panels.append(panel(mid, hi))


def ks_distance(samples: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Kolmogorov-Smirnov distance of an empirical sample to a given cdf."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    F = np.asarray(cdf(xs), dtype=float)
    upper = np.max(np.arange(1, n + 1) / n - F)
    lower = np.max(F - np.arange(0, n) / n)
    return float(max(upper, lower))


def cell_exit_statistics(chain, index: int, n: int, seed: int) -> dict[str, float]:
    """Empirical holding time and up-move frequency at one cell.

    Uses the same generator family as the path sampler; checks that the
    sampled exponential clock and Bernoulli jumps match the chain fields.
    """
    rng = np.random.Generator(np.random.Philox(key=subseed(seed, 999)))
    holds = rng.standard_exponential(n) * chain.mean_hold[index]
    ups = rng.random(n) < chain.up_prob[index]
    return {
        "mean_hold": float(np.mean(holds)),
        "se_hold": float(np.std(holds, ddof=1) / math.sqrt(n)),
        "up_frac": float(np.mean(ups)),
        "se_up": float(math.sqrt(chain.up_prob[index] * (1 - chain.up_prob[index]) / n)),
    }


def estimate_local_time_field(batch, chain) -> np.ndarray:
    """Mean local-time field of a sampled batch: occupation per path / cell
    mass. A discarded path is killed at the pad exit, as in
    ``exact_occupation``, so it counts in the denominator too."""
    return local_time_field(batch.occupation / max(batch.n_paths, 1), chain)


def dense_occupation(chain, T: float) -> np.ndarray:
    """Reference for ``exact_occupation``: the same killed occupation from a
    dense eigendecomposition of the symmetrized generator (O(N^3) time and
    O(N^2) memory, so only for small chains)."""
    occ = np.zeros(chain.n_states)
    live = np.flatnonzero(np.isfinite(chain.mean_hold))
    rate = 1.0 / chain.mean_hold[live]
    up = rate * chain.up_prob[live]
    down = rate - up
    # Q[i, i+1] d_i = Q[i+1, i] d_(i+1) makes D^(1/2) Q D^(-1/2) symmetric
    off = np.sqrt(up[:-1] * down[1:])
    lam, V = np.linalg.eigh(np.diag(-rate) + np.diag(off, 1) + np.diag(off, -1))
    with np.errstate(divide="ignore", invalid="ignore"):
        integral = np.where(lam == 0.0, T, np.expm1(lam * T) / lam)
    half_log_d = np.concatenate([[0.0], np.cumsum(0.5 * np.log(up[:-1] / down[1:]))])
    k = chain.start_index - live[0]
    occ[live] = np.exp(half_log_d - half_log_d[k]) * (V @ (integral * V[k]))
    return occ


def run_strategy(view, spec, strategy, chain=None, n_paths=10_000, seed=42, N=512, level=None, horizon=None):
    """Plan, sample on stream 7 and evaluate one strategy: a name, a name with
    a ``level`` for the post-hitting hold, or a per-state position table."""
    T = spec.horizon if horizon is None else float(horizon)
    if chain is None:
        chain = build_chain(view, spec, N=N, horizon=T)
    if not isinstance(strategy, str):
        plan = StrategyPlan("custom_table", table=np.asarray(strategy, float))
    elif level is not None:
        plan = StrategyPlan(f"post_hitting_hold@{float(level):g}", hit_level=chain.state_of(float(level)))
    else:
        plan = plan_strategy(view, chain, strategy)
    return evaluate_strategy(sample_paths(chain, n_paths, seed, T, stream=7, **plan.accumulators), plan)[0]


def martingale_diagnostic(
    view, spec, target, chain=None, n_paths=5000, seed=42, N=512, target_states=None, grid_in="natural", horizon=None
):
    """Plan, sample and evaluate one diagnostic (see ``plan_diagnostic``), on
    its own substream of ``seed``: 11 for 'U_minus_half_L', 13 otherwise."""
    T = spec.horizon if horizon is None else float(horizon)
    if chain is None:
        chain = build_chain(view, spec, N=N, grid_in=grid_in, horizon=T)
    plan = plan_diagnostic(view, chain, target, target_states)
    stream = 11 if target == "U_minus_half_L" else 13
    return evaluate_diagnostic(sample_paths(chain, n_paths, seed, T, stream=stream, **plan.accumulators), plan)


def check_nip_zero_rate(view, spec, cfg=DEFAULT_QUAD):
    """NIP at r = 0 by the zero-rate criterion: a reflecting boundary needs
    q'(s(b)) = 0, and q'' must have no singular part. Each zero is tested as
    ``check_nip`` tests it at r = 0; the two must agree."""
    if spec.r != 0.0:
        raise SpecValidationError("zero-rate NIP check called with r != 0")
    reports = []
    for side, beh in view.boundaries:
        if beh.kind == "reflecting":
            val = view.boundary_slope(side)
            ok = close_rel(0.0, 0.5 * val, cfg.eq_rel)
            note = f"{side} reflecting requires q'(s(b)) = 0 at zero rate"
            reports.append(ConditionReport("NIP.i.b", "pass" if ok else "fail", residual=val, note=note))
    lo_u, hi_u = view.sJ
    si_atoms = [p for p, m in view.qpp.interior_atoms(lo_u, hi_u) if not _within(0.5 * m, 0.5 * abs(m), cfg)]
    q_sc = view.qpp.sc
    sc_zero = q_sc is None
    if q_sc is not None:
        base = view.mU.sc or q_sc
        us = np.linspace(base.support[0], base.support[1], 514)[1:-1]
        half = float(np.max(np.abs(0.5 * np.asarray(q_sc.multiplier(us), float))))
        sc_zero = _within(half, half, cfg)
    clean = not si_atoms and sc_zero
    note = "q'' must be absolutely continuous at zero rate" + ("" if clean else f" (atoms at {si_atoms})")
    reports.append(ConditionReport("NIP.ii", "pass" if clean else "fail", note=note))
    return _combine([c.status for c in reports]), reports


def sc_mass(m, a: float, b: float) -> float:
    """Mass of [a, b] under the singular-continuous part of the measure m:
    its multiplier at cell midpoints against the base cdf increments of a
    1,025-point grid."""
    if m.sc is None:
        return 0.0
    lo = max(a, m.sc.support[0])
    hi = min(b, m.sc.support[1])
    if hi <= lo:
        return 0.0
    grid = np.linspace(lo, hi, 1025)
    cdf = _arr(m.sc.base_cdf(grid))
    mids = 0.5 * (grid[:-1] + grid[1:])
    mult = _arr(m.sc.multiplier(mids))
    return float(np.dot(mult, np.diff(cdf)))


def measure_mass(m, a: float, b: float) -> float:
    """Mass of [a, b] under the ``DecomposedMeasure`` m; infinite atoms
    propagate to inf.

    The AC integral is split at declared density breakpoints and atom
    locations, where the density is allowed to jump, and each part is
    integrated at the ``adaptive_quad`` defaults.
    """
    total = 0.0
    if m.ac_density is not None:
        cuts = sorted(
            {a, b}
            | {p for p in m.ac_breakpoints if a < p < b}
            | {p for p, _ in m.atoms if a < p < b}
        )
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            total += adaptive_quad(m.ac_density, lo, hi)
    for p, mass in m.atoms:
        if a <= p <= b:
            if math.isinf(mass):
                return math.inf
            total += mass
    total += sc_mass(m, a, b)
    return total


def catalog_speed_natural(name: str, params=None) -> DecomposedMeasure:
    """The natural-scale speed mU = m o s^-1 of the catalog entry ``name``
    in closed form, as its builder once declared it: Lebesgue for the affine
    and cubed entries, with sticky_reflected_bm's atom rho at 1; for the
    squared Bessel entries c_u |u|^(p-2), c_u = 1/(4 nu^2), p = 2/(2 - delta),
    nu = delta/2 - 1, with the origin's atom m0; for sticky_skew kappa**-2
    below the kink image 0 and (1 - kappa)**-2 from it on, with the atom c
    at 0. fat_cantor has none: its q' vanishes on a set of positive measure."""
    p = CATALOG[name].check_params(params)
    if name in ("squared_bessel", "gen_squared_bessel"):
        delta = p["delta"] if name == "squared_bessel" else 2.0 * (1.0 + p["nu"])
        m0 = p.get("m0", 0.0)
        nu, power = delta / 2.0 - 1.0, 1.0 / (1.0 - delta / 2.0)
        c_u = 1.0 / (4.0 * nu * nu)

        def bessel(u):
            with np.errstate(divide="ignore"):
                return c_u * np.abs(np.asarray(u, float)) ** (power - 2.0)

        return DecomposedMeasure((0.0, math.inf), bessel, ((0.0, float(m0)),) if m0 > 0 else ())
    if name == "sticky_skew":
        k = p["kappa"]
        skew = Piecewise([0.0], [Const(k**-2.0), Const((1.0 - k) ** -2.0)])
        return DecomposedMeasure((-math.inf, math.inf), skew, ((0.0, float(p["c"])),), ac_breakpoints=(0.0,))
    if name == "sticky_reflected_bm":
        return DecomposedMeasure((1.0, math.inf), Const(1.0), ((1.0, float(p["rho"])),) if p["rho"] > 0 else ())
    if name in ("brownian_motion", "cubed_bm"):
        return DecomposedMeasure((-math.inf, math.inf), Const(1.0))
    raise KeyError(f"no closed-form natural-scale speed for {name!r}")


def build_with_speed_natural(name: str, params=None):
    """``build_model(name, params)`` with ``catalog_speed_natural`` declared."""
    spec = build_model(name, params)
    return dataclasses.replace(spec, speed_natural=catalog_speed_natural(name, params))


def inverse_piece_with_root_record(scale: SmoothPiece1D, sJ: tuple[float, float]) -> SmoothPiece1D:
    """Reference for ``diffusion_model.inverse_piece`` and for the state
    chart of ``NaturalScaleView``: the inverse q = s^{-1} read through one
    ``jet`` over a root record.

    The record serves the last array inverted: its roots x and, from the
    first slope asked for on, s'_+(x) and s''(x), read from one order-2
    ``scale.jet`` call. At order 0 the jet returns the roots alone; q'_+ =
    1/s'_+(q) and q'' = -s''(q) / s'_+(q)^3 (a.e.) read the record, and at
    side -1 it computes q'_- = 1/s'_-(q) when asked. Kinks of s map to kinks
    of q and flat points of s to infinite-slope points of q.
    """
    rec = [None, None, None, None]  # (shape, bytes) of the last array, its roots, s'_+ and s'' there

    def record(u, slopes: bool):
        u = np.asarray(u, float)
        key = (u.shape, u.tobytes())
        if key != rec[0]:
            rec[:] = key, invert_monotone_vec(scale, u), None, None
        if slopes and rec[2] is None:
            rec[2:] = (np.asarray(v, float) for v in scale.jet(rec[1], order=2)[1:])
        return rec[1:]

    def jet(u, side=1, order=1):
        x, d, dd = record(u, order and side > 0)
        if order and side < 0:  # the record holds the right slopes: the left ones at q, when asked
            left = scale.jet(x, -1, order)
            d, dd = left[1], left[-1]
        out = (x.copy(),)
        if order:  # q' = 1/s', and +inf where s' <= 0
            d = np.asarray(d, float)
            with np.errstate(divide="ignore"):
                out += (np.where(d > 0, 1.0 / d, np.inf),)
        if order > 1:  # q'' = -s''/s'^3 where finite, else 0
            with np.errstate(divide="ignore", invalid="ignore"):
                c = -np.asarray(dd, float) / d**3
            out += (np.where(np.isfinite(c), c, 0.0),)
        return out

    kinks = []
    for c, _ in scale.kinks:
        u, dp = map(float, scale.jet(np.asarray(c)))
        dm = float(scale.d_minus(np.asarray(c)))
        if dp > 0 and dm > 0:
            kinks.append((u, 1.0 / dp - 1.0 / dm))
    inf_slope = tuple(float(scale.value(np.asarray(c))) for c in scale.zero_slope)
    return SmoothPiece1D(domain=sJ, jet=jet, kinks=tuple(kinks), infinite_slope=inf_slope)


def fat_cantor_dist_by_component(components, z) -> np.ndarray:
    """Reference for ``model_catalog._FlatSpotInverseScale._dist``: the
    distance from z to the union of closed ``components``, one component at
    a time (0 inside, else the nearest of all ends)."""
    z = np.asarray(z, float)
    out = np.full_like(z, np.inf)
    for a, b in components:
        inside = (z >= a) & (z <= b)
        d = np.minimum(np.abs(z - a), np.abs(z - b))
        out = np.where(inside, 0.0, np.minimum(out, d))
    return out


def invert_monotone_vec_one_phase(f, ys) -> np.ndarray:
    """Reference for ``measure_kit.invert_monotone_vec``: the one-phase
    safeguarded loop it replaced. Solve f(x) = y for strictly increasing f,
    elementwise: the left edge of {f >= y} to float resolution, a node
    exactly. Each target runs safeguarded Newton from a cubic Hermite guess
    in its cell of ``f.node_table``, f(a) < y <= f(b); if f(x -+ 8 ulp) does
    not bracket y at the Newton point (a float-noise band near a zero of
    f'), it bisects and polishes the midpoint by three guarded Newton steps.
    A target beyond the table maps to its end."""
    y = np.atleast_1d(_arr(ys)).ravel()
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
        # a few live points step alone; more step with all, through views, so that temporaries keep one size
        idx = live if live.size < 64 else slice(None)
        on, xl, yl, nl = act[idx], x[idx], y[idx], newton[idx]
        g = _arr(f.value(xl)) - yl
        al = np.where(on & (g < 0), xl, a[idx])
        bl = np.where(on & ~(g < 0), xl, b[idx])
        a[idx], b[idx] = al, bl
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = np.where(g == 0, xl, xl - g / np.where(nl, _arr(f.d_plus(xl)), np.nan))
        ok = (xn > al) & (xn < bl)
        w = 8 * np.spacing(np.maximum(np.abs(xl), 0.5))  # 8 ulp, and no finer than at 1/2
        pinned = on & nl & (np.abs(xn - xl) <= w)
        xl = np.where(on, np.where(pinned | ok, xn, 0.5 * (al + bl)), xl)
        x[idx] = xl
        done = on & (bl - al <= 4 * np.finfo(float).eps * np.maximum(1.0, np.abs(bl)))
        if pinned.any():
            fv = _arr(f.value(np.concatenate((xl - w, xl + w))))
            good = pinned & (fv[: xl.size] < yl) & (fv[xl.size :] >= yl)
            a[idx], b[idx] = np.where(good, xl - w, al), np.where(good, xl + w, bl)
            newton[idx] = nl & ~(pinned & ~good)
            done = np.where(pinned, good, done)
        act[idx] &= ~done
    # a Newton point stands; a bisected point is its bracket's midpoint, polished
    x = np.where(newton & (a < b), x, 0.5 * (a + b))
    bis = np.flatnonzero(~newton)
    for _ in range(3 if bis.size else 0):
        d = _arr(f.d_plus(x[bis]))
        ok = np.isfinite(d) & (d >= 1e-6)
        step = np.where(ok, (_arr(f.value(x[bis])) - y[bis]) / np.where(ok, d, 1.0), 0.0)
        x[bis] = np.clip(x[bis] - step, a[bis], b[bis])
    return x.reshape(np.shape(ys))


@dataclasses.dataclass(frozen=True)
class NoInverse(Expr):
    """``e`` with no closed-form inverse: the same jet, breakpoints and
    infinite-slope points."""

    e: Expr

    def jet(self, x, side=1, order=1):
        return self.e.jet(x, side, order)

    def children(self):
        return (self.e,)


def newton_path(f: SmoothPiece1D) -> SmoothPiece1D:
    """``f`` with its expression read through ``NoInverse``: the same jet
    and node table, so ``invert_monotone_vec`` takes the Newton phases at
    every target."""
    return f if f.expr is None else dataclasses.replace(f, expr=NoInverse(f.expr))


def _cubic_root(e: Sum, y: float):
    """``closed_form_root`` of a sum a*x + b + k*sign(x - c)|x - c|^3 (a >= 0,
    k > 0, its affine and constant terms folded in order): Cardano's root of
    t^3 + (a/k) t + (a c + b - y)/k = 0 in hyperbolic form, or the cube root
    when a = 0, then one Newton step on the sum's jet. The transcendental
    functions read numpy on one-element arrays; the rest is Python floats."""
    a = b = 0.0
    rest = []
    for t in e.terms:
        if isinstance(t, Affine):
            a, b = a + t.a, b + t.b
        elif isinstance(t, Const):
            b = b + t.c
        else:
            rest.append(t)
    if len(rest) != 1 or not isinstance(rest[0], Product) or len(rest[0].factors) != 2 or not a >= 0:
        return None
    k = [f.c for f in rest[0].factors if isinstance(f, Const)]
    c = [f.center for f in rest[0].factors if isinstance(f, PowerSigned) and f.p == 3.0]
    if not (k and c and k[0] > 0):
        return None
    k, c = k[0], c[0]
    q = (a * c + b - y) / k
    one = lambda fn, v: float(fn(np.array([v]))[0])  # noqa: E731
    if a > 0:
        p = a / k
        r = math.sqrt(p / 3.0)
        x = c - 2.0 * r * one(np.sinh, one(np.arcsinh, 1.5 * q / (p * r)) / 3.0)
    else:
        x = c - one(np.cbrt, q)
    fx, d = (float(v[0]) for v in e.jet(np.array([x])))
    return x - (fx - y) / d if d > 0 else x


def closed_form_root(e, y: float):
    """Reference for ``Expr.inverse``, one target y (not NaN) at a time: the
    root of e(x) = y, or None where ``e`` has no closed form. A piecewise
    node finds its piece by comparing y with each breakpoint image in turn."""
    if isinstance(e, Affine):
        return (y - e.b) / e.a if e.a > 0 else None
    if isinstance(e, Sum):
        return _cubic_root(e, y)
    if isinstance(e, Piecewise):
        images = [float(p.value(np.asarray(c))) for p, c in zip(e.pieces[1:], e.points)]
        if any(b <= a for a, b in zip(images, images[1:])):
            return None
        if y in images:
            return e.points[images.index(y)]
        return closed_form_root(e.pieces[sum(v < y for v in images)], y)
    return None


def invert_closed_form(f: SmoothPiece1D, ys) -> np.ndarray:
    """Reference for ``invert_monotone_vec`` on a piece whose expression has
    a closed-form inverse, one target at a time: NaN for NaN; for a target
    f(c), c a kink, the kink c where f(c - w) < f(c) <= f(c + w);
    the ``closed_form_root`` x where it lies inside the domain and
    f(x - w) < y <= f(x + w); elsewhere the root the Newton phases give
    (``newton_path``); w is 8 ulp of max(|x|, 1/2)."""
    y = np.asarray(ys, float)
    out, lo, hi, rest = np.full_like(y, np.nan), *f.domain, []
    at = lambda c: float(f.value(np.array([c]))[0])  # noqa: E731
    ulp8 = lambda x: 8 * np.spacing(max(abs(x), 0.5))  # noqa: E731
    edges = {at(c): c for c, _ in f.kinks if at(c - ulp8(c)) < at(c) <= at(c + ulp8(c))}
    with np.errstate(all="ignore"):
        for i, v in enumerate(y.tolist()):
            if v in edges:
                out[i] = edges[v]
                continue
            x = None if math.isnan(v) else closed_form_root(f.expr, v)
            if x is None:
                rest += [] if math.isnan(v) else [i]
                continue
            w = 8 * np.spacing(max(abs(x), 0.5))
            if lo < x < hi and float(f.value(np.array([x - w]))[0]) < v <= float(f.value(np.array([x + w]))[0]):
                out[i] = x
            else:
                rest.append(i)
    if rest:
        out[rest] = invert_monotone_vec(newton_path(f), y[rest])
    return out


def outward_two_calls(lo, hi, ulps: int = 1) -> tuple:
    """Reference for ``measure_kit._outward``: lo and hi rounded apart, one
    ``np.nextafter`` call each per ulp."""
    for _ in range(ulps):
        lo, hi = np.where(lo == 0.0, lo, np.nextafter(lo, -np.inf)), np.where(hi == 0.0, hi, np.nextafter(hi, np.inf))
    return np.where(np.isnan(lo), -np.inf, lo), np.where(np.isnan(hi), np.inf, hi)


def detect_suspicious_one_window(g_nodes, a: float, b: float, known) -> list[float]:
    """Reference for ``measure_kit._detect_suspicious``, one window alone:
    the nodes of ``window_nodes(a, b)`` where g, given there, is not finite
    or exceeds 1e6 times its median, at most one per 1/64 of (a, b)."""
    vals = np.abs(g_nodes)
    finite = vals[np.isfinite(vals)]
    if finite.size == 0:
        return []
    scale = float(np.median(finite)) + 1e-300
    flag = (~np.isfinite(vals)) | (vals > 1e6 * scale)
    pts: list[float] = []
    for x in np.linspace(a, b, 1025)[1:-1][flag]:
        if all(abs(x - p) > (b - a) / 64 for p in list(known) + pts):
            pts.append(float(x))
    return pts


def detect_suspicious_every_median(
    g_rows: np.ndarray, windows: Sequence[tuple[float, float]], known: Sequence[Sequence[float]]
) -> list[list[float]]:
    """Reference for ``measure_kit._detect_suspicious``: every row with a
    finite value takes its median and is flagged, however narrow its range."""
    vals = np.abs(g_rows)
    ok = np.isfinite(vals)
    clean, some = ok.all(axis=1), ok.any(axis=1)
    scale = np.zeros(len(vals))
    scale[clean] = _row_medians(vals[clean])
    for i in np.flatnonzero(~clean & some):
        scale[i] = np.median(vals[i][ok[i]])
    flag = (~ok | (vals > 1e6 * (scale + 1e-300)[:, None])) & some[:, None]
    found: list[list[float]] = [[] for _ in windows]
    for i in np.flatnonzero(flag.any(axis=1)):
        (a, b), pts = windows[i], found[i]
        for x in window_nodes(a, b)[flag[i]]:
            if all(abs(x - p) > (b - a) / 64 for p in list(known[i]) + pts):
                pts.append(float(x))
    return found


def phi_l2_interior_by_window(view, spec) -> ConditionReport:
    """Reference for ``arb_classifier._phi_l2_interior``: the same windows,
    each evaluating phi itself, one window after another."""
    lo_u, hi_u = view.sJ
    behaviors = [
        b for b in spec.phi_behaviors
        if lo_u < b.point < hi_u and not (same_point(b.point, lo_u) or same_point(b.point, hi_u))
    ]
    statuses: list[str] = []
    worst_note = ""

    for beh in behaviors:
        gap = min(1.0, 0.5 * min(beh.point - lo_u, hi_u - beh.point))
        window = (beh.point - gap, beh.point + gap)
        window = (max(window[0], lo_u + 1e-12), min(window[1], hi_u - 1e-12))
        v = decide_L2_local(view.phi, window, behaviors=[beh], auto_detect=False)
        statuses.append(v.status)
        if v.status != "finite":
            worst_note = f"phi**2 {v.status} near interior point {beh.point}"
            break

    if "divergent" not in statuses:
        lo_c = view.collar("left", 0.5)[1] if math.isfinite(lo_u) else view.s_x0 - 8.0
        hi_c = view.collar("right", 0.5)[0] if math.isfinite(hi_u) else view.s_x0 + 8.0
        lo_c = min(lo_c, max(view.s_x0 - 0.5, 0.5 * (lo_u + view.s_x0)))
        hi_c = max(hi_c, min(view.s_x0 + 0.5, 0.5 * (hi_u + view.s_x0)))
        edges = np.linspace(lo_c, hi_c, _GENERIC_WINDOWS + 1)
        for a, b in zip(edges[:-1], edges[1:]):
            local = [bb for bb in behaviors if a <= bb.point <= b]
            v = decide_L2_local(view.phi, (float(a), float(b)), behaviors=local)
            statuses.append(v.status)
            if v.status == "divergent":
                worst_note = f"phi**2 divergent on generic window [{a:.4g}, {b:.4g}]"
                break
            if v.status == "inconclusive" and not worst_note:
                worst_note = f"phi**2 inconclusive on window [{a:.4g}, {b:.4g}]"

    status = (
        "fail"
        if "divergent" in statuses
        else ("inconclusive" if "inconclusive" in statuses else "pass")
    )
    return ConditionReport("NSA.iv.loc", status, note=worst_note or "local square integrability of phi")


def expr_to_json(e) -> dict:
    """Serialize an expression to the structured-text form ``expr_from_json`` reads."""
    if isinstance(e, Const):
        return {"node": "const", "c": e.c}
    if isinstance(e, Affine):
        return {"node": "affine", "a": e.a, "b": e.b}
    if isinstance(e, PowerSigned):
        return {"node": "power_signed", "center": e.center, "p": e.p}
    if isinstance(e, PowerAbs):
        return {"node": "power_abs", "center": e.center, "p": e.p}
    if isinstance(e, ExpIntegral):
        return {"node": "exp_integral", "mu": expr_to_json(e.mu), "anchor": e.anchor, "inner_anchor": e.inner_anchor}
    if isinstance(e, Sum):
        return {"node": "sum", "terms": [expr_to_json(t) for t in e.terms]}
    if isinstance(e, Product):
        return {"node": "product", "factors": [expr_to_json(t) for t in e.factors]}
    if isinstance(e, Compose):
        return {"node": "compose", "outer": expr_to_json(e.outer), "inner": expr_to_json(e.inner)}
    if isinstance(e, Piecewise):
        return {"node": "piecewise", "breakpoints": list(e.points), "pieces": [expr_to_json(p) for p in e.pieces]}
    if isinstance(e, Tabulated):
        return {"node": "tabulated", "samples": [[x, y] for x, y in zip(e.xs, e.ys)]}
    raise MeasureKitError(f"cannot serialize expression of type {type(e).__name__}")


# ---------------------------------------------------------------------------
# The expression grammar's value / deriv / deriv2, one walk of the tree per
# output, as they stood before ``Expr.jet``; every sub-expression is read
# through these functions, so a whole tree is evaluated the old way.
# ---------------------------------------------------------------------------


def expr_value(e, x):
    """Reference for ``Expr.value``."""
    if isinstance(e, Const):
        x = _arr(x)
        return np.full_like(x, e.c)
    if isinstance(e, Affine):
        return e.a * _arr(x) + e.b
    if isinstance(e, PowerSigned):
        u = _arr(x) - e.center
        return np.sign(u) * np.abs(u) ** e.p
    if isinstance(e, PowerAbs):
        with np.errstate(divide="ignore"):
            return np.abs(_arr(x) - e.center) ** e.p
    if isinstance(e, ExpIntegral):
        xs = _arr(x)
        flat = np.atleast_1d(xs).ravel()
        order = np.argsort(flat)
        vals = np.empty_like(flat)
        acc = 0.0
        prev = e.anchor
        for idx in order:
            xi = float(flat[idx])
            acc += adaptive_quad(lambda y: _exp_integral_growth(e, y), prev, xi, rtol=1e-10, atol=1e-14)
            vals[idx] = acc
            prev = xi
        return vals.reshape(np.shape(xs)) if np.shape(xs) else vals[0]
    if isinstance(e, Sum):
        x = _arr(x)
        out = np.zeros_like(x)
        for t in e.terms:
            out = out + expr_value(t, x)
        return out
    if isinstance(e, Product):
        x = _arr(x)
        out = np.ones_like(x)
        for t in e.factors:
            out = out * expr_value(t, x)
        return out
    if isinstance(e, Compose):
        return expr_value(e.outer, expr_value(e.inner, _arr(x)))
    if isinstance(e, Piecewise):
        return _piecewise_apply(e, x, "value", 1)
    if isinstance(e, Tabulated):
        x = _arr(x)
        xs = np.asarray(e.xs)
        ys = np.asarray(e.ys)
        out = np.interp(x, xs, ys)
        s = np.diff(ys) / np.diff(xs)
        lo = x < xs[0]
        hi = x > xs[-1]
        out = np.where(lo, ys[0] + s[0] * (x - xs[0]), out)
        out = np.where(hi, ys[-1] + s[-1] * (x - xs[-1]), out)
        return out
    raise TypeError(type(e).__name__)


def expr_deriv(e, x, side=1):
    """Reference for ``Expr.deriv``."""
    if isinstance(e, Const):
        return np.zeros_like(_arr(x))
    if isinstance(e, Affine):
        return np.full_like(_arr(x), e.a)
    if isinstance(e, PowerSigned):
        u = np.abs(_arr(x) - e.center)
        with np.errstate(divide="ignore"):
            out = e.p * u ** (e.p - 1.0)
        if e.p == 1.0:
            out = np.where(u == 0.0, 1.0, out)
        elif e.p > 1.0:
            out = np.where(u == 0.0, 0.0, out)
        else:
            out = np.where(u == 0.0, np.inf, out)
        return out
    if isinstance(e, PowerAbs):
        # the slope of |u|^p, one-sided at u = 0: side * lim p |u|^(p-1)
        u = _arr(x) - e.center
        with np.errstate(divide="ignore", invalid="ignore"):
            out = e.p * np.sign(u) * np.abs(u) ** (e.p - 1.0)
        if e.p == 0.0 or e.p > 1.0:
            at_zero = 0.0
        elif e.p == 1.0:
            at_zero = float(side)
        else:
            at_zero = side * (np.inf if e.p > 0.0 else -np.inf)
        return np.where(u == 0.0, at_zero, out)
    if isinstance(e, ExpIntegral):
        xs = _arr(x)
        flat = np.atleast_1d(xs).ravel()
        out = np.array([_exp_integral_growth(e, float(v)) for v in flat])
        return out.reshape(np.shape(xs)) if np.shape(xs) else out[0]
    if isinstance(e, Sum):
        x = _arr(x)
        out = np.zeros_like(x)
        for t in e.terms:
            out = out + expr_deriv(t, x, side)
        return out
    if isinstance(e, Product):
        x = _arr(x)
        vals = [expr_value(t, x) for t in e.factors]
        out = np.zeros_like(x)
        for i, t in enumerate(e.factors):
            part = expr_deriv(t, x, side)
            for j, v in enumerate(vals):
                if j != i:
                    part = part * v
            out = out + part
        return out
    if isinstance(e, Compose):
        x = _arr(x)
        di = expr_deriv(e.inner, x, side)
        oside = np.where(di >= 0, side, -side)
        u = expr_value(e.inner, x)
        do_r = expr_deriv(e.outer, u, 1)
        do_l = expr_deriv(e.outer, u, -1)
        do = np.where(oside > 0, do_r, do_l)
        return do * di
    if isinstance(e, Piecewise):
        return _piecewise_apply(e, x, "deriv", side)
    if isinstance(e, Tabulated):
        x = _arr(x)
        xs = np.asarray(e.xs)
        s = np.diff(np.asarray(e.ys)) / np.diff(xs)
        idx = np.searchsorted(xs, np.atleast_1d(x), side="right" if side > 0 else "left") - 1
        idx = np.clip(idx, 0, len(s) - 1)
        out = s[idx]
        return out.reshape(np.shape(x)) if np.shape(x) else float(out[0])
    raise TypeError(type(e).__name__)


def expr_deriv2(e, x, side=1):
    """Reference for ``Expr.deriv2``."""
    if isinstance(e, (Const, Affine, Tabulated)):
        return np.zeros_like(_arr(x))
    if isinstance(e, PowerSigned):
        u = _arr(x) - e.center
        au = np.abs(u)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = e.p * (e.p - 1.0) * np.sign(u) * au ** (e.p - 2.0)
        return np.where(au == 0.0, 0.0, out)
    if isinstance(e, PowerAbs):
        au = np.abs(_arr(x) - e.center)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = e.p * (e.p - 1.0) * au ** (e.p - 2.0)
        return np.where(au == 0.0, 0.0, out)
    if isinstance(e, ExpIntegral):
        return expr_value(e.mu, _arr(x)) * expr_deriv(e, x, side)
    if isinstance(e, Sum):
        x = _arr(x)
        out = np.zeros_like(x)
        for t in e.terms:
            out = out + expr_deriv2(t, x, side)
        return out
    if isinstance(e, Product):
        x = _arr(x)
        vals = [expr_value(t, x) for t in e.factors]
        ders = [expr_deriv(t, x, side) for t in e.factors]
        out = np.zeros_like(x)
        n = len(e.factors)
        for i in range(n):
            part = expr_deriv2(e.factors[i], x, side)
            for j in range(n):
                if j != i:
                    part = part * vals[j]
            out = out + part
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                part = ders[i] * ders[j]
                for k in range(n):
                    if k != i and k != j:
                        part = part * vals[k]
                out = out + part
        return out
    if isinstance(e, Compose):
        x = _arr(x)
        u = expr_value(e.inner, x)
        di = expr_deriv(e.inner, x, side)
        return expr_deriv2(e.outer, u, side) * di * di + expr_deriv(e.outer, u, side) * expr_deriv2(e.inner, x, side)
    if isinstance(e, Piecewise):
        return _piecewise_apply(e, x, "deriv2", side)
    raise TypeError(type(e).__name__)


def generic_jet(e, x, side=1, order=1):
    """Reference for ``Expr.jet``: ``sum``, ``product`` and ``piecewise``
    nodes by their generic walks as they stood before the folded constants,
    the accumulation from the first term and the affine gather, each child
    read through this function; every other node by its own jet."""
    if isinstance(e, Sum):
        x = _arr(x)
        out = [np.zeros_like(x) for _ in range(order + 1)]
        for t in e.terms:
            out = [o + v for o, v in zip(out, generic_jet(t, x, side, order))]
        return tuple(out)
    if isinstance(e, Product):
        x = _arr(x)
        jets = [generic_jet(t, x, side, order) for t in e.factors]
        vals, n = [j[0] for j in jets], len(jets)

        def times_others(part, *skip):
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
            for i in range(n):
                for j in range(n):
                    if i != j:
                        d2 = d2 + times_others(jets[i][1] * jets[j][1], i, j)
            out.append(d2)
        return tuple(out)
    if isinstance(e, Piecewise):
        x = _arr(x)
        flat = np.atleast_1d(x).ravel()
        pts = np.asarray(e.points)
        at = pts.searchsorted(flat, "right")
        dat = pts.searchsorted(flat, "left") if order and side < 0 else at
        parts = [(at, 0, order)] if dat is at or np.array_equal(at, dat) else [(at, 0, 0), (dat, 1, order)]
        outs = [None] * (order + 1)
        for idx, first, last in parts:
            if flat.size == 1 or (flat.size and idx.min() == idx.max()):
                outs[first : last + 1] = generic_jet(e.pieces[idx[0]], flat, side, last)[first:]
                continue
            outs[first : last + 1] = (np.empty_like(flat) for _ in range(first, last + 1))
            perm = np.argsort(idx, kind="stable")
            cuts = np.searchsorted(idx[perm], np.arange(len(e.pieces) + 1)).tolist()
            for piece, a, b in zip(e.pieces, cuts, cuts[1:]):
                if a < b:
                    sel = perm[a:b]
                    got = generic_jet(piece, flat[sel], side, last)
                    for k in range(first, last + 1):
                        outs[k][sel] = got[k]
        return tuple(o.reshape(np.shape(x)) if np.shape(x) else o[0] for o in outs)
    return e.jet(x, side, order)


def flat_spot_segment(core, x, side=1):
    """``model_catalog._FlatSpotInverseScale._segment`` before the one jet."""
    k = np.searchsorted(core.t, x, side="right" if side > 0 else "left") - 1
    return np.clip(k, 0, len(core.t) - 2)


def flat_spot_q_raw(core, x):
    """``_FlatSpotInverseScale._q_raw`` before the one jet."""
    x = np.asarray(x, float)
    k = flat_spot_segment(core, x)
    h = x - core.t[k]
    return core.Q[k] + core.d_at[k] * h + 0.5 * core.slope[k] * h * h


def flat_spot_q_value(core, x):
    """``_FlatSpotInverseScale.q_value`` before the one jet."""
    x = np.asarray(x, float)
    return flat_spot_q_raw(core, x) + core.tilt * x


def flat_spot_q_deriv(core, x):
    """``_FlatSpotInverseScale.q_deriv`` before the one jet."""
    x = np.asarray(x, float)
    return core._dist(x) + core.tilt


def flat_spot_q_deriv2(core, x, side=1):
    """``_FlatSpotInverseScale.q_deriv2`` before the one jet."""
    x = np.asarray(x, float)
    return core.slope[flat_spot_segment(core, x, side)]


def _jet_by_handle(value, deriv, deriv2):
    """A jet that calls value(x), deriv(x, side) and deriv2(x, side) apart,
    as many as its order asks for."""

    def jet(x, side=1, order=1):
        return (value(x), *(d(x, side) for d in (deriv, deriv2)[:order]))

    return jet


def piece_with_one_call_per_handle(f, source=None):
    """``f`` read one output at a time, as before the one jet: through the
    reference expression walks above for a piece built from an expression,
    through the flat-spot handles for ``fat_cantor``'s q, for its
    closed-form scale as the roots with 1/q'(u) and -q''(u)/q'(u)^3 there
    read through those handles, and for the inverse of ``source`` (itself
    read so) as the roots with 1/s'(x) and -s''(x)/s'(x)^3 there, each slope
    read apart on the jet's side."""
    if source is not None:
        s = piece_with_one_call_per_handle(source)

        def jet(u, side=1, order=1):
            x = invert_monotone_vec(s, _arr(u))
            with np.errstate(all="ignore"):
                d = _arr(s.d_plus(x) if side > 0 else s.d_minus(x))
                c = -_arr(s.jet(x, side, 2)[2]) / d**3
            return (x, np.where(d > 0, 1.0 / d, np.inf), np.where(np.isfinite(c), c, 0.0))[: order + 1]

        return SmoothPiece1D(domain=f.domain, jet=jet, kinks=f.kinks, infinite_slope=f.infinite_slope)
    if f.expr is not None:
        e = f.expr
        return dataclasses.replace(f, jet=_jet_by_handle(
            lambda x: expr_value(e, x), lambda x, side: expr_deriv(e, x, side), lambda x, side: expr_deriv2(e, x, side),
        ))
    if not hasattr(f, "core"):  # fat_cantor's scale: a plain piece over core.inverse_jet
        core = f.jet.__self__

        def jet(x, side=1, order=1):
            u = core.inverse_jet(x, side, 0)[0]
            with np.errstate(all="ignore"):
                d = flat_spot_q_deriv(core, u)
                return (u, 1.0 / d, -flat_spot_q_deriv2(core, u, side) / d**3)[: order + 1]

        return SmoothPiece1D(domain=f.domain, jet=jet)
    core = f.core  # fat_cantor's q: a plain piece, whose q'' reads the jet
    return SmoothPiece1D(domain=f.domain, jet=_jet_by_handle(
        lambda x: flat_spot_q_value(core, x), lambda x, side: flat_spot_q_deriv(core, x),
        lambda x, side: flat_spot_q_deriv2(core, x, side),
    ))


def _exp_integral_growth(e, y):
    ys = _arr(y)
    flat = np.atleast_1d(ys).ravel()
    inner = e.anchor if e.inner_anchor is None else e.inner_anchor
    with np.errstate(over="ignore"):
        out = np.exp([
            adaptive_quad(lambda z: expr_value(e.mu, z), inner, float(v), rtol=1e-10, atol=1e-14) for v in flat
        ])
    return out.reshape(np.shape(ys)) if np.shape(ys) else out[0]


def _piecewise_apply(e, x, fn, side):
    x = _arr(x)
    pts = np.asarray(e.points)
    idx = np.searchsorted(pts, np.atleast_1d(x), side="right" if side > 0 else "left")
    out = np.empty_like(np.atleast_1d(x))
    read = {"value": lambda p, v: expr_value(p, v), "deriv": lambda p, v: expr_deriv(p, v, side),
            "deriv2": lambda p, v: expr_deriv2(p, v, side)}[fn]
    for i, piece in enumerate(e.pieces):
        mask = idx == i
        if np.any(mask):
            out[mask] = read(piece, np.atleast_1d(x)[mask])
    return out.reshape(np.shape(x)) if np.shape(x) else out[0]


def gl_fixed_one_panel(f, a: float, b: float, n: int = 21) -> float:
    """Reference for ``measure_kit.gl_fixed``: a fixed n-point Gauss-Legendre panel."""
    if a == b:
        return 0.0
    x, w = _leggauss(n)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = _arr(f(mid + half * x))
    return float(half * np.dot(w, vals))


def dyadic_probe_level_by_level(g, point, direction, width, context_total):
    """Reference for ``measure_kit._dyadic_probe``: one call of g per level,
    one panel each, up to the deciding level."""
    vals: list[float] = []
    total = abs(context_total)
    floor = 1e-13 * (1.0 + abs(point))
    for k in range(1, _LEVEL_CAP + 1):
        outer = width * 2.0 ** (1 - k)
        inner = width * 2.0 ** (-k)
        if inner < floor:
            return "inconclusive", vals
        if direction > 0:
            a, b = point + inner, point + outer
        else:
            a, b = point - outer, point - inner
        val = gl_fixed_one_panel(g, a, b, 21)
        if not math.isfinite(val):
            return "divergent", vals + [val]
        vals.append(val)
        total += abs(val)
        if k >= 4:
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
