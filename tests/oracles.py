"""Reference implementations read only by the test suite."""

import math
from typing import Callable

import numpy as np

from diffarb.arb_classifier import _GENERIC_WINDOWS, ConditionReport, _combine, _within
from diffarb.diffusion_model import SpecValidationError
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
    ExpIntegral,
    MeasureKitError,
    Piecewise,
    PowerSigned,
    Product,
    QuadratureError,
    Sum,
    Tabulated,
    _arr,
    _leggauss,
    close_rel,
    decide_L2_local,
    same_point,
)


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
