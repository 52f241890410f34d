"""Unit and property tests for the expression grammar and measure calculus."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffarb.arb_classifier import classify
from diffarb.diffusion_model import inverse_piece, load_model_spec
from diffarb.measure_kit import (
    DEFAULT_QUAD,
    Affine,
    Compose,
    Const,
    DecomposedMeasure,
    ExpIntegral,
    KinkMismatchError,
    LocalBehavior,
    MeasureKitError,
    Piecewise,
    PowerSigned,
    Product,
    QuadratureError,
    SmoothPiece1D,
    Sum,
    Tabulated,
    _detect_suspicious,
    adaptive_quad,
    decide_L2_local,
    decide_weighted_L2_boundary,
    expr_from_json,
    invert_monotone_vec,
    measure_from_json,
    pushforward,
    sampled_total_variation,
    second_derivative_decomposition,
    window_nodes,
)
from diffarb.model_catalog import build_model

from fuzz_models import random_spec
from oracles import adaptive_quad_two_calls, detect_suspicious_one_window, expr_to_json

RT = np.inf


def piece(expr, domain=(-RT, RT)):
    return SmoothPiece1D.from_expr(expr, domain)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_affine_identity():
    assert float(Affine(1, 0)(2.0)) == 2.0


def test_eval_power_signed_odd():
    assert float(PowerSigned(0, 3)(-2.0)) == -8.0
    assert float(PowerSigned(1, 2)(3.0)) == 4.0
    assert float(PowerSigned(1, 2)(-1.0)) == -4.0


def test_eval_exp_integral_zero_mu_is_identity():
    e = ExpIntegral(Const(0.0), anchor=0.0)
    for x in (-2.0, -0.5, 0.0, 1.0, 3.0):
        assert abs(float(e(x)) - x) < 1e-10 * (1 + abs(x))


def test_eval_exp_integral_constant_mu():
    # mu = c  ->  s(x) = (exp(cx) - 1)/c
    c = 0.7
    e = ExpIntegral(Const(c), anchor=0.0)
    for x in (-1.0, 0.3, 2.0):
        expect = (math.exp(c * x) - 1.0) / c
        assert abs(float(e(x)) - expect) < 1e-9 * (1 + abs(expect))


def test_adaptive_quad_singular_endpoint():
    # integral of x^{-1/2} over (0, 1] = 2, integrable endpoint singularity
    val = adaptive_quad(lambda x: np.abs(x) ** -0.5, 0.0, 1.0, rtol=1e-9)
    assert abs(val - 2.0) < 1e-7


# the state-space speed densities of two catalog entries are singular at 0:
# x^-1/2 (squared_bessel, delta = 1) and |x|^-2/3 (cubed_bm); each is
# integrated on intervals with an end at 0, at the default tolerances
_SINGULAR_SPEED_INTERVALS = {
    "squared_bessel": [(0.0, 0.75)],
    "cubed_bm": [(-1.0, 0.0), (0.0, 1.0)],
}


@pytest.mark.parametrize("case", ["singular-endpoint", "squared_bessel", "cubed_bm"])
def test_adaptive_quad_matches_the_two_call_oracle_with_one_call_per_panel(case):
    if case == "singular-endpoint":
        integrals = [(lambda x: np.abs(x) ** -0.5, 0.0, 1.0, {"rtol": 1e-9})]
    else:
        f = build_model(case).speed.ac_density
        kw = {"rtol": DEFAULT_QUAD.rel, "atol": DEFAULT_QUAD.abs}
        integrals = [(f, a, b, kw) for a, b in _SINGULAR_SPEED_INTERVALS[case]]
    panels = []
    for f, a, b, kw in integrals:
        calls = {"one": 0, "two": 0}

        def counted(key, f=f):
            def g(x):
                calls[key] += 1
                return f(x)

            return g

        assert adaptive_quad(counted("one"), a, b, **kw) == adaptive_quad_two_calls(counted("two"), a, b, **kw)
        assert 2 * calls["one"] == calls["two"]  # the oracle calls f twice per panel
        panels.append(calls["one"])
    assert max(panels) > 80  # the singular integrals split


def test_adaptive_quad_reports_divergence():
    with pytest.raises(QuadratureError):
        adaptive_quad(lambda x: 1.0 / np.abs(x), 0.0, 1.0, max_panels=200)


# ---------------------------------------------------------------------------
# invert_monotone_vec
# ---------------------------------------------------------------------------


def test_invert_cube():
    f = piece(PowerSigned(0, 3))
    assert abs(float(invert_monotone_vec(f, 8.0)) - 2.0) < 1e-10


def test_invert_sqrt_halfline():
    f = piece(PowerSigned(0, 0.5), domain=(0.0, RT))
    assert abs(float(invert_monotone_vec(f, 3.0)) - 9.0) < 1e-9


def test_invert_bessel_scale():
    # scale x^{1 - delta/2} with delta = 1: inverse of sqrt at 2 is 4
    f = piece(PowerSigned(0, 0.5), domain=(0.0, RT))
    assert abs(float(invert_monotone_vec(f, 2.0)) - 4.0) < 1e-10


def test_invert_round_trip_property():
    f = piece(Piecewise([0.0], [Affine(0.5, 0.0), PowerSigned(0, 3)]))
    xs = np.linspace(-3, 2, 41)
    ys = f.value(xs)
    back = invert_monotone_vec(f, ys)
    assert np.max(np.abs(back - xs) / (1 + np.abs(xs))) < 1e-10


def test_invert_out_of_range():
    # a target beyond a finite end of the domain maps to that end
    f = piece(Affine(1.0, 0.0), domain=(0.0, 1.0))
    assert np.array_equal(invert_monotone_vec(f, [-1.0, 0.25, 2.0]), [0.0, 0.25, 1.0])
    assert float(invert_monotone_vec(f, 2.0)) == 1.0


# the scales of the four document families, with their state intervals
FAMILY_SCALES = {
    "sticky": (Affine(1.5, 0.0), (0.75, RT)),
    "absorbing": (Affine(0.5, 0.0), (0.0, RT)),
    "skew": (Piecewise([4 / 3, 2.5], [Affine(0.75, 0.0), Affine(0.25, 2 / 3), Affine(2.0, 2 / 3 - 4.375)]), (-RT, RT)),
    "cubic": (Sum([Affine(1.0, 0.0), Product([Const(1.5), PowerSigned(1.875, 3.0)])]), (-RT, RT)),
}


@pytest.mark.parametrize("family", sorted(FAMILY_SCALES))
def test_invert_round_trip_within_4_ulp(family):
    expr, (lo, hi) = FAMILY_SCALES[family]
    f = piece(expr, (lo, hi))
    rng = np.random.default_rng(5)
    # 5k points near the origin and 5k spread over magnitudes 1e-8 .. 1e6
    base = lo if math.isfinite(lo) else 0.0
    sign = np.ones(5000) if math.isfinite(lo) else rng.choice([-1.0, 1.0], 5000)
    xs = np.concatenate([rng.uniform(base, 10.0, 5000), base + sign * 10.0 ** rng.uniform(-8, 6, 5000)])
    ys = f.value(xs)
    back = invert_monotone_vec(f, ys)
    assert np.all(np.abs(back - xs) <= 4 * np.spacing(np.maximum(np.abs(xs), 1.0)))
    order = np.argsort(ys, kind="stable")
    assert np.all(np.diff(back[order]) >= 0)


def test_invert_returns_a_kink_exactly():
    # the image of a kink inverts to the kink itself, so that the one-sided
    # slopes of the inverse differ there
    expr, dom = FAMILY_SCALES["skew"]
    f = piece(expr, dom)
    for c in (4 / 3, 2.5):
        assert float(invert_monotone_vec(f, f.value(np.asarray(c)))) == c


def test_inverse_slope_stays_finite_at_a_flat_point():
    # fuzz seed 7: q is a cubic with q' = 0 at v. Its image is float-flat
    # around q(v), and the inverse takes the left edge of that band, where
    # s' = 1/q' is large but finite
    spec = random_spec(7)
    v = spec.qprime_zero_set[0][0]
    x_flat = spec.q_expr.value(np.asarray(v))
    u = float(spec.scale.value(np.asarray(x_flat)))
    slope = float(spec.scale.d_plus(np.asarray(x_flat)))
    assert u <= v and abs(u - v) < 1e-4
    assert math.isfinite(slope) and slope > 1e6


def test_inverse_piece_memo_is_keyed_on_content_and_returns_copies():
    q = inverse_piece(piece(PowerSigned(0.0, 3.0)), (-RT, RT))
    u = np.linspace(-2.0, 2.0, 9)
    first = q.value(u)
    first[:] = 99.0  # a caller may mutate the result
    again = q.value(u.copy())
    assert np.allclose(again, np.cbrt(u), rtol=1e-14, atol=1e-15)
    assert np.array_equal(again, q.value(u))
    assert not np.shares_memory(again, q.value(u))
    # the slope reads the same inversion
    assert np.allclose(q.d_plus(u[u != 0]), 1.0 / (3.0 * np.cbrt(u[u != 0]) ** 2), rtol=1e-12)


def test_kink_inverse_document_matches_sticky_skew():
    # a skew document without inverse_scale: kink at 4/3, slopes 3/4 -> 1/4,
    # atom 1, r = 1. The numeric inverse must land on the kink.
    doc = {
        "state_interval": {"alpha": "-inf", "beta": "inf"},
        "scale": {
            "node": "piecewise",
            "breakpoints": [4 / 3],
            "pieces": [{"node": "affine", "a": 0.75, "b": 0.0}, {"node": "affine", "a": 0.25, "b": 2 / 3}],
        },
        "speed": {"ac": {"node": "const", "c": 1.0}, "atoms": [[4 / 3, 1.0]]},
        "x0": 2 / 3,
        "r": 1.0,
    }
    got = classify(load_model_spec(doc))
    want = classify(build_model("sticky_skew", {"kappa": 0.75, "c": 1.0, "xi": 4 / 3, "r": 1.0}))
    assert (*got.triple(), got.rp) == (*want.triple(), want.rp) == ("holds",) * 4


# ---------------------------------------------------------------------------
# pushforward
# ---------------------------------------------------------------------------


def skew_scale(kappa, xi):
    below = Affine(kappa, -kappa * xi)
    above = Affine(1 - kappa, -(1 - kappa) * xi)
    return Piecewise([xi], [below, above])


def test_pushforward_identity_lebesgue():
    m = DecomposedMeasure(support=(-RT, RT), ac_density=lambda x: np.ones_like(x))
    s = piece(Affine(1, 0))
    mu = pushforward(m, s, inverse_piece(s, (-RT, RT)))
    assert abs(mu.mass(-1.3, 2.2) - 3.5) < 1e-8


def test_pushforward_atom_moves_with_map():
    rho = 0.7
    m = DecomposedMeasure(
        support=(1.0, RT), ac_density=lambda x: np.ones_like(x), atoms=((1.0, rho),)
    )
    s = piece(Affine(1, 0), domain=(1.0, RT))
    mu = pushforward(m, s, inverse_piece(s, (1.0, RT)))
    assert mu.atoms == ((1.0, rho),)
    assert abs(mu.mass(1.0, 2.0) - (1.0 + rho)) < 1e-8


def test_pushforward_sticky_skew():
    kappa, c, xi = 0.75, 1.0, 4.0 / 3.0
    vk = lambda x: np.where(x > xi, 1 - kappa, kappa)
    m = DecomposedMeasure(
        support=(-RT, RT), ac_density=lambda x: 1.0 / vk(np.asarray(x)), atoms=((xi, c),)
    )
    s = piece(skew_scale(kappa, xi))
    mu = pushforward(m, s, inverse_piece(s, (-RT, RT)))
    # expected: density 1/a_kappa with a = (1-kappa)^2 above 0 and kappa^2 below
    assert abs(mu.atoms[0][0]) < 1e-12 and mu.atoms[0][1] == c
    up = mu.ac_density(np.asarray([0.5, 1.0]))
    down = mu.ac_density(np.asarray([-0.5, -1.0]))
    assert np.allclose(up, 1.0 / (1 - kappa) ** 2, rtol=1e-9)
    assert np.allclose(down, 1.0 / kappa**2, rtol=1e-9)


def test_pushforward_mass_conservation_random_intervals():
    rng = np.random.default_rng(7)
    kappa, c, xi = 0.3, 2.0, -0.5
    vk = lambda x: np.where(np.asarray(x) > xi, 1 - kappa, kappa)
    m = DecomposedMeasure(
        support=(-RT, RT),
        ac_density=lambda x: 1.0 / vk(x),
        atoms=((xi, c),),
    )
    s = piece(skew_scale(kappa, xi))
    mu = pushforward(m, s, inverse_piece(s, (-RT, RT)))
    for _ in range(200):
        a, b = np.sort(rng.uniform(-3, 3, size=2))
        if b - a < 1e-3:
            continue
        lhs = m.mass(a, b)
        rhs = mu.mass(float(s.value(np.asarray(a))), float(s.value(np.asarray(b))))
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))


def test_pushforward_zero_derivative_set_requires_annotation():
    m = DecomposedMeasure(support=(-RT, RT), ac_density=lambda x: np.ones_like(x))
    s = piece(Affine(1, 0))
    with pytest.raises(MeasureKitError):
        pushforward(m, s, inverse_piece(s, (-RT, RT)), qprime_zero_intervals=[(0.0, 1.0)])


# ---------------------------------------------------------------------------
# second derivative decomposition
# ---------------------------------------------------------------------------


def test_second_derivative_cube():
    q = piece(PowerSigned(0, 3))
    dec = second_derivative_decomposition(q, kinks=[])
    assert dec.atoms == ()
    xs = np.linspace(-2, 2, 31)
    # oracle: d^2/dx^2 x^3 = 6x
    assert np.allclose(dec.ac_density(xs), 6 * xs, rtol=1e-12, atol=1e-12)


def test_second_derivative_skew_atom():
    kappa = 0.75
    below = Affine(1.0 / kappa, 0.0)
    above = Affine(1.0 / (1 - kappa), 0.0)
    q = piece(Piecewise([0.0], [below, above]))
    jump = 1.0 / (1 - kappa) - 1.0 / kappa  # = (2k-1)/((1-k)k)
    dec = second_derivative_decomposition(q, kinks=[(0.0, jump)])
    assert len(dec.atoms) == 1
    pt, mass = dec.atoms[0]
    assert pt == 0.0
    assert abs(mass - (2 * kappa - 1) / ((1 - kappa) * kappa)) < 1e-12


def test_second_derivative_affine_is_zero():
    q = piece(Affine(2.0, 1.0))
    dec = second_derivative_decomposition(q, kinks=[])
    assert dec.atoms == ()
    assert np.allclose(dec.ac_density(np.linspace(-5, 5, 11)), 0.0)


def test_second_derivative_kink_mismatch_raises():
    q = piece(Piecewise([0.0], [Affine(1, 0), Affine(2, 0)]))
    with pytest.raises(KinkMismatchError):
        second_derivative_decomposition(q, kinks=[(0.0, 5.0)])


def test_second_derivative_reintegration_random_intervals():
    # q'' reconstructed mass over (x, y] must equal q'_+(y) - q'_+(x)
    kappa = 0.4
    expr = Piecewise(
        [-1.0, 1.0],
        [Affine(1.0 / kappa, 1.0 / kappa - 1.0), PowerSigned(0, 3.0), Affine(3.0, -2.0)],
    )
    q = piece(expr)
    dec = second_derivative_decomposition(
        q,
        kinks=[(pt, jump) for pt, jump in q.kinks],
    )
    rng = np.random.default_rng(11)
    for _ in range(100):
        x, y = np.sort(rng.uniform(-2.5, 2.5, size=2))
        if y - x < 1e-3:
            continue
        expect = float(q.d_plus(np.asarray(y)) - q.d_plus(np.asarray(x)))
        got = dec.mass(x, y) - sum(mass for pt, mass in dec.atoms if pt == x)
        assert abs(got - expect) <= 1e-8 * max(1.0, abs(expect))


def test_sampled_tv_flags_exploding_derivative():
    # q(u) = sign(u) sqrt|u| has q' blowing up at 0: not DC
    q = piece(PowerSigned(0, 0.5))
    _, stable = sampled_total_variation(q.d_plus, (-1.0, 1.0))
    assert not stable


def test_sampled_tv_evaluates_one_grid():
    sizes = []

    def d(x):
        sizes.append(np.size(x))
        return np.abs(x)

    tvs, stable = sampled_total_variation(d, (-1.0, 1.0))
    assert sizes == [4097] and stable
    assert tvs == pytest.approx([2.0] * 4, rel=1e-2)


def test_sampled_tv_accepts_kinked_but_bv():
    q = piece(Piecewise([0.0], [Affine(1, 0), Affine(3, 0)]))
    tvs, stable = sampled_total_variation(q.d_plus, (-1.0, 1.0))
    assert stable
    assert abs(tvs[-1] - 2.0) < 1e-9


# ---------------------------------------------------------------------------
# Caratheodory representation
# ---------------------------------------------------------------------------


def test_exp_integral_caratheodory_piecewise_constant():
    # mu piecewise constant: derivative of the representation must equal
    # exp(integral of mu) in closed form
    mu1, mu2 = -0.4, 1.1
    mu = Piecewise([0.0], [Const(mu1), Const(mu2)])
    s = ExpIntegral(mu, anchor=0.0)

    def closed_form(x):
        return math.exp(mu2 * x) if x >= 0 else math.exp(mu1 * x)

    for x in (-1.5, -0.2, 0.0, 0.4, 2.0):
        got = float(s.deriv(np.asarray(x)))
        assert abs(got - closed_form(x)) < 1e-9 * (1 + closed_form(x))


# ---------------------------------------------------------------------------
# integrability deciders
# ---------------------------------------------------------------------------


def _power_profile(p, x0=0.0, coeff=1.0):
    def f(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return coeff * np.abs(x - x0) ** p

    return f


def test_l2_local_quarter_root_finite():
    beh = [LocalBehavior(0.0, "both", -0.25, 1.0)]
    v = decide_L2_local(_power_profile(-0.25), (-1.0, 1.0), beh)
    assert v.status == "finite" and v.method == "exponent-rule"


def test_l2_local_one_over_x_divergent():
    beh = [LocalBehavior(0.0, "both", -1.0, 1.0)]
    v = decide_L2_local(_power_profile(-1.0), (-1.0, 1.0), beh)
    assert v.status == "divergent"


def test_l2_local_linear_drift_profile_finite():
    # phi(x) = -r x on [1, 2]: no singularities at all
    v = decide_L2_local(lambda x: -0.5 * np.asarray(x), (1.0, 2.0))
    assert v.status == "finite"


@pytest.mark.parametrize("p", [-2.0, -1.75, -1.5, -1.25, -1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0])
def test_l2_exponent_rule_grid(p):
    beh = [LocalBehavior(0.0, "both", p, 1.0)]
    v = decide_L2_local(_power_profile(p), (-1.0, 1.0), beh)
    assert v.status == ("finite" if p > -0.5 else "divergent")
    assert v.status != "inconclusive"


@pytest.mark.parametrize("p", [-2.0, -1.75, -1.5, -1.25, -1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0])
def test_weighted_boundary_rule_grid(p):
    beh = [LocalBehavior(0.0, "right", p, 1.0)]
    v = decide_weighted_L2_boundary(_power_profile(p), 0.0, (0.0, 1.0), beh)
    assert v.status == ("finite" if p > -1.0 else "divergent")
    assert v.status != "inconclusive"


def test_weighted_boundary_examples():
    beh = [LocalBehavior(0.0, "right", -1.0, 2.0)]
    assert decide_weighted_L2_boundary(_power_profile(-1.0, coeff=2.0), 0.0, (0.0, 1.0), beh).status == "divergent"
    beh = [LocalBehavior(0.0, "right", -0.75, 1.0)]
    assert decide_weighted_L2_boundary(_power_profile(-0.75), 0.0, (0.0, 1.0), beh).status == "finite"
    assert decide_weighted_L2_boundary(lambda x: np.full_like(np.asarray(x, float), 3.0), 0.0, (0.0, 1.0)).status == "finite"


def test_numeric_refinement_detects_divergence_without_annotation():
    v = decide_L2_local(_power_profile(-1.0), (-1.0, 1.0), behaviors=(), suspicious=[0.0])
    assert v.status == "divergent"
    assert v.method == "numeric-refinement"


def test_numeric_refinement_bounded_is_finite():
    v = decide_L2_local(lambda x: np.cos(np.asarray(x)), (-1.0, 1.0), suspicious=[0.0])
    assert v.status == "finite"


def test_numeric_refinement_near_critical_is_inconclusive_not_wrong():
    # exponent -0.4: genuinely finite but below the reliable numeric
    # resolution; the decider must not claim divergence
    v = decide_L2_local(_power_profile(-0.4), (-1.0, 1.0), suspicious=[0.0])
    assert v.status in ("finite", "inconclusive")


_L2_LOCAL_CASES = {
    "annotated-finite": (_power_profile(-0.25), (-1.0, 1.0), {"behaviors": [LocalBehavior(0.0, "both", -0.25, 1.0)]}),
    "annotated-divergent": (_power_profile(-1.0), (-1.0, 1.0), {"behaviors": [LocalBehavior(0.0, "both", -1.0, 1.0)]}),
    "smooth": (lambda x: -0.5 * np.asarray(x), (1.0, 2.0), {}),
    "suspicious-divergent": (_power_profile(-1.0), (-1.0, 1.0), {"suspicious": [0.0]}),
    "suspicious-bounded": (lambda x: np.cos(np.asarray(x)), (-1.0, 1.0), {"suspicious": [0.0]}),
    "suspicious-near-critical": (_power_profile(-0.4), (-1.0, 1.0), {"suspicious": [0.0]}),
    # 0.25 is a node of the detection grid, where the profile is infinite
    "detected-divergent": (_power_profile(-1.0, x0=0.25), (-1.0, 1.0), {}),
    "detected-near-critical": (_power_profile(-0.4, x0=0.25), (-1.0, 1.0), {}),
    "annotated-not-detected": (_power_profile(-0.25), (-1.0, 1.0),
                               {"behaviors": [LocalBehavior(0.0, "both", -0.25, 1.0)], "auto_detect": False}),
}


@pytest.mark.parametrize("case", list(_L2_LOCAL_CASES))
def test_l2_local_reads_precomputed_node_values(case):
    # what the NSA panel does: detect on node values computed beforehand,
    # then decide with the detected points and detection off
    f, window, kw = _L2_LOCAL_CASES[case]
    sizes = []

    def counted(x):
        sizes.append(np.size(x))
        return f(x)

    alone = decide_L2_local(f, window, **kw)
    given = list(kw.get("suspicious", ()))
    if kw.get("auto_detect", True):
        known = [b.point for b in kw.get("behaviors", ())] + given
        g = np.asarray(f(window_nodes(*window)), float) ** 2
        given += _detect_suspicious(g[None], [window], [known])[0]
    split = decide_L2_local(counted, window, behaviors=kw.get("behaviors", ()), suspicious=given, auto_detect=False)
    assert (split.status, split.method, split.diagnostics) == (alone.status, alone.method, alone.diagnostics)
    assert np.size(window_nodes(*window)) not in sizes  # the decider did not read f at the nodes again
    if case == "detected-divergent":
        assert alone.method == "numeric-refinement" and alone.status == "divergent"


def test_window_nodes_of_stacked_edges_are_each_windows_own():
    edges = np.linspace(-8.3, 7.9, 33)
    rows = window_nodes(edges[:-1], edges[1:])
    assert rows.shape == (32, 1023)
    for row, (a, b) in zip(rows, zip(edges[:-1].tolist(), edges[1:].tolist())):
        assert np.array_equal(row, np.linspace(a, b, 1025)[1:-1])


def test_stacked_detection_matches_one_row_at_a_time():
    windows = [(-1.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 5.0), (5.0, 6.0), (6.0, 7.0), (7.0, 8.0)]
    rows = [1.0 + window_nodes(a, b) ** 2 for a, b in windows]
    known: list[list[float]] = [[] for _ in windows]
    rows[1][300] *= 1e8  # a spike
    rows[2][17] = np.inf
    rows[3][900] = np.nan
    rows[4][:] = np.inf  # no finite value: nothing detected
    rows[4][::2] = np.nan
    rows[5][512] *= 1e8  # a spike, and a known point within (b - a)/64 of it
    rows[5][600] = np.inf
    known[5] = [window_nodes(*windows[5])[512] + (windows[5][1] - windows[5][0]) / 100]
    rows[6][[100, 101, 700]] = np.inf  # the second is within (b - a)/64 of the first
    stacked = _detect_suspicious(np.array(rows), windows, known)
    alone = [_detect_suspicious(g[None], [w], [k])[0] for g, w, k in zip(rows, windows, known)]
    assert stacked == alone == [detect_suspicious_one_window(g, *w, k) for g, w, k in zip(rows, windows, known)]
    nodes = [window_nodes(a, b) for a, b in windows]
    assert stacked == [
        [], [nodes[1][300]], [nodes[2][17]], [nodes[3][900]], [], [nodes[5][600]], [nodes[6][100], nodes[6][700]]
    ]


# ---------------------------------------------------------------------------
# measures: construction and serialization
# ---------------------------------------------------------------------------


def test_atoms_sorted_and_infinite_only_at_boundary():
    with pytest.raises(MeasureKitError):
        DecomposedMeasure(support=(0.0, 10.0), atoms=((2.0, 1.0), (1.0, 1.0)))
    with pytest.raises(MeasureKitError):
        DecomposedMeasure(support=(0.0, 10.0), atoms=((5.0, math.inf),))
    m = DecomposedMeasure(support=(0.0, 10.0), atoms=((0.0, math.inf),))
    assert math.isinf(m.mass(0.0, 1.0))


def test_measure_json_round_trip():
    obj = {
        "ac": {"node": "affine", "a": 0.0, "b": 2.0},
        "atoms": [[1.0, 0.5], [3.0, "inf"]],
        "sc": None,
    }
    m = measure_from_json(obj, support=(0.0, 3.0))
    assert m.atoms[0] == (1.0, 0.5)
    assert math.isinf(m.atoms[1][1])
    assert abs(m.mass(0.0, 1.0) - (2.0 + 0.5)) < 1e-9


def test_measure_json_rejects_unknown_fields():
    with pytest.raises(MeasureKitError):
        measure_from_json({"ac": None, "atoms": [], "weird": 1}, support=(0.0, 1.0))


def test_scale_functions_require_continuity():
    jumpy = Piecewise([0.0], [Affine(1, 0), Affine(1, 5)])
    assert not jumpy.is_continuous()
    with pytest.raises(MeasureKitError):
        SmoothPiece1D.from_expr(jumpy, (-RT, RT))


def test_tabulated_requires_increasing_x():
    with pytest.raises(MeasureKitError):
        Tabulated([0.0, 0.0, 1.0], [0.0, 0.5, 1.0])


# expression strategy for serialization round-trips
_leaf = st.one_of(
    st.builds(Const, st.floats(-3, 3, allow_nan=False)),
    st.builds(Affine, st.floats(0.1, 3), st.floats(-2, 2)),
    st.builds(PowerSigned, st.floats(-1, 1), st.floats(0.25, 3)),
)


def _extend(children):
    return st.one_of(
        st.builds(lambda ts: Sum(ts), st.lists(children, min_size=1, max_size=3)),
        st.builds(lambda ts: Product(ts), st.lists(children, min_size=1, max_size=2)),
        st.builds(Compose, children, st.builds(Affine, st.floats(0.5, 2), st.floats(-1, 1))),
    )


_expr_strategy = st.recursive(_leaf, _extend, max_leaves=6)


@given(_expr_strategy)
@settings(max_examples=60, deadline=None)
def test_expression_serialization_round_trip(expr):
    clone = expr_from_json(expr_to_json(expr))
    xs = np.linspace(-2.0, 2.0, 17)
    a = expr.value(xs)
    b = clone.value(xs)
    assert np.allclose(a, b, rtol=1e-12, atol=1e-12, equal_nan=True)


@given(
    st.lists(st.floats(0.2, 4.0), min_size=2, max_size=5),
    st.floats(-2.0, 2.0),
    st.floats(-3.0, 3.0),
)
@settings(max_examples=50, deadline=None)
def test_invert_round_trip_random_piecewise(slopes, anchor, y_probe):
    # random increasing piecewise-affine function: inversion must round-trip
    pts = [anchor + 0.7 * k for k in range(len(slopes) - 1)]
    pieces = []
    val = 0.0
    ref = pts[0] if pts else 0.0
    for i, a in enumerate(slopes):
        lo = pts[i - 1] if i > 0 else ref
        pieces.append(Affine(a, val - a * lo))
        if i < len(pts):
            val += a * (pts[i] - lo)
    expr = Piecewise(pts, pieces) if pts else pieces[0]
    f = piece(expr)
    x = float(invert_monotone_vec(f, y_probe))
    assert abs(float(f.value(np.asarray(x))) - y_probe) <= 1e-12 * (1 + abs(y_probe))


def test_serialization_tags_are_exact():
    tags = {
        expr_to_json(Const(1))["node"],
        expr_to_json(Affine(1, 0))["node"],
        expr_to_json(PowerSigned(0, 2))["node"],
        expr_to_json(ExpIntegral(Const(0)))["node"],
        expr_to_json(Sum([Const(1)]))["node"],
        expr_to_json(Product([Const(1)]))["node"],
        expr_to_json(Compose(Const(1), Affine(1, 0)))["node"],
        expr_to_json(Piecewise([0.0], [Affine(1, 0), Affine(1, 0)]))["node"],
        expr_to_json(Tabulated([0, 1], [0, 1]))["node"],
    }
    assert tags == {
        "const",
        "affine",
        "power_signed",
        "exp_integral",
        "sum",
        "product",
        "compose",
        "piecewise",
        "tabulated",
    }
