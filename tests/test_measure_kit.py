"""Unit and property tests for the expression grammar and measure calculus."""

import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffarb import measure_kit
from diffarb.arb_classifier import _check_singular_parts, classify
from diffarb.diffusion_model import derive_natural_scale, inverse_piece, load_model_spec
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
    PowerAbs,
    PowerSigned,
    Product,
    QuadratureError,
    SmoothPiece1D,
    Sum,
    Tabulated,
    _detect_suspicious,
    _dyadic_probe,
    _eight_ulp,
    _outward,
    _row_medians,
    adaptive_quad,
    decide_L2_local,
    decide_weighted_L2_boundary,
    expr_from_json,
    invert_monotone_vec,
    leading_increment,
    measure_from_json,
    pushforward,
    sampled_total_variation,
    second_derivative_decomposition,
    window_nodes,
)
from diffarb.model_catalog import build_model, catalog_names

from fuzz_models import random_model, random_spec
from oracles import (
    adaptive_quad_two_calls,
    closed_form_root,
    detect_suspicious_every_median,
    detect_suspicious_one_window,
    dyadic_probe_level_by_level,
    expr_deriv,
    expr_deriv2,
    expr_to_json,
    expr_value,
    flat_spot_q_deriv,
    flat_spot_q_deriv2,
    flat_spot_q_value,
    inverse_piece_with_root_record,
    invert_closed_form,
    invert_monotone_vec_one_phase,
    measure_mass,
    newton_path,
    outward_two_calls,
    piece_with_one_call_per_handle,
)

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


# ---------------------------------------------------------------------------
# jets
# ---------------------------------------------------------------------------

_PW = Piecewise(
    [0.0, 1.5], [Affine(2.0, 0.0), PowerSigned(0.0, 0.5), Sum([Affine(1.0, 0.5), Tabulated([1.5, 2.0, 3.0], [0.0, 1.0, 5.0])])]
)
_JET_EXPRS = {
    "const": lambda: Const(-2.5),
    "affine": lambda: Affine(3.0, 1.0),
    "power-cubic": lambda: PowerSigned(0.3, 3.0),
    "power-root": lambda: PowerSigned(0.0, 0.5),
    "power-linear": lambda: PowerSigned(1.0, 1.0),
    # |x - c|^p: a pole, a smooth even power, a kink, a root, a flat 1 and a pole of the slope
    "power-abs-pole": lambda: PowerAbs(0.5, -2.5),
    "power-abs-cubic": lambda: PowerAbs(-0.3, 3.0),
    "power-abs-square": lambda: PowerAbs(0.0, 2.0),
    "power-abs-linear": lambda: PowerAbs(1.0, 1.0),
    "power-abs-root": lambda: PowerAbs(0.0, 0.5),
    "power-abs-one": lambda: PowerAbs(0.0, 0.0),
    "power-abs-weak-pole": lambda: PowerAbs(0.0, -0.5),
    "exp-integral": lambda: ExpIntegral(Affine(-0.5, 0.2), anchor=0.25, inner_anchor=-0.5),
    "tabulated": lambda: Tabulated([-1.0, 0.0, 1.0, 2.5], [-3.0, 0.0, 1.0, 4.0]),
    "piecewise": lambda: _PW,
    "product-of-three": lambda: Product(
        [PowerSigned(0.0, 2.0), Affine(1.0, 1.0), Tabulated([0.0, 1.0, 2.0], [0.0, 2.0, 3.0])]
    ),
    "compose-decreasing-inner": lambda: Compose(PowerSigned(0.5, 3.0), Affine(-2.0, 1.0)),
    "compose-of-piecewise": lambda: Compose(_PW, PowerSigned(0.0, 3.0)),
    "compose-tabulated-reversed": lambda: Compose(Tabulated([-1.0, 0.0, 1.0], [-3.0, 0.0, 1.0]), Affine(-1.0, 0.0)),
    "nested": lambda: Product([_PW, Compose(_PW, Affine(2.0, 0.0)), Sum([_PW, Compose(Affine(-1.0, 0.0), _PW)])]),
    # the four benchmark families' scales, and every catalog scale and q given as an expression
    **{f"family-{k}": (lambda k=k: FAMILY_SCALES[k][0]) for k in ("sticky", "absorbing", "skew", "cubic")},
    **{f"catalog-{n}-q": (lambda n=n: build_model(n).q_expr) for n in catalog_names() if n != "fat_cantor"},
    **{f"catalog-{n}-scale": (lambda n=n: build_model(n).scale.expr) for n in catalog_names() if n != "fat_cantor"},
    **{f"catalog-{n}-density": (lambda n=n: build_model(n).speed.ac_density) for n in catalog_names() if n != "fat_cantor"},
}


def _same(a, b) -> bool:
    """Bit for bit, NaN equal to NaN: the same type, shape, values and signs."""
    return (type(a) is type(b) and np.shape(a) == np.shape(b)
            and np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b)))


@pytest.mark.parametrize("case", list(_JET_EXPRS))
def test_jet_equals_the_separate_walks_bit_for_bit(case):
    # random points, breakpoints (kinks among them), infinite-slope points
    # and their neighbours, -+0, -+inf and NaN; as one array and one by one
    e = _JET_EXPRS[case]()
    special = np.array([*e.breakpoints(), *e.infinite_slope_points()], float)
    near = np.concatenate([special, np.nextafter(special, -np.inf), np.nextafter(special, np.inf)])
    rng = np.random.default_rng(3)
    if isinstance(e, ExpIntegral):  # nested quadrature per point: a few finite points
        xs = np.concatenate([rng.normal(0.0, 1.0, 6), near, [0.0, -0.0]])
    else:
        xs = np.concatenate([rng.normal(0.0, 2.0, 64), near, [0.0, -0.0, np.inf, -np.inf, np.nan]])
    with np.errstate(all="ignore"):
        for x in (xs, *(np.asarray(v) for v in xs[-(near.size + 5):]), np.asarray(xs[0])):
            for side in (1, -1):
                ref = (expr_value(e, x), expr_deriv(e, x, side), expr_deriv2(e, x, side))
                for order in (0, 1, 2):
                    got = e.jet(x, side, order)
                    assert len(got) == order + 1 and all(_same(g, r) for g, r in zip(got, ref)), (x, side, order)
                readers = (e.value(x), e.deriv(x, side), e.deriv2(x, side))
                assert all(_same(g, r) for g, r in zip(readers, ref))


@pytest.mark.parametrize("case", ["piecewise", "nested", "family-skew", "exp-integral-piece"])
def test_piecewise_jet_reads_one_piece_whole_or_the_pieces_grouped(case):
    # every point in one piece (that piece reads the whole array), points
    # spread over the pieces in shuffled order, breakpoints read from either
    # side, a strided view, a 2-D array and an empty one; an exp_integral
    # piece accumulates its values over the points it reads together, so it
    # must read exactly the points a mask would give it
    if case == "exp-integral-piece":
        e, n = Piecewise([0.5], [Affine(1.0, 0.0), ExpIntegral(Affine(-0.5, 0.2), anchor=0.5)]), 4
    else:
        e, n = _JET_EXPRS[case](), 16
    rng = np.random.default_rng(5)
    edges = np.array([-4.0, *e.breakpoints(), 6.0])
    pieces = [rng.uniform(a, b, n) for a, b in zip(edges, edges[1:])]
    spread = rng.permutation(np.concatenate([*pieces, edges[1:-1]]))
    square = spread[: 2 * (spread.size // 2)].reshape(2, -1)
    inputs = [*pieces, np.append(pieces[-1], edges[-2]), spread, spread[::2], square]
    with np.errstate(all="ignore"):
        for x in (*inputs, np.empty(0)):
            for side in (1, -1):
                ref = (expr_value(e, x), expr_deriv(e, x, side), expr_deriv2(e, x, side))
                for order in (0, 1, 2):
                    got = e.jet(x, side, order)
                    assert len(got) == order + 1 and all(_same(g, r) for g, r in zip(got, ref)), (x, side, order)


# x * x * x: its slope 3x^2 vanishes at 0, which is no breakpoint
_BOUNDS_EXPRS = {
    **_JET_EXPRS,
    "prod-cube": lambda: Product([Affine(1.0, 0.0)] * 3),
    # three constant factors fold into one interval, rounded outward; a
    # constant term in a sum
    "prod-of-consts": lambda: Sum([Const(0.3), Product([Const(0.1), PowerSigned(0.3, 3.0), Const(3.0), Const(-0.7)])]),
}


def _bound_windows(e, rng) -> np.ndarray:
    """Random windows, windows that touch, hold or sit on each breakpoint,
    center and infinite-slope point (and 0), from 1e-12 to 1.5 wide, and
    windows near -+1e6."""
    out = [(a, a + 10.0 ** rng.uniform(-12, 1)) for a in rng.normal(0.0, 2.0, 24)]
    for c in (*e.breakpoints(), *e.infinite_slope_points(), 0.0):
        for w in (1e-12, 1e-6, 0.1, 1.5):
            out += [(c - w, c + w * rng.uniform(0.1, 2.0)), (c, c + w), (c - w, c), (c, c)]
    for c in (1e6, -1e6):
        out += [(c - 3.0, c + 2.0), (c, c + 1e-3)]
    return np.array(out)


@pytest.mark.parametrize("case", list(_BOUNDS_EXPRS))
def test_bounds_enclose_every_jet_value(case):
    # 2,001 points per window plus its ends and the special points inside
    # with their neighbours, on both sides and at orders 0-2: every finite
    # value lies in the enclosure, and a window where the jet reaches -+inf
    # or NaN has an infinite bound
    e = _BOUNDS_EXPRS[case]()
    windows = _bound_windows(e, np.random.default_rng(7))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = e.bounds(windows[:, 0], windows[:, 1])
    if isinstance(e, (ExpIntegral, Compose)):
        assert all(np.all(lo == -np.inf) and np.all(hi == np.inf) for lo, hi in got)
        return
    special = np.array([*e.breakpoints(), *e.infinite_slope_points()], float)
    for i, (a, b) in enumerate(windows):
        inside = special[(special >= a) & (special <= b)]
        near = np.concatenate([np.nextafter(inside, -np.inf), np.nextafter(inside, np.inf)])
        xs = np.concatenate([np.linspace(a, b, 2001), [a, b], inside, near[(near >= a) & (near <= b)]])
        for side in (1, -1):
            for order in (0, 1, 2):
                with np.errstate(all="ignore"):
                    jet = e.jet(xs, side, order)
                for k, v in enumerate(jet):
                    lo, hi = got[k][0][i], got[k][1][i]
                    v = np.asarray(v, float)
                    finite = v[np.isfinite(v)]
                    assert np.all((finite >= lo) & (finite <= hi)), (a, b, side, order, k)
                    assert hi == np.inf or not np.any(v == np.inf), (a, b, side, order, k)
                    assert lo == -np.inf or not np.any(v == -np.inf), (a, b, side, order, k)
                    assert np.isinf(lo) or np.isinf(hi) or not np.any(np.isnan(v)), (a, b, side, order, k)


def test_bounds_find_where_a_slope_vanishes_or_a_second_derivative_diverges():
    # the slope 3x^2 of prod-cube is bounded away from 0 exactly on the
    # windows that miss 0; PowerSigned's second derivative is unbounded at a
    # center for p < 2 and within -+2 at p = 2
    edges = np.array([-1.0, 0.0, 0.5, -2.0]), np.array([1.0, 0.5, 2.0, -1.0])
    _, (d_lo, d_hi), _ = Product([Affine(1.0, 0.0)] * 3).bounds(*edges)
    assert np.all(d_lo[:2] <= 0.0) and np.all(d_lo[2:] > 0.0) and np.all(np.isfinite(d_hi))
    for p, expect in ((1.5, (-np.inf, np.inf)), (2.0, (-2.0, 2.0))):
        _, _, (lo, hi) = PowerSigned(0.0, p).bounds(-0.5, 0.25)
        assert float(lo) <= expect[0] and float(hi) >= expect[1] and np.isinf(lo) == np.isinf(expect[0])
    # an exact zero times an infinite bound counts as 0: 0 * sign(x)|x|^(1/2) has slope 0
    _, (lo, hi), _ = Product([Const(0.0), PowerSigned(0.0, 0.5)]).bounds(-1.0, 1.0)
    assert (float(lo), float(hi)) == (0.0, 0.0)


def test_power_abs_bounds_are_finite_off_a_pole_and_infinite_on_it():
    # |x - 1/2|^-2.5 on windows that miss, touch and hold its center, and
    # |x|^3, whose slope takes both signs on a window that holds 0
    (v_lo, v_hi), _, _ = PowerAbs(0.5, -2.5).bounds(np.array([0.75, 0.5, 0.0]), np.array([1.5, 1.0, 1.0]))
    assert v_lo[0] <= 1.0 and 32.0 <= v_hi[0] < 32.0 * (1 + 1e-14) and np.all(v_hi[1:] == np.inf)
    _, (d_lo, d_hi), (dd_lo, dd_hi) = PowerAbs(0.0, 3.0).bounds(-1.0, 2.0)
    assert d_lo <= -3.0 and 12.0 <= d_hi < 12.0 * (1 + 1e-14) and dd_lo <= 0.0 and 12.0 <= dd_hi < np.inf


_LOCAL_CASES = {
    "const": (Const(2.5), 1.0, 1, (0.0, 2.5)),
    "const-zero": (Const(0.0), 1.0, 1, None),
    "affine": (Affine(2.0, 1.0), 1.0, -1, (0.0, 3.0)),
    "affine-root-left": (Affine(2.0, -2.0), 1.0, -1, (1.0, -2.0)),
    "power-signed-center-left": (PowerSigned(0.0, 0.5), 0.0, -1, (0.5, -1.0)),
    "power-signed-off-center": (PowerSigned(0.0, 3.0), -2.0, 1, (0.0, -8.0)),
    "power-abs-pole": (PowerAbs(1.0, -2.5), 1.0, 1, (-2.5, 1.0)),
    "power-abs-off-center": (PowerAbs(1.0, -2.0), 3.0, -1, (0.0, 0.25)),
    "power-abs-one": (PowerAbs(1.0, 0.0), 1.0, 1, (0.0, 1.0)),
    "product": (Product([Const(0.5), PowerAbs(0.0, -0.5), Affine(1.0, 0.0)]), 0.0, -1, (0.5, -0.5)),
    "product-with-a-zero": (Product([Const(0.0), PowerAbs(0.0, -0.5)]), 0.0, 1, None),
    "piecewise-left": (Piecewise([0.0], [Const(2.0), PowerAbs(0.0, 1.5)]), 0.0, -1, (0.0, 2.0)),
    "piecewise-right": (Piecewise([0.0], [Const(2.0), PowerAbs(0.0, 1.5)]), 0.0, 1, (1.5, 1.0)),
    "catalog-bessel-density": (build_model("squared_bessel", {"delta": 0.5}).speed.ac_density, 0.0, 1, (-0.75, 1 / 3)),
    "no-rule": (Sum([Const(1.0), PowerAbs(0.0, 2.0)]), 0.0, 1, None),
}


@pytest.mark.parametrize("case", list(_LOCAL_CASES))
def test_local_reads_the_leading_power_from_either_side(case):
    # f(c + side h) / (k h^e) tends to 1 as h -> 0+
    e, c, side, want = _LOCAL_CASES[case]
    got = e.local(c, side)
    assert got == pytest.approx(want) if want else got is None
    if want:
        h = np.array([1e-4, 1e-6, 1e-8])
        ratio = e.value(c + side * h) / (want[1] * h ** want[0])
        assert np.all(np.abs(ratio - 1.0) <= 2 * h**0.5)


@pytest.mark.parametrize(
    "e, c, side, want",
    [
        (Affine(2.0, 1.0), 1.0, -1, (1.0, -2.0)),  # f(c) != 0: the slope
        (PowerSigned(0.0, 0.5), 0.0, 1, (0.5, 1.0)),  # f(c) = 0: f's own leading power
        (Sum([Affine(1.0, 0.0), PowerSigned(0.0, 3.0)]), 0.0, -1, (1.0, -1.0)),  # no rule, a finite slope
        (Sum([Const(1.0), PowerSigned(0.0, 3.0)]), 0.0, 1, None),  # no rule, slope 0
        (PowerAbs(0.0, -1.0), 0.0, 1, None),  # f(c) infinite
    ],
)
def test_leading_increment_reads_f_minus_its_value(e, c, side, want):
    assert leading_increment(e, c, side) == want


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
        kw = {"rtol": 1e-8, "atol": 1e-12}
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


def test_exp_integral_splits_its_quadratures_at_the_breakpoints_of_mu():
    # mu jumps at 0.5, so the growth exp(int mu) has a kink there: an unsplit
    # quadrature across it kept halving panels for over a minute
    e = ExpIntegral(Piecewise([0.5], [Const(0.3), Affine(-1.0, 0.2)]), anchor=0.25)
    nodes, weights = np.polynomial.legendre.leggauss(60)

    def gl(f, a, b):  # 60-point Gauss-Legendre on each side of 0.5
        ends = [a, *([0.5] if min(a, b) < 0.5 < max(a, b) else []), b]
        return sum(0.5 * (hi - lo) * np.dot(weights, f(0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes))
                   for lo, hi in zip(ends, ends[1:]))

    def growth(ys):
        return np.exp([gl(lambda z: np.where(z < 0.5, 0.3, 0.2 - z), 0.25, y) for y in ys])

    want = [gl(growth, 0.25, x) for x in (0.1, 0.7, -1.0)]
    assert np.allclose(e.value([0.1, 0.7, -1.0]), want, rtol=0.0, atol=1e-15)


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


def _fat_cantor_scale():
    # a numeric inverse of a flat-spot q: the model itself takes its scale in
    # closed form ("fat_cantor-closed")
    q = build_model("fat_cantor").q_piece
    return inverse_piece(q, (-RT, RT)), q


# each case is a piece and the piece it is the numeric inverse of, if any.
# The fuzz scales are numeric inverses of a random q, increasing only to
# their float noise; every other scale here meets the contract as stated
_CONTRACT_SCALES = {
    **{f"family-{k}": (lambda k=k: (piece(*FAMILY_SCALES[k]), None)) for k in sorted(FAMILY_SCALES)},
    **{name: (lambda n=name: (build_model(n).scale, None))
       for name in ("cubed_bm", "squared_bessel", "gen_squared_bessel", "sticky_skew")},
    "fat_cantor": _fat_cantor_scale,
    "fat_cantor-closed": lambda: (build_model("fat_cantor").scale, None),
    "fat_cantor-q_piece": lambda: (build_model("fat_cantor").q_piece, None),
    **{f"fuzz-{i}": (lambda i=i: (lambda spec, q: (spec.scale, q))(*random_model(i))) for i in range(20)},
}


def _contract_targets(f, rng) -> np.ndarray:
    """4,092 targets: every node image, the kink images, the table's ends and
    their outer neighbours, NaN, -+inf, and the rest spread over the table's
    cells and over magnitudes 1e-8 .. 1e8, shuffled."""
    nx, nu, _ = f.node_table
    fixed = np.concatenate([
        nu, f.value(np.array([c for c, _ in f.kinks], float)),
        [nu[0], nu[-1], np.nextafter(nu[0], -np.inf), np.nextafter(nu[-1], np.inf), np.nan, np.inf, -np.inf],
    ])
    m = 4092 - fixed.size
    k = rng.integers(0, nu.size - 1, m - m // 2)
    cells = nu[k] + rng.uniform(size=k.size) * (nu[k + 1] - nu[k])
    spread = rng.choice([-1.0, 1.0], m // 2) * 10.0 ** rng.uniform(-8, 8, m // 2)
    return rng.permutation(np.concatenate([fixed, cells, spread]))


@pytest.mark.parametrize("case", list(_CONTRACT_SCALES))
def test_two_phase_inverse_keeps_the_one_phase_contract(case):
    # the Newton phases, at every target: a closed-form root is tested below
    (f, source), strict = _CONTRACT_SCALES[case](), not case.startswith("fuzz-")
    handles, f = newton_path(piece_with_one_call_per_handle(f, source)), newton_path(f)
    nx, nu, _ = f.node_table
    y = _contract_targets(f, np.random.default_rng(11))
    got, want = invert_monotone_vec(f, y), invert_monotone_vec_one_phase(f, y)
    # one jet call per Newton step gives the roots of separate value and slope walks
    assert np.array_equal(got, invert_monotone_vec(handles, y), equal_nan=True)
    # a batch of any size gives each target the bits it gets here
    for n in (1, 63, 64, 40_000):
        assert np.array_equal(invert_monotone_vec(f, np.resize(y, n)), np.resize(got, n), equal_nan=True)
    inside = (y > nu[0]) & (y < nu[-1])
    with np.errstate(all="ignore"):
        w, w_ref = (8 * np.spacing(np.maximum(np.abs(v), 0.5)) for v in (got, want))
        brackets = (f.value(got - w) < y) & (f.value(got + w) >= y)
        ref_brackets = (f.value(want - w_ref) < y) & (f.value(want + w_ref) >= y)
    # the 8-ulp bracket check at every target inside the table (on a fuzz
    # scale, wherever the reference meets it)
    assert np.all(brackets[inside & (ref_brackets | strict)])
    # nodes exactly, wherever the reference gives them; kinks exactly
    at_node = inside & np.isin(y, nu)
    node, ref_node = nx[np.searchsorted(nu, y[at_node])], want[at_node]
    assert np.array_equal(got[at_node][ref_node == node], node[ref_node == node])
    for c, _ in f.kinks if strict else ():
        assert float(invert_monotone_vec(f, f.value(np.asarray(c)))) == c
    # NaN targets invert to NaN; targets at or beyond the table's ends as the reference
    nan = np.isnan(y)
    assert np.all(np.isnan(got[nan]))
    assert np.array_equal(got[~inside & ~nan], want[~inside & ~nan])
    if strict:
        assert np.all(np.abs(got - want)[inside] <= w[inside])
    else:
        # y may cross a fuzz scale more than once within a few ulp: where
        # both roots pass the check, their brackets overlap
        both = inside & brackets & ref_brackets
        assert np.all(np.abs(got - want)[both] <= (w + w_ref)[both])


# a scale of each node type with a closed-form inverse, with its state
# interval; the nested piecewise scale has breakpoint images that are not
# exact sums (0.1 + 2 * 1). The shifted cubic folds a constant and an affine
# term to b = -0.25, with its cube centred at c = -1.25 and its factors in
# the other order
_CLOSED_FORM_SCALES = {
    "affine": (Affine(1.5, 0.0), (0.75, RT)),
    "piecewise": FAMILY_SCALES["skew"],
    "piecewise-nested": (
        Piecewise([0.0], [Affine(1.0, 0.1), Piecewise([1.0], [Affine(2.0, 0.1), Affine(0.5, 1.6)])]), (-RT, RT)
    ),
    "cubic": FAMILY_SCALES["cubic"],
    "cubic-shifted": (
        Sum([Const(-0.625), Product([PowerSigned(-1.25, 3.0), Const(0.75)]), Affine(2.5, 0.375)]), (-2.0, RT)
    ),
}


@pytest.mark.parametrize("case", list(_CLOSED_FORM_SCALES))
def test_closed_form_inverse_keeps_the_contract(case):
    # the closed-form root stands where it brackets its target; a table node
    # exactly is a clause of the Newton phases only
    expr, (lo, hi) = _CLOSED_FORM_SCALES[case]
    f = piece(expr, (lo, hi))
    points = np.array(f.special_points)  # the breakpoints
    points = points[(points > lo) & (points < hi)]
    ends = f.value(np.array([e for e in (lo, hi) if math.isfinite(e)]))
    rng = np.random.default_rng(13)
    far = rng.choice([-1.0, 1.0], 500) * 10.0 ** rng.uniform(8, 18, 500)  # out to -+1e18
    y = np.concatenate([_contract_targets(f, rng), far, f.value(points), ends - 1.0, ends + 1.0,
                        np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf)])
    got = invert_monotone_vec(f, y)
    assert np.array_equal(got, invert_closed_form(f, y), equal_nan=True)
    for n in (1, 63, 64, 40_000):
        assert np.array_equal(invert_monotone_vec(f, np.resize(y, n)), np.resize(got, n), equal_nan=True)
    # the 8-ulp bracket at every finite target in the closed image
    f_lo, f_hi = (float(f.value(np.asarray(e))) if math.isfinite(e) else e for e in (lo, hi))
    image = np.isfinite(y) & (y >= f_lo) & (y <= f_hi)
    with np.errstate(all="ignore"):
        w = 8 * np.spacing(np.maximum(np.abs(got), 0.5))
        assert np.all(((f.value(got - w) < y) & (f.value(got + w) >= y))[image])
    # every breakpoint image to its breakpoint exactly
    assert np.array_equal(invert_monotone_vec(f, f.value(points)), points)
    # NaN to NaN; an infinite target, or one beyond the image, as the Newton phases map it
    nan = np.isnan(y)
    assert np.all(np.isnan(got[nan]))
    assert np.array_equal(got[~image & ~nan], invert_monotone_vec(newton_path(f), y[~image & ~nan]))


def test_cubic_without_an_affine_term_inverts_by_a_cube_root():
    # 2 sign(x - 1)|x - 1|^3 + 0.5: a = 0, so the root is 1 - cbrt((0.5 - y)/2)
    # with one Newton step, bit for bit the reference's; f is float-flat
    # around its center 1, where the left edge of {f >= y} lies off the root
    e = Sum([Product([Const(2.0), PowerSigned(1.0, 3.0)]), Const(0.5)])
    rng = np.random.default_rng(17)
    y = 0.5 + rng.choice([-1.0, 1.0], 2000) * 10.0 ** rng.uniform(-3, 18, 2000)
    with np.errstate(all="ignore"):
        assert np.array_equal(e.inverse(y), [closed_form_root(e, v) for v in y.tolist()])
    x = 1.0 + np.cbrt((y - 0.5) / 2.0)
    got = invert_monotone_vec(piece(e), y)
    assert np.all(np.abs(got - x) <= 4 * np.spacing(np.maximum(np.abs(x), 1.0)))
    # no affine term with a negative slope, no second cube, no other power: no closed form
    for bad in (Sum([Affine(-1.0, 0.0), e.terms[0]]), Sum([e.terms[0], e.terms[0]]),
                Sum([Affine(1.0, 0.0), Product([Const(2.0), PowerSigned(1.0, 2.0)])])):
        assert bad.inverse(y) is None


def test_outward_rounding_of_the_stacked_bounds_keeps_the_bits():
    # lo and hi rounded as one (2, ...) array, against one call each
    rng = np.random.default_rng(3)
    x = rng.choice([-1.0, 1.0], (2, 500)) * 10.0 ** rng.uniform(-320, 308, (2, 500))
    x.flat[rng.choice(x.size, 300, replace=False)] = rng.choice([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324], 300)
    lo, hi = np.minimum(x[0], x[1]), np.maximum(x[0], x[1])
    for ulps in (1, 4):
        for a, b in ((lo, hi), (lo[7], hi[7]), (lo.reshape(20, 25), hi.reshape(20, 25))):
            got, want = _outward(a, b, ulps), outward_two_calls(a, b, ulps)
            assert all(np.array_equal(np.asarray(g).view(np.uint64), np.asarray(r).view(np.uint64))
                       for g, r in zip(got, want))


_HANDLE_CASES = {
    **{k: _CONTRACT_SCALES[k]
       for k in ("family-cubic", "family-skew", "fat_cantor", "fat_cantor-closed", "fat_cantor-q_piece", "fuzz-1",
                 "fuzz-7")},
    **{f"inverse-{k}": (lambda k=k: (lambda s: (inverse_piece(s, (-RT, RT)), s))(piece(*FAMILY_SCALES[k])))
       for k in ("cubic", "skew")},
}


@pytest.mark.parametrize("case", list(_HANDLE_CASES))
def test_piece_jets_and_handles_keep_their_bits(case):
    # a piece's jet and its readers give the bits of its outputs read apart:
    # the expression walks, the flat-spot handles, or an inverse's roots
    # with 1/s' and -s''/s'^3 there, on either side, q'_- included
    f, source = _HANDLE_CASES[case]()
    old = piece_with_one_call_per_handle(f, source)
    nx, _, _ = f.node_table
    x = np.concatenate([nx[::7], [c for c, _ in f.kinks], f.special_points])
    with np.errstate(all="ignore"):
        for side in (1, -1):
            for order in (0, 1, 2):
                got = f.jet(x, side, order)
                assert len(got) == order + 1 and all(_same(g, r) for g, r in zip(got, old.jet(x, side, order)))
        for reader in ("value", "d_plus", "d_minus", "d2_ac"):
            assert _same(getattr(f, reader)(x), getattr(old, reader)(x)), reader


@pytest.mark.parametrize("generations", [1, 8, 50])
def test_flat_spot_jet_and_its_q2_keep_the_bits_of_the_three_handles(generations):
    # fat_cantor's q: one jet for q, q' and q'' on either side, and a q''
    # reader of its own, against the handles it replaced
    q = build_model("fat_cantor", {"generations": generations}).q_piece
    core = q.core
    pts = np.concatenate([core.t, core.ends])
    x = np.concatenate([
        np.random.default_rng(generations).uniform(-3.0, 4.0, 4_001), pts,
        np.nextafter(pts, -np.inf), np.nextafter(pts, np.inf), [0.0, -0.0, np.inf, -np.inf, np.nan],
    ])
    with np.errstate(all="ignore"):
        for xs in (x, *(np.asarray(v) for v in x[-5:])):
            for side in (1, -1):
                ref = (flat_spot_q_value(core, xs), flat_spot_q_deriv(core, xs), flat_spot_q_deriv2(core, xs, side))
                for order in (0, 1, 2):
                    got = q.jet(xs, side, order)
                    assert len(got) == order + 1 and all(_same(g, r) for g, r in zip(got, ref)), (side, order)
            assert _same(q.d2_ac(xs), flat_spot_q_deriv2(core, xs))


def test_a_nan_target_inverts_to_nan():
    f = piece(Affine(2.0, 0.0))
    got = invert_monotone_vec(f, np.array([np.nan, 1.0, np.nan]))
    assert np.isnan(got[0]) and got[1] == 0.5 and np.isnan(got[2])
    q = inverse_piece(piece(PowerSigned(0.0, 3.0)), (-RT, RT))
    assert np.isnan(q.value(np.array([np.nan]))[0])


def test_freeze_width_from_the_exponent_bits_equals_eight_spacings():
    rng = np.random.default_rng(2)
    fixed = [0.0, -0.0, 0.5, -0.5, np.nextafter(0.5, 0.0), 1.0, 1e-300, -1e-300, 5e-324, 1.7e308, -1.7e308]
    m = 4092 - len(fixed)
    x = np.concatenate([fixed, rng.choice([-1.0, 1.0], m) * 10.0 ** rng.uniform(-323, 308, m)])
    assert np.array_equal(_eight_ulp(x), 8 * np.spacing(np.maximum(np.abs(x), 0.5)))


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


def test_inverse_piece_holds_no_state_and_returns_fresh_arrays():
    s = piece(PowerSigned(0.0, 3.0))
    q = inverse_piece(s, (-RT, RT))
    assert q.jet.__code__.co_freevars == ("scale",)  # the jet closes over the scale alone
    u = np.linspace(-2.0, 2.0, 9)
    first = q.value(u)
    first[:] = 99.0  # a caller may mutate the result
    again = q.value(u.copy())
    assert np.allclose(again, np.cbrt(u), rtol=1e-14, atol=1e-15)
    assert np.array_equal(again, q.value(u))
    assert not np.shares_memory(again, q.value(u))
    assert np.allclose(q.d_plus(u[u != 0]), 1.0 / (3.0 * np.cbrt(u[u != 0]) ** 2), rtol=1e-12)
    # on either side and at every order, the bits of the root-record inverse
    old = inverse_piece_with_root_record(s, (-RT, RT))
    for side in (1, -1):
        for order in (0, 1, 2):
            assert all(_same(a, b) for a, b in zip(q.jet(u, side, order), old.jet(u, side, order)))


def test_kink_inverse_document_matches_sticky_skew():
    # a skew document without inverse_scale: kink at 4/3, slopes 3/4 -> 1/4,
    # atom 1, r = 1. The numeric inverse must land on the kink.
    doc = json.loads((Path(__file__).resolve().parent / "golden" / "kink.json").read_text())
    got = classify(load_model_spec(doc))
    want = classify(build_model("sticky_skew", {"kappa": 0.75, "c": 1.0, "xi": 4 / 3, "r": 1.0}))
    assert (*got.triple(), got.rp) == (*want.triple(), want.rp) == ("holds",) * 4


_GOLDEN = Path(__file__).resolve().parent / "golden"

# un-annotated skew documents: the kink document, the skew family's first
# document and the family's two-kink scale with an atom at each kink
_SKEW_DOCUMENTS = {
    **{name: (lambda name=name: json.loads((_GOLDEN / f"{name}.json").read_text())) for name in ("kink", "doc01_skew")},
    "two-kinks": lambda: {
        "state_interval": {"alpha": "-inf", "beta": "inf"}, "scale": expr_to_json(FAMILY_SCALES["skew"][0]),
        "speed": {"ac": {"node": "const", "c": 1.0}, "atoms": [[4 / 3, 1.0], [2.5, 0.5]]}, "x0": 0.5, "r": -1.0,
    },
}


def _refuse_root_search(monkeypatch):
    """Make every closed-form root and every Newton phase raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("root search")

    for cls in (Affine, Piecewise, Sum):
        monkeypatch.setattr(cls, "inverse", refuse)
    monkeypatch.setattr(SmoothPiece1D, "node_table", property(refuse))
    monkeypatch.setattr(measure_kit, "_invert_safeguarded", refuse)


@pytest.mark.parametrize("name", list(_SKEW_DOCUMENTS))
def test_kink_reads_take_no_root_search(name, monkeypatch):
    # q' on both sides of each kink image (second_derivative_decomposition,
    # inside derive_natural_scale) and q at each atom (_check_singular_parts)
    # read the images of the scale's kinks, which the inverse maps to the
    # kinks themselves
    spec = load_model_spec(_SKEW_DOCUMENTS[name]())
    kinks = [c for c, _ in spec.scale.kinks]
    _refuse_root_search(monkeypatch)
    view = derive_natural_scale(spec)
    assert [u for u, _ in view.qpp.atoms] == [u for u, _ in view.q.kinks] == list(spec.scale.value(np.array(kinks)))
    assert list(view.q.value(np.array([u for u, _ in view.q.kinks]))) == kinks
    assert len(_check_singular_parts(view, spec, DEFAULT_QUAD)) == len(kinks)


def test_a_declared_inverse_with_a_wrong_kink_jump_still_raises():
    # the kink document's inverse declared as q_piece, its kink jump doubled:
    # the jump is read at the kink image and checked against the slopes there
    spec = load_model_spec(_SKEW_DOCUMENTS["kink"]())
    q = inverse_piece(spec.scale, (-RT, RT))
    [(u, jump)] = q.kinks
    with pytest.raises(KinkMismatchError):
        derive_natural_scale(dataclasses.replace(spec, q_piece=dataclasses.replace(q, kinks=((u, 2 * jump),))))


def test_compose_kink_image_inverts_to_its_kink(monkeypatch):
    # 3 * (0 + 0.1) is 0.30000000000000004, and 0.30000000000000004 / 3 is not
    # 0.1: an outer-then-inner root misses the kink 0, but the kink's image
    # maps to it with no root search
    spec = load_model_spec(json.loads((_GOLDEN / "compose_kink.json").read_text()))
    [(c, _)] = spec.scale.kinks
    u = spec.scale.value(np.array([c]))
    _refuse_root_search(monkeypatch)
    assert c == 0.0 and invert_monotone_vec(spec.scale, u).tolist() == [c]
    assert derive_natural_scale(spec).q.value(u).tolist() == [c]


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
    assert abs(measure_mass(mu, -1.3, 2.2) - 3.5) < 1e-8


def test_pushforward_atom_moves_with_map():
    rho = 0.7
    m = DecomposedMeasure(
        support=(1.0, RT), ac_density=lambda x: np.ones_like(x), atoms=((1.0, rho),)
    )
    s = piece(Affine(1, 0), domain=(1.0, RT))
    mu = pushforward(m, s, inverse_piece(s, (1.0, RT)))
    assert mu.atoms == ((1.0, rho),)
    assert abs(measure_mass(mu, 1.0, 2.0) - (1.0 + rho)) < 1e-8


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
        lhs = measure_mass(m, a, b)
        rhs = measure_mass(mu, float(s.value(np.asarray(a))), float(s.value(np.asarray(b))))
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
        got = measure_mass(dec, x, y) - sum(mass for pt, mass in dec.atoms if pt == x)
        assert abs(got - expect) <= 1e-8 * max(1.0, abs(expect))


def test_sampled_tv_flags_exploding_derivative():
    # q(u) = sign(u) sqrt|u| has q' blowing up at 0: not DC
    q = piece(PowerSigned(0, 0.5))
    _, stable = sampled_total_variation(q.d_plus, (-1.0, 1.0))
    assert not stable


# the sampled check misses a blow-up that falls far enough between its grid
# points: these c pass as stable (563 of 1,000 uniform c in (-0.9, 0.9) do)
_TV_MISSES = [
    pytest.param(c, marks=pytest.mark.xfail(strict=True, reason="blow-up between grid points reads as BV"))
    for c in (1 / 3, 0.1, -0.6, 1 / 7)
]


@pytest.mark.parametrize("c", [0.0, 0.5, -0.5, 0.25, 0.3, -0.7, 0.123, *_TV_MISSES])
def test_sampled_tv_flags_an_inverse_square_root_at_any_point(c):
    # |x - c|^(-1/2) is not BV near c, and |x - c|^(1/2) is
    _, stable = sampled_total_variation(lambda x: np.abs(x - c) ** 0.5, (-1.0, 1.0))
    assert stable
    with np.errstate(divide="ignore"):
        _, stable = sampled_total_variation(lambda x: np.abs(x - c) ** -0.5, (-1.0, 1.0))
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


@pytest.mark.parametrize("context", [0.0, 3.7])
def test_dyadic_probe_in_batches_equals_the_level_by_level_oracle(context):
    # |x|^e over exponents on both sides of the divergence threshold -1:
    # the same status and level sums, from one call of g for levels 1-4 and
    # one per 8 levels after
    for e in np.linspace(-1.6, 2.0, 37):
        for direction in (-1, 1):
            calls = []

            def g(x, e=e):
                calls.append(x.size)
                return np.abs(x) ** e

            got = _dyadic_probe(g, 0.0, direction, 0.5, context)
            assert got == dyadic_probe_level_by_level(lambda x, e=e: np.abs(x) ** e, 0.0, direction, 0.5, context)
            assert len(calls) <= 1 + math.ceil(max(0, len(got[1]) - 4) / 8)


def test_dyadic_probe_raises_only_at_a_level_it_reaches():
    # |x|^2 is decided finite at level k; g raises at every node of level
    # k + 1 on, which shares a batch with level k, or from level k on
    status, vals = dyadic_probe_level_by_level(lambda x: np.abs(x) ** 2, 0.0, 1, 1.0, 0.0)
    k = len(vals)
    assert status == "finite" and k % 8 != 4  # batches end at levels 4, 12, 20, ...: k + 1 shares k's

    def raising_from(level):
        def g(x):
            if np.any(np.abs(x) < 2.0 ** (1 - level)):
                raise MeasureKitError("no value this deep")
            return np.abs(x) ** 2

        return g

    assert _dyadic_probe(raising_from(k + 1), 0.0, 1, 1.0, 0.0) == (status, vals)
    for probe in (_dyadic_probe, dyadic_probe_level_by_level):
        with pytest.raises(MeasureKitError):
            probe(raising_from(k), 0.0, 1, 1.0, 0.0)


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


def _screen_blocks() -> list[tuple[np.ndarray, list, list]]:
    """Blocks of 4 rows of 1,023 values, with their windows and known points:
    random rows spanning 0 to 12 decades, and the edge cases of a row whose
    largest value is at most 1e6 times its smallest."""
    rng = np.random.default_rng(27)
    windows = [(-1.0, 1.0), (1.0, 2.5), (2.5, 3.0), (3.0, 7.0)]
    none: list[list[float]] = [[] for _ in windows]
    blocks = []
    for decades in (0.0, 3.0, 5.9, 6.0, 6.1, 8.0, 12.0):
        for _ in range(8):
            rows = rng.choice([-1.0, 1.0], (4, 1023)) * 10.0 ** rng.uniform(0.0, decades, (4, 1023))
            blocks.append((rows * 10.0 ** rng.uniform(-30, 30, (4, 1)), windows, none))
    ones = np.ones((4, 1023))
    at = 1e6 * (1.0 + 1e-300)  # the flag bound of a row of ones: exactly 1e6 times its smallest
    spikes = ones.copy()
    spikes[:, 400] = [at, np.nextafter(at, 0.0), np.nextafter(at, np.inf), 1e6 * np.nextafter(1.0, np.inf)]
    blocks.append((spikes, windows, none))
    bumpy = 1.0 + rng.uniform(size=(4, 1023))  # a spike at the median's bound, and one ulp either side
    for i, m in enumerate(np.median(bumpy, axis=1)):
        bound = 1e6 * (m + 1e-300)
        bumpy[i, [100, 500, 900]] = [bound, np.nextafter(bound, 0.0), np.nextafter(bound, np.inf)]
    blocks.append((bumpy, windows, none))
    odd = ones.copy()
    odd[0] = 0.0  # all zero
    odd[1, 7] = 0.0  # a zero smallest value
    odd[2, :600] = 0.0  # a zero median
    odd[3, [5, 800]] = np.nan, -np.inf
    blocks.append((odd, windows, none))
    blocks.append((np.where(rng.uniform(size=(4, 1023)) < 0.01, np.inf, ones), windows, none))
    huge = np.full((4, 1023), np.inf) * [[1.0], [-1.0], [np.nan], [1.0]]
    huge[3, 1:] = 1e303  # finite values whose bound overflows, and an infinite one
    blocks.append((huge, windows, none))
    known = spikes.copy()
    known[:, [100, 700]] = np.inf
    nodes = window_nodes(*np.array(windows).T)
    blocks.append((known, windows, [[nodes[i, 401]] for i in range(4)]))  # hides the spike at 400
    return blocks


def test_a_quiet_row_skips_its_median_and_flags_what_every_median_flags():
    found = []
    for rows, windows, known in _screen_blocks():
        with np.errstate(over="ignore"):
            got, want = _detect_suspicious(rows, windows, known), detect_suspicious_every_median(rows, windows, known)
        assert got == want
        found += got
    # both kinds of row occur: some flag points, others none
    assert sum(map(bool, found)) > 20 and sum(not f for f in found) > 20


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


@pytest.mark.parametrize("n", [1, 3, 7, 101, 1023, 1025, 2, 1024])
def test_row_medians_equal_np_median_bit_for_bit(n):
    # ties, zeros, subnormals and values near 1e300, in every row
    rng = np.random.default_rng(n)
    pool = np.array([0.0, 0.0, 5e-324, 1e-300, 1.0, 1.0, 2.5, 1e300, np.nextafter(1e300, np.inf), 1.7976931348623157e308])
    rows = np.concatenate([
        rng.choice(pool, (8, n)),
        1e300 * (1.0 + rng.integers(0, 4, (8, n)) * np.finfo(float).eps),
        rng.uniform(0.0, 1.0, (8, n)) * 10.0 ** rng.integers(-300, 301, (8, n)),
    ])
    assert _row_medians(rows).tobytes() == np.median(rows, axis=1).tobytes()


# ---------------------------------------------------------------------------
# measures: construction and serialization
# ---------------------------------------------------------------------------


def test_atoms_sorted_and_infinite_only_at_boundary():
    with pytest.raises(MeasureKitError):
        DecomposedMeasure(support=(0.0, 10.0), atoms=((2.0, 1.0), (1.0, 1.0)))
    with pytest.raises(MeasureKitError):
        DecomposedMeasure(support=(0.0, 10.0), atoms=((5.0, math.inf),))
    m = DecomposedMeasure(support=(0.0, 10.0), atoms=((0.0, math.inf),))
    assert math.isinf(measure_mass(m, 0.0, 1.0))


def test_measure_json_round_trip():
    obj = {
        "ac": {"node": "affine", "a": 0.0, "b": 2.0},
        "atoms": [[1.0, 0.5], [3.0, "inf"]],
        "sc": None,
    }
    m = measure_from_json(obj, support=(0.0, 3.0))
    assert m.atoms[0] == (1.0, 0.5)
    assert math.isinf(m.atoms[1][1])
    assert abs(measure_mass(m, 0.0, 1.0) - (2.0 + 0.5)) < 1e-9


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
