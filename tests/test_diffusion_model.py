"""Boundary classification, natural-scale derivation, standing assumption."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from diffarb import diffusion_model
from diffarb.arb_classifier import check_nip
from diffarb.diffusion_model import (
    DiffusionSpec,
    SpecValidationError,
    StateInterval,
    _scale_limit,
    check_semimartingale_assumption,
    classify_boundary,
    derive_natural_scale,
    load_model_spec,
)
from diffarb.measure_kit import (
    Affine,
    Compose,
    Const,
    DecomposedMeasure,
    PowerAbs,
    PowerSigned,
    SmoothPiece1D,
    Sum,
    decide_abs_integral,
)
from diffarb.model_catalog import CATALOG, build_model

from oracles import build_with_speed_natural, catalog_speed_natural

INF = math.inf


def test_state_interval_validation():
    with pytest.raises(SpecValidationError):
        StateInterval(2.0, 1.0)
    with pytest.raises(SpecValidationError):
        StateInterval(-INF, 1.0, alpha_closed=True)


# ---------------------------------------------------------------------------
# boundary classification
# ---------------------------------------------------------------------------


def _log_jet(x, side=1, order=1):
    x = np.asarray(x, float)
    with np.errstate(divide="ignore"):
        return (np.log(x), 1.0 / x, -1.0 / x**2)[: order + 1]


def _log_scale_spec(declared=()):
    """J = (0, inf) with scale log x: the left image is -inf."""
    scale = SmoothPiece1D(domain=(0.0, INF), jet=_log_jet)
    speed = DecomposedMeasure(support=(0.0, INF), ac_density=lambda x: np.ones_like(np.asarray(x, float)))
    return DiffusionSpec(StateInterval(0.0, INF), scale, speed, x0=1.0, r=0.0, declared_boundaries=declared)


def _power_speed_spec(p, atoms=(), closed=True, declared=(), exact=False):
    """J = [1, inf) with scale 2x + 1 and speed density |x - 1|^p, a Python
    function or, with ``exact``, a ``power_abs`` node: the collar integral
    at 1 behaves like that of |y - 1|^(p + 1)."""
    dens = PowerAbs(1.0, p) if exact else lambda x: np.abs(np.asarray(x, float) - 1.0) ** p
    speed = DecomposedMeasure(support=(1.0, INF), ac_density=dens, atoms=atoms)
    return DiffusionSpec(
        StateInterval(1.0, INF, alpha_closed=closed),
        SmoothPiece1D.from_expr(Affine(2.0, 1.0), (1.0, INF)),
        speed,
        x0=2.0,
        r=0.0,
        declared_boundaries=declared,
    )


_INCONCLUSIVE = "accessibility test inconclusive"


@pytest.mark.parametrize(
    "make, side, kind, stick, note, value, image",
    [
        (lambda: build_model("brownian_motion"), "left", "inaccessible", 0.0, "infinite endpoint", -INF, -INF),
        (lambda: build_model("brownian_motion"), "right", "inaccessible", 0.0, "infinite endpoint", INF, INF),
        (_log_scale_spec, "left", "inaccessible", 0.0, "scale image infinite", 0.0, -INF),
        (lambda: build_model("sticky_reflected_bm", {"rho": 0.7}), "left", "reflecting", 0.7, "", 1.0, 1.0),
        (lambda: build_model("gen_squared_bessel", {"m0": INF}), "left", "absorbing", 0.0, "", 0.0, 0.0),
        (lambda: _power_speed_spec(-2.5, closed=False), "left", "inaccessible", 0.0,
         "speed-weighted scale integral diverges", 1.0, 3.0),
        # |y - 1|^-0.84 converges too slowly for the dyadic probe to decide
        (lambda: _power_speed_spec(-1.84, ((1.0, 0.5),), declared=(("left", "reflecting"),)), "left",
         "reflecting", 0.5, _INCONCLUSIVE + "; declaration used", 1.0, 3.0),
        (lambda: _power_speed_spec(-1.84, ((1.0, 0.5),)), "left",
         "inaccessible", 0.0, _INCONCLUSIVE + " and no declaration given", 1.0, 3.0),
    ],
    ids=["bm_left", "bm_right", "image_infinite", "reflecting_sticky", "absorbing_infinite_atom",
         "divergent", "inconclusive_declared", "inconclusive_undeclared"],
)
def test_classify_boundary_exits(make, side, kind, stick, note, value, image):
    beh = classify_boundary(make(), side)
    assert (beh.kind, beh.stickiness, beh.note, beh.value, beh.image) == (kind, stick, note, value, image)


_GOLDEN = Path(__file__).resolve().parent / "golden"


def _collar_document(alpha, a, dens, atom, kind):
    """A sticky (finite ``atom``) or absorbing (``"inf"``) Bachelier
    document: J = [alpha, inf), scale a x, constant speed density."""
    return load_model_spec({
        "state_interval": {"alpha": alpha, "beta": "inf", "alpha_closed": True},
        "scale": {"node": "affine", "a": a, "b": 0.0},
        "speed": {"ac": {"node": "const", "c": dens}, "atoms": [[alpha, atom]]},
        "x0": alpha + 0.5, "r": 0.5, "boundaries": {"left": kind},
    })


# left ends whose collar integrand |s(b) - s(y)| m_ac(y) is bounded: the
# sticky and absorbing families, a sticky end under a cubic scale and the
# catalog's sticky reflected Brownian motion
_BOUNDED_COLLARS = {
    **{name: (lambda name=name: load_model_spec(json.loads((_GOLDEN / f"{name}.json").read_text())))
       for name in ("doc00_sticky", "doc02_absorbing", "doc05_sticky_cubic")},
    "sticky": lambda: _collar_document(0.75, 1.5, 2.0, 0.25, "reflecting"),
    "sticky-at-one": lambda: _collar_document(1.0, 0.25, 0.375, 3.0, "reflecting"),
    "absorbing-at-zero": lambda: _collar_document(0.0, 2.5, 1.25, "inf", "absorbing"),
    "absorbing-at-one": lambda: _collar_document(1.0, 0.5, 2.75, "inf", "absorbing"),
    "sticky_reflected_bm": lambda: build_model("sticky_reflected_bm"),
    "sticky_reflected_bm-rho": lambda: build_model("sticky_reflected_bm", {"rho": 0.7, "r": 2.0}),
    # a density with no leading-power rule: the certificate alone decides
    "sum-density": lambda: _with_density(build_model("sticky_reflected_bm"), Sum([Const(0.5), Affine(0.25, 0.0)])),
}


def _with_density(spec, dens):
    return dataclasses.replace(spec, speed=dataclasses.replace(spec.speed, ac_density=dens))


def _count_probes(monkeypatch) -> list:
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return decide_abs_integral(*args, **kwargs)

    monkeypatch.setattr(diffusion_model, "decide_abs_integral", counted)
    return calls


@pytest.mark.parametrize("case", list(_BOUNDED_COLLARS))
def test_a_bounded_collar_is_certified_as_the_probe_decides_it(case, monkeypatch):
    # the same density read as a function is never certified: the probe's answer
    spec = _BOUNDED_COLLARS[case]()
    dens = spec.speed.ac_density
    probed = dataclasses.replace(spec, speed=dataclasses.replace(spec.speed, ac_density=lambda x: dens(x)))
    calls = _count_probes(monkeypatch)
    want = classify_boundary(probed, "left")
    assert len(calls) == 1
    got = classify_boundary(spec, "left")
    assert len(calls) == 1 and got == want and got.accessible


@pytest.mark.parametrize("p", [-1.95, -1.84, -1.5, -1.2, -1.0, -0.5, 0.0, 1.5])
def test_a_power_abs_density_is_an_exit_end_by_the_power_rule(p, monkeypatch):
    # e_s + e_m = 1 + p > -1: accessible, with no probe and no bounds; the
    # same density as a function reads wrong from the probe at p <= -1.5
    calls = _count_probes(monkeypatch)
    monkeypatch.setattr(PowerAbs, "bounds", None)
    beh = classify_boundary(_power_speed_spec(p, ((1.0, 0.5),), exact=True), "left")
    assert (beh.kind, beh.stickiness, beh.note, calls) == ("reflecting", 0.5, "", [])


def test_a_power_abs_pole_past_the_rule_is_inaccessible_without_a_probe(monkeypatch):
    calls = _count_probes(monkeypatch)
    beh = classify_boundary(_power_speed_spec(-2.5, closed=False, exact=True), "left")
    assert (beh.kind, beh.note, calls) == ("inaccessible", "speed-weighted scale integral diverges", [])


@pytest.mark.parametrize("p", [-2.0, -2.0 + 1e-12])
def test_a_power_sum_within_the_margin_of_minus_one_takes_the_probe(p, monkeypatch):
    # |y - 1|^(p + 1) at the border of integrability: neither the rule nor
    # the certificate (the density is unbounded) decides
    calls = _count_probes(monkeypatch)
    classify_boundary(_power_speed_spec(p, ((1.0, 0.5),), exact=True), "left")
    assert len(calls) == 1


@pytest.mark.parametrize("p", [-2.5, -1.84, -0.5, "no-bounds"])
def test_a_collar_without_a_certificate_takes_the_probe(p, monkeypatch):
    # the density |y - 1|^p, unbounded at the end for p < 0, and a constant
    # density written as an expression node with no bounds rule
    if p == "no-bounds":
        spec = _power_speed_spec(0.0, ((1.0, 0.5),))
        spec = dataclasses.replace(
            spec, speed=dataclasses.replace(spec.speed, ac_density=Compose(Const(1.0), Affine(1.0, 0.0)))
        )
    else:
        spec = _power_speed_spec(p, ((1.0, 0.5),))
    calls = _count_probes(monkeypatch)
    classify_boundary(spec, "left")
    assert len(calls) == 1


@pytest.mark.parametrize(
    "make, match",
    [
        (lambda: dataclasses.replace(build_model("brownian_motion"), declared_boundaries=(("left", "reflecting"),)),
         r"declared reflecting \(infinite endpoint\)"),
        (lambda: _log_scale_spec((("left", "absorbing"),)), r"declared absorbing \(scale image infinite\)"),
        (lambda: dataclasses.replace(build_model("sticky_reflected_bm"), J=StateInterval(1.0, INF)),
         "accessible but excluded from the state interval"),
        (lambda: _power_speed_spec(-1.84, ((1.0, 0.5),), closed=False, declared=(("left", "reflecting"),)),
         "accessible but excluded from the state interval"),
    ],
    ids=["infinite_endpoint_declared", "image_infinite_declared", "accessible_end_open", "declared_end_open"],
)
def test_classify_boundary_errors(make, match):
    with pytest.raises(SpecValidationError, match=match):
        classify_boundary(make(), "left")


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_scale_limit_reads_an_infinite_end_in_one_call(name):
    spec = build_model(name)
    args = []

    def counted(x, side=1, order=1):
        args.append(np.asarray(x))
        return spec.scale.jet(x, side, order)

    scale = dataclasses.replace(spec.scale, jet=counted)
    for side, b in (("left", spec.J.alpha), ("right", spec.J.beta)):
        if math.isinf(b):
            args.clear()
            assert _scale_limit(scale, b, side) == classify_boundary(spec, side).image
            assert len(args) == 1
            assert np.array_equal(args[0], math.copysign(1.0, b) * 10.0 ** np.arange(1, 12))


def test_declaration_conflict_is_error():
    spec = build_model("sticky_reflected_bm")
    bad = DiffusionSpec(
        **{**spec.__dict__, "declared_boundaries": (("left", "inaccessible"),)}
    )
    with pytest.raises(SpecValidationError):
        classify_boundary(bad, "left")


def test_absorbing_start_rejected():
    # x0 at an absorbing boundary is excluded by the standing assumptions
    with pytest.raises(SpecValidationError, match="absorbing"):
        spec = build_model("gen_squared_bessel", {"m0": INF, "x0": 1.0})
        spec = DiffusionSpec(**{**spec.__dict__, "x0": 0.0})
        derive_natural_scale(spec)


# ---------------------------------------------------------------------------
# natural-scale derivation
# ---------------------------------------------------------------------------


def test_bm_fields_vanish():
    spec = build_model("brownian_motion", {"r": 0.0})
    view = derive_natural_scale(spec)
    u = np.linspace(-3, 3, 13)
    assert np.allclose(view.phi(u), 0.0)
    assert np.allclose(view.drift_over_slope(view.chart(u), 2), 0.0)


def test_cubed_bm_phi_is_one_over_u():
    view = derive_natural_scale(build_model("cubed_bm"))
    u = np.array([-2.0, -0.5, 0.5, 3.0])
    assert np.allclose(view.phi(u), 1.0 / u, rtol=1e-12)
    assert view.phi(np.array([0.0]))[0] == 0.0  # indicator at the flat point


def test_squared_bessel_gamma_matches_price_form():
    # gamma(U_t) must equal delta / (4 Y_t) with Y = q(U)
    delta = 1.0
    view = derive_natural_scale(build_model("squared_bessel", {"delta": delta}))
    u = np.array([0.4, 1.0, 1.7])
    y = np.asarray(view.q.value(u), float)
    assert np.allclose(view.drift_over_slope(view.chart(u), 2), delta / (4 * y), rtol=1e-10)


def test_view_round_trip_q_of_scale():
    spec = build_model("sticky_skew")
    view = derive_natural_scale(spec)
    xs = np.linspace(-2, 4, 23)
    us = np.asarray(spec.scale.value(xs), float)
    assert np.allclose(np.asarray(view.q.value(us), float), xs, rtol=1e-10, atol=1e-10)


# ---------------------------------------------------------------------------
# semimartingale standing assumption
# ---------------------------------------------------------------------------


def test_cube_passes_assumption():
    spec = build_model("cubed_bm")
    view = derive_natural_scale(spec)
    assert check_semimartingale_assumption(view, spec).passed


def test_sqrt_abs_bm_fails_assumption():
    # scale sign(x) x^2 means q(u) = sign(u) sqrt|u|: q' explodes at 0 with
    # non-integrable variation; the price process is not a semimartingale
    J = StateInterval(-INF, INF)
    scale = SmoothPiece1D.from_expr(PowerSigned(0.0, 2.0), (J.alpha, J.beta))
    spec = DiffusionSpec(
        J=J,
        scale=scale,
        speed=DecomposedMeasure(support=(J.alpha, J.beta), ac_density=lambda x: np.ones_like(x)),
        x0=1.0,
        r=0.0,
        q_expr=PowerSigned(0.0, 0.5),
    )
    view = derive_natural_scale(spec)
    report = check_semimartingale_assumption(view, spec)
    assert not report.passed


def test_affine_passes_assumption():
    spec = build_model("brownian_motion")
    view = derive_natural_scale(spec)
    assert check_semimartingale_assumption(view, spec).passed


@pytest.mark.parametrize(
    "name, exponent, note",
    [
        ("doc02_absorbing", -2.5, "|q''| distance-weighted integral near s(left) is divergent"),
        ("doc05_sticky_cubic", -1.0, "|q''| integral near s(left) is divergent"),
    ],
)
def test_qpp_collar_condition_fails_by_the_declared_exponent(name, exponent, note):
    # |q''| ~ |u - s(b)|^exponent at the boundary image: at an absorbing end
    # the distance weight raises the exponent by one, at a reflecting end
    # nothing does; over the state chart the exponent rule decides as over u
    doc = json.loads((Path(__file__).resolve().parent / "golden" / f"{name}.json").read_text())
    image = derive_natural_scale(load_model_spec(doc)).sJ[0]
    doc["qpp_behaviors"] = [{"point": image, "side": "right", "exponent": exponent, "coeff": 1.0}]
    spec = load_model_spec(doc)
    report = check_semimartingale_assumption(derive_natural_scale(spec), spec)
    assert report.failures() == [note]


# ---------------------------------------------------------------------------
# drift of the discounted price: boundary term, atoms, density
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("r,rho,expect_zero", [(0.5, 1.0, True), (0.5, 0.9, False), (0.0, 1.0, False)])
def test_decomposition_sticky_boundary_term(r, rho, expect_zero):
    # the NIP.i.b residual is the sticky-atom drift r b mU({s(b)}) net of
    # the local-time coefficient q'_+(s(b))/2
    spec = build_model("sticky_reflected_bm", {"r": r, "rho": rho})
    view = derive_natural_scale(spec)
    _, reports = check_nip(view, spec)
    (term,) = [c for c in reports if c.id == "NIP.i.b"]
    assert 0.5 * view.boundary_slope("left") == 0.5
    assert (abs(term.residual) < 1e-12) == expect_zero


def test_decomposition_skew_atom():
    # pure skew at zero rate: the drift atom, the NIP.ii residual up to its
    # sign, is the half kink jump
    spec = build_model("sticky_skew", {"r": 0.0, "kappa": 0.75, "c": 1.0, "xi": 0.0})
    _, reports = check_nip(derive_natural_scale(spec), spec)
    (atom,) = [c for c in reports if c.id == "NIP.ii"]
    kappa = 0.75
    assert abs(-atom.residual - 0.5 * (2 * kappa - 1) / ((1 - kappa) * kappa)) < 1e-12


def test_smooth_drift_matches_half_q2():
    # r = 0 and polynomial q: classical relation drift density = q''(x)/2
    view = derive_natural_scale(build_model("cubed_bm", {"r": 0.0}))
    u = np.linspace(-1.5, 1.5, 11)
    assert np.allclose(view.drift_over_slope(u, 0), 0.5 * 6.0 * u, rtol=1e-12)


_SPEED_MISMATCH = "declared natural-scale speed disagrees with pushforward"


def _speed_natural_scaled(spec, factor):
    dens = spec.speed_natural.ac_density
    off = dataclasses.replace(spec.speed_natural, ac_density=lambda u: factor * np.asarray(dens(u), float))
    return dataclasses.replace(spec, speed_natural=off)


# every entry at its defaults with its closed-form natural-scale speed
# declared, and fat_cantor, which declares its own, over generations and
# starts: it declares a q' = 0 set, so its pushforward is undefined, and the
# pointwise check needs none
_DECLARED_SPEEDS = [(name, {}) for name in sorted(CATALOG) if name != "fat_cantor"] + [
    ("fat_cantor", {"generations": g, "u0": u0}) for g in (1, 3, 6, 7, 8) for u0 in (0.1, 0.5, 0.9)
]


@pytest.mark.parametrize("name, params", _DECLARED_SPEEDS)
def test_declared_speed_density_is_checked_pointwise(name, params):
    # 1e-4 relative at each node: 1 % and 0.02 % off are refused, 0.005 % passes
    spec = build_model(name, params) if name == "fat_cantor" else build_with_speed_natural(name, params)
    derive_natural_scale(spec)
    derive_natural_scale(_speed_natural_scaled(spec, 1 + 5e-5))
    for eps in (1e-2, 2e-4):
        with pytest.raises(SpecValidationError, match=_SPEED_MISMATCH):
            derive_natural_scale(_speed_natural_scaled(spec, 1 + eps))


_SPEED_FAMILIES = [
    *(("brownian_motion", {"r": r, "x0": x0}) for r in (0.0, 0.3, -1.0) for x0 in (0.0, 2.5)),
    *(("sticky_reflected_bm", {"r": r, "rho": rho}) for r in (0.0, 0.5) for rho in (0.0, 0.9, 1.0, 3.0)),
    *(("squared_bessel", {"delta": d}) for d in (0.1, 0.5, 1.0, 4 / 3, 1.5, 1.9)),
    *(("gen_squared_bessel", {"nu": nu, "r": r, "m0": m0})
      for nu in (-0.9, -0.5, -0.1) for r in (0.0, 0.1) for m0 in (0.0, 1.0, INF)),
    *(("cubed_bm", {"x0": x0}) for x0 in (1.0, -2.0)),
    *(("sticky_skew", {"kappa": k, "xi": xi, "c": c, "r": 1.0})
      for k in (0.1, 0.5, 0.75, 0.9) for xi in (-2.0, 0.0, 4 / 3) for c in (0.5, 1.0)),
]


@pytest.mark.parametrize("name, params", _SPEED_FAMILIES)
def test_pushed_speed_equals_the_closed_form_natural_speed(name, params):
    # the pushforward of the state speed through the declared q against the
    # natural-scale speed each family once declared: the same atoms, and the
    # same density to 1e-14 relative away from u = 0
    spec = build_model(name, params)
    got, want = derive_natural_scale(spec).mU, catalog_speed_natural(name, params)
    assert got.atoms == want.atoms and got.support == want.support
    u = np.concatenate([np.logspace(-6, 3, 400), -np.logspace(-6, 3, 400), np.linspace(-7.0, 7.0, 301)])
    u = u[(u > want.support[0]) & (u < want.support[1]) & (u != 0.0)]
    g, w = np.asarray(got.ac_density(u), float), np.asarray(want.ac_density(u), float)
    assert np.all(np.abs(g - w) <= 1e-14 * np.abs(w)), np.max(np.abs(g - w) / np.abs(w))
    if name == "sticky_skew":  # at the kink image, the right-hand value, as a Piecewise reads it
        assert float(got.ac_density(np.array([0.0]))[0]) == pytest.approx((1.0 - params["kappa"]) ** -2.0, rel=1e-14)


def test_flat_spot_consistency_guard():
    # on each flat interval of fat_cantor q'' vanishes and r = 0, so NIP.iii
    # holds exactly
    spec = build_model("fat_cantor")
    _, reports = check_nip(derive_natural_scale(spec), spec)
    flat = [c for c in reports if c.id == "NIP.iii"]
    assert len(flat) == 7
    assert all(c.status == "pass" and c.residual == 0.0 for c in flat)


# ---------------------------------------------------------------------------
# model-spec documents
# ---------------------------------------------------------------------------


def _bm_doc():
    return {
        "model_id": "doc_bm",
        "state_interval": {"alpha": "-inf", "beta": "inf"},
        "scale": {"node": "affine", "a": 1.0, "b": 0.0},
        "speed": {"ac": {"node": "const", "c": 1.0}, "atoms": [], "sc": None},
        "x0": 0.0,
        "r": 0.0,
        "horizon": 1.0,
    }


def test_load_model_spec_round_trip():
    spec = load_model_spec(_bm_doc())
    assert spec.model_id == "doc_bm"
    view = derive_natural_scale(spec)
    assert view.sJ == (-INF, INF)


def test_load_model_spec_rejects_unknown_fields():
    doc = _bm_doc()
    doc["extra_knob"] = 1
    with pytest.raises(SpecValidationError, match="extra_knob"):
        load_model_spec(doc)


def test_load_model_spec_requires_core_fields():
    doc = _bm_doc()
    del doc["speed"]
    with pytest.raises(SpecValidationError, match="speed"):
        load_model_spec(doc)


def test_load_model_spec_sticky_boundary():
    doc = {
        "state_interval": {"alpha": 1.0, "beta": "inf", "alpha_closed": True},
        "scale": {"node": "affine", "a": 1.0, "b": 0.0},
        "speed": {"ac": {"node": "const", "c": 1.0}, "atoms": [[1.0, 1.0]], "sc": None},
        "x0": 1.5,
        "r": 0.5,
        "boundaries": {"left": "reflecting"},
    }
    spec = load_model_spec(doc)
    assert classify_boundary(spec, "left").stickiness == 1.0


_PUSHED_AT_ZERO = """
import numpy as np
from diffarb.diffusion_model import derive_natural_scale
from diffarb.model_catalog import build_model
from oracles import catalog_speed_natural
u = np.array([0.0, 0.25, 1.5])
for name, params in [("squared_bessel", {"delta": d}) for d in (0.5, 1.0, 1.5)] + [("cubed_bm", {})]:
    got = derive_natural_scale(build_model(name, params)).mU.ac_density(u)
    want = np.asarray(catalog_speed_natural(name, params).ac_density(u), float) * np.ones_like(u)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0) and got[0] == want[0], (name, params, got, want)
    print(got[0])
"""


def test_a_pushed_density_reads_its_one_sided_limit_where_q_prime_vanishes():
    # at u = 0 the state density is infinite and q' = 0: the pushed density
    # is the limit from inside, c_u |u|^(p - 2) at 0 for the squared Bessel
    # entries (+inf, 1 and 0 for delta = 0.5, 1, 1.5) and 1 for cubed_bm,
    # with no numpy warning under python -W error
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    argv = [sys.executable, "-W", "error", "-c", _PUSHED_AT_ZERO]
    proc = subprocess.run(argv, capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0 and proc.stderr == b"", proc.stderr.decode()
    assert proc.stdout.decode().split() == ["inf", "1.0", "0.0", "1.0"]
