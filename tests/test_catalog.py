"""Golden agreement: the classifier must reproduce every expected verdict."""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from diffarb.arb_classifier import classify, verdict_to_json
from diffarb.diffusion_model import load_model_spec
from diffarb.model_catalog import (
    _FlatSpotInverseScale,
    _RANGE_RULES,
    CATALOG,
    build_model,
    catalog_names,
    expected_verdict,
    fat_complement_components,
)

from oracles import expr_to_json, fat_cantor_dist_by_component, flat_spot_segment

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402  the benchmark's catalog inputs

INF = math.inf

# a fixed sweep of (entry, params): every catalog model over a parameter
# grid covering both sides of each equality predicate
SWEEP = [
    ("brownian_motion", {"r": 0.0}),
    ("brownian_motion", {"r": 0.2}),
    ("brownian_motion", {"r": -1.0, "x0": 2.0}),
    ("sticky_reflected_bm", {"r": 0.5, "rho": 1.0}),
    ("sticky_reflected_bm", {"r": 0.25, "rho": 2.0}),
    ("sticky_reflected_bm", {"r": 1.0, "rho": 0.5}),
    ("sticky_reflected_bm", {"r": 0.5, "rho": 0.9}),
    ("sticky_reflected_bm", {"r": 0.0, "rho": 1.0}),
    ("sticky_reflected_bm", {"r": 0.0, "rho": 0.0}),
    ("sticky_reflected_bm", {"r": 2.0, "rho": 1.0}),
    ("sticky_reflected_bm", {"r": -0.5, "rho": 1.0}),
    ("squared_bessel", {"delta": 0.5}),
    ("squared_bessel", {"delta": 1.0}),
    ("squared_bessel", {"delta": 1.5}),
    ("squared_bessel", {"delta": 0.25, "x0": 0.5}),
    ("squared_bessel", {"delta": 1.9, "x0": 2.0}),
    ("cubed_bm", {}),
    ("cubed_bm", {"x0": -1.0}),
    ("fat_cantor", {}),
    ("fat_cantor", {"generations": 4}),
    ("fat_cantor", {"generations": 12}),
    ("sticky_skew", {"kappa": 0.75, "c": 1.0, "xi": 4.0 / 3.0, "r": 1.0}),
    ("sticky_skew", {"kappa": 0.75, "c": 1.0, "xi": 4.0 / 3.0, "r": 0.9}),
    ("sticky_skew", {"kappa": 0.75, "c": 1.0, "xi": 4.0 / 3.0, "r": 0.0}),
    ("sticky_skew", {"kappa": 0.75, "c": 2.0, "xi": 4.0 / 3.0, "r": 0.5}),
    ("sticky_skew", {"kappa": 0.25, "c": 1.0, "xi": -4.0 / 3.0, "r": 1.0}),
    ("sticky_skew", {"kappa": 0.25, "c": 1.0, "xi": 1.0, "r": 1.0}),
    ("sticky_skew", {"kappa": 0.6, "c": 0.5, "xi": 2.0, "r": 5.0 / 12.0}),  # identity holds
    ("sticky_skew", {"kappa": 0.6, "c": 0.5, "xi": 2.0, "r": 0.8}),
    ("gen_squared_bessel", {"nu": -0.5, "m0": INF, "r": 0.0}),
    ("gen_squared_bessel", {"nu": -0.5, "m0": INF, "r": 0.1}),
    ("gen_squared_bessel", {"nu": -0.5, "m0": 0.0, "r": 0.0}),
    ("gen_squared_bessel", {"nu": -0.5, "m0": 1.0, "r": 0.0}),
    ("gen_squared_bessel", {"nu": -0.25, "m0": INF, "r": 0.0}),
    ("gen_squared_bessel", {"nu": -0.75, "m0": INF, "r": 0.3}),
    ("gen_squared_bessel", {"nu": -0.75, "m0": 2.0, "r": 0.3}),
    ("gen_squared_bessel", {"nu": -0.25, "m0": 0.0, "r": 1.0}),
    ("sticky_reflected_bm", {"r": 0.125, "rho": 4.0}),
    ("sticky_skew", {"kappa": 0.5, "c": 1.0, "xi": 1.0, "r": 0.0}),
    ("sticky_skew", {"kappa": 0.5, "c": 1.0, "xi": 1.0, "r": 0.7}),
    ("brownian_motion", {"r": 0.7, "x0": -3.0}),
    ("squared_bessel", {"delta": 1.0, "x0": 0.25}),
]


def test_sweep_is_large_enough():
    assert len(SWEEP) >= 40


@pytest.mark.parametrize("name,params", SWEEP)
def test_golden_agreement(name, params):
    spec = build_model(name, params)
    got = classify(spec)
    want = expected_verdict(name, params)
    assert (got.nip, got.nsa, got.nupbr, got.rp) == (want.nip, want.nsa, want.nupbr, want.rp)
    assert "inconclusive" not in (got.nip, got.nsa, got.nupbr)


def test_every_entry_has_rationale_and_params():
    for name in catalog_names():
        entry = CATALOG[name]
        assert entry.rationale
        assert entry.params
        # builders must validate for the default parameters
        build_model(name)


def test_every_parameter_range_has_a_rule_that_admits_its_default():
    # check_params looks each range text up in _RANGE_RULES, so a range text
    # without a rule (a typo, a new entry) would fail every override of it
    for name in catalog_names():
        for k, (default, text) in CATALOG[name].params.items():
            rule = _RANGE_RULES[text.split(";")[0]]
            assert default is None or rule(default), (name, k, default, text)


def test_unknown_model_and_params_rejected():
    with pytest.raises(KeyError):
        build_model("cev")
    with pytest.raises(ValueError):
        build_model("brownian_motion", {"sigma": 2.0})
    with pytest.raises(ValueError):
        build_model("squared_bessel", {"delta": 3.0})
    with pytest.raises(ValueError):
        build_model("sticky_skew", {"kappa": 1.5})


def test_skew_without_stickiness_needs_balanced_kink():
    # kappa = 1/2 removes the kink entirely; the model is plain BM-like
    v = classify(build_model("sticky_skew", {"kappa": 0.5, "c": 1.0, "xi": 1.0, "r": 0.0}))
    assert v.nip == "fails" or v.nip == "holds"  # decided by the atom identity
    want = expected_verdict("sticky_skew", {"kappa": 0.5, "c": 1.0, "xi": 1.0, "r": 0.0})
    assert v.nip == want.nip


def _document(spec) -> dict:
    """A catalog model as the JSON document ``load_model_spec`` reads."""
    num = lambda v: str(v) if math.isinf(v) else v  # noqa: E731
    beh = lambda b: {"point": b.point, "side": b.side, "exponent": b.exponent, "coeff": b.coeff}  # noqa: E731
    return {
        "model_id": spec.model_id,
        "state_interval": {"alpha": num(spec.J.alpha), "beta": num(spec.J.beta),
                           "alpha_closed": spec.J.alpha_closed, "beta_closed": spec.J.beta_closed},
        "scale": expr_to_json(spec.scale.expr),
        "speed": {"ac": expr_to_json(spec.speed.ac_density), "atoms": [[p, num(m)] for p, m in spec.speed.atoms]},
        "inverse_scale": expr_to_json(spec.q_expr),
        "x0": spec.x0,
        "r": spec.r,
        "boundaries": dict(spec.declared_boundaries),
        "qprime_zero_set": [list(z) for z in spec.qprime_zero_set],
        "phi_behaviors": [beh(b) for b in spec.phi_behaviors],
        "qpp_behaviors": [beh(b) for b in spec.qpp_behaviors],
    }


@pytest.mark.parametrize(
    "name, params",
    [
        ("squared_bessel", {}),
        ("squared_bessel", {"delta": 0.5}),
        ("squared_bessel", {"delta": 1.5, "x0": 0.25}),
        ("gen_squared_bessel", {}),
        ("gen_squared_bessel", {"nu": -0.5, "m0": "inf", "r": "1/10"}),
        ("gen_squared_bessel", {"nu": -0.25, "m0": 0.0, "r": -0.5}),
        ("gen_squared_bessel", {"nu": -0.75, "m0": 2.0, "r": 1.0, "x0": 0.5}),
        ("cubed_bm", {"x0": -2.0}),
    ],
)
def test_a_power_law_entry_written_as_a_document_classifies_as_the_entry(name, params):
    # the densities are expressions: the document, read back from JSON,
    # gives the entry's verdicts, condition reports and gamma samples
    spec = build_model(name, params)
    doc = load_model_spec(json.loads(json.dumps(_document(spec))))
    assert verdict_to_json(doc, classify(doc)) == verdict_to_json(spec, classify(spec))


def test_fat_cantor_builds_share_one_read_only_core():
    # the components and q's closed form depend on the generation count alone
    a, b = build_model("fat_cantor", {"u0": 0.3}), build_model("fat_cantor")
    assert a.q_piece.core is b.q_piece.core and a.qprime_zero_set is b.qprime_zero_set
    assert a.q_piece.core is not build_model("fat_cantor", {"generations": 7}).q_piece.core
    assert not any(v.flags.writeable for v in vars(a.q_piece.core).values() if isinstance(v, np.ndarray))


@pytest.mark.parametrize("generations", [1, 7, 8])
def test_fat_cantor_segments_of_a_sorted_batch_equal_the_search(generations):
    # a sorted batch reads its segments from the knots' positions in it: the
    # same indices as one search per point, on either side, with points on
    # and next to every knot, repeats and far ends; an unsorted batch searches
    core = build_model("fat_cantor", {"generations": generations}).q_piece.core
    t = core.t
    near = np.concatenate([t, np.nextafter(t, -INF), np.nextafter(t, INF)])
    x = np.sort(np.concatenate([np.linspace(-3.0, 3.0, 2_001), near, near[:50], [-INF, INF, -1e300, 1e300, -0.0]]))
    batches = [x, *(np.linspace(a, b, 10_002)[1:-1] for a, b in fat_complement_components(generations)), x[::-1]]
    for batch in batches:
        for side in (1, -1):
            assert np.array_equal(core._segment(batch, side), flat_spot_segment(core, batch, side))


def test_fat_complement_has_positive_measure():
    comps = fat_complement_components(8)
    total = sum(b - a for a, b in comps)
    assert 0.3 < total < 1.0
    # closed components, disjoint, inside [0, 1]
    for (a1, b1), (a2, b2) in zip(comps[:-1], comps[1:]):
        assert b1 < a2
    assert comps[0][0] >= 0.0 and comps[-1][1] <= 1.0


@pytest.mark.parametrize("generations", [1, 3, 6, 7, 8, 50])
def test_fat_cantor_distance_matches_the_component_loop_bit_for_bit(generations):
    # the two ends around z give the nearest end by the same subtraction
    comps = fat_complement_components(generations)
    ends = np.array(comps).ravel()
    z = np.concatenate([
        np.random.default_rng(generations).uniform(-0.5, 1.5, 20_001),
        ends,
        np.nextafter(ends, -INF),
        np.nextafter(ends, INF),
        [-INF, INF, np.nan, -0.0, 0.0, -1e300, 1e300],
    ])
    got = _FlatSpotInverseScale(comps)._dist(z)
    want = fat_cantor_dist_by_component(comps, z)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_expected_verdict_exact_arithmetic():
    # float 4/3 must be recognized as the rational 4/3
    e = expected_verdict("sticky_skew", {"kappa": 0.75, "c": 1.0, "xi": 4.0 / 3.0, "r": 1.0})
    assert e.nip == "holds"
    e = expected_verdict("sticky_skew", {"kappa": 0.75, "c": 1.0, "xi": "4/3", "r": 1.0})
    assert e.nip == "holds"


def test_fat_cantor_inverse_scale_is_monotone_and_matches_its_slope():
    # q sums its segments outward from 0: summed from the far knot, the
    # small segments near [0, 1] fell below one ulp of the running sum
    spec = build_model("fat_cantor", {"generations": 7, "u0": 0.75})
    q = spec.q_piece
    u = np.linspace(0.3, 0.8, 200_001)
    assert np.all(np.diff(q.value(u)) > 0)
    # central differences: |q''| <= 1, so a corner of q' costs at most h/2
    h = 1e-6
    uu = np.linspace(-8.0, 8.0, 16_001)
    numeric = (q.value(uu + h) - q.value(uu - h)) / (2 * h)
    assert np.max(np.abs(numeric - q.d_plus(uu))) < h
    # the integral of dist(., F) over [0, 3/4] plus the tilt, in exact arithmetic
    assert spec.x0 == pytest.approx(0.0022778518547, rel=1e-10)
    assert float(spec.scale.value(np.asarray(spec.x0))) == 0.75


def _bench_fat_cantor_starts() -> list[float]:
    """u0 of every fat_cantor input of the benchmark, seeds 1-3, passes 0-1."""
    return sorted({
        workloads.parse_params(c.params).get("u0", 0.55)
        for seed in (1, 2, 3) for p in (0, 1) for c in workloads.catalog_inputs(seed, p) if c.name == "fat_cantor"
    })


@pytest.mark.parametrize("generations", [1, 7, 8, 12])
def test_fat_cantor_scale_is_the_closed_form_inverse_of_q(generations):
    # s = q^-1 from one quadratic root per knot segment: q(s(x)) is x to 16
    # ulp of the larger of |x| and |q(t_k)|, t_k the start of the root's knot
    # segment (an ulp of x alone is too tight near x = 0), s is monotone
    # across the knot images, and its slopes are q's, inverted, bit for bit
    spec = build_model("fat_cantor", {"generations": generations})
    q, s, core = spec.q_piece, spec.scale, spec.q_piece.core
    far = 10.0 ** np.arange(1, 12)
    x = np.concatenate([
        np.linspace(-3.0, 3.0, 200_001), core.U, np.nextafter(core.U, -INF), np.nextafter(core.U, INF),
        0.5 * (core.U[1:] + core.U[:-1]),
        q.value(np.array(_bench_fat_cantor_starts())), far, -far, [1e-300, -1e-300],
    ])
    u = s.value(x)
    assert not np.isnan(u).any()
    k = np.clip(np.searchsorted(core.t, u, "right") - 1, 0, core.t.size - 2)
    assert np.all(np.abs(q.value(u) - x) <= 16 * np.spacing(np.maximum(np.abs(x), np.abs(q.value(core.t[k])))))
    assert np.all(np.diff(u[np.argsort(x, kind="stable")]) >= 0)
    for side in (1, -1):
        _, d, d2 = q.jet(u, side, 2)
        got = s.jet(x, side, 2)
        assert np.array_equal(got[0], u) and np.array_equal(got[1], 1.0 / d) and np.array_equal(got[2], -d2 / d**3)
    assert np.array_equal(s.value(np.array([INF, -INF, np.nan])), [INF, -INF, np.nan], equal_nan=True)
