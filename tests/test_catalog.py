"""Golden agreement: the classifier must reproduce every expected verdict."""

import math

import numpy as np
import pytest

from diffarb.arb_classifier import classify
from diffarb.model_catalog import (
    _FlatSpotInverseScale,
    _RANGE_RULES,
    CATALOG,
    build_model,
    catalog_names,
    expected_verdict,
    fat_complement_components,
)

from oracles import fat_cantor_dist_by_component

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
