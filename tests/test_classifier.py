"""Condition-level and property tests for the no-arbitrage classifier."""

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from diffarb import arb_classifier, diffusion_model, measure_kit, model_catalog
from diffarb.arb_classifier import (
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    _phi_l2_interior,
    check_nip,
    check_nsa,
    check_nupbr,
    check_rp,
    classify,
)
from diffarb.cli_app import main
from diffarb.diffusion_model import (
    DiffusionSpec,
    NaturalScaleView,
    SpecValidationError,
    StateInterval,
    derive_natural_scale,
    load_model_spec,
    window_table,
)
from diffarb.measure_kit import (
    Affine,
    DecomposedMeasure,
    LocalBehavior,
    QuadratureError,
    ScComponent,
    SmoothPiece1D,
    adaptive_quad,
    invert_monotone_vec,
    pushforward,
    window_nodes,
)
from diffarb.model_catalog import CATALOG, build_model, expected_verdict

from cantor_staircase import cantor_cdf
from fuzz_models import random_spec
from oracles import (
    build_with_speed_natural,
    check_nip_zero_rate,
    inverse_piece_with_root_record,
    phi_l2_interior_by_window,
)

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402  the benchmark's golden table and document families

INF = math.inf
ORDER = {HOLDS: 2, INCONCLUSIVE: 1, FAILS: 0}


# ---------------------------------------------------------------------------
# individual conditions
# ---------------------------------------------------------------------------


def test_nip_boundary_identity_sticky_reflected():
    spec = build_model("sticky_reflected_bm", {"r": 0.5, "rho": 1.0})
    view = derive_natural_scale(spec)
    status, reports = check_nip(view, spec)
    assert status == HOLDS
    ib = [c for c in reports if c.id == "NIP.i.b"]
    assert ib and abs(ib[0].residual) < 1e-12


def test_nip_boundary_identity_violated():
    spec = build_model("sticky_reflected_bm", {"r": 0.5, "rho": 0.9})
    view = derive_natural_scale(spec)
    status, reports = check_nip(view, spec)
    assert status == FAILS
    ib = [c for c in reports if c.id == "NIP.i.b"][0]
    assert abs(ib.residual - (0.5 * 1.0 * 0.9 - 0.5)) < 1e-12


def test_nip_reflecting_bessel_flat_inverse_scale():
    spec = build_model("squared_bessel", {"delta": 1.0})
    view = derive_natural_scale(spec)
    status, _ = check_nip(view, spec)
    assert status == HOLDS


def test_nip_reflected_bachelier_fails_at_zero_rate():
    spec = build_model("sticky_reflected_bm", {"r": 0.0, "rho": 0.0})
    view = derive_natural_scale(spec)
    status, _ = check_nip(view, spec)
    assert status == FAILS  # q'(s(1)) = 1 != 0


def test_zero_rate_fast_path_examples():
    for name, params, want in [
        ("cubed_bm", {}, HOLDS),
        ("fat_cantor", {}, HOLDS),
        ("sticky_skew", {"r": 0.0, "xi": 0.5, "c": 1.0}, FAILS),  # bare kink at r = 0
    ]:
        spec = build_model(name, params)
        view = derive_natural_scale(spec)
        status, _ = check_nip_zero_rate(view, spec)
        assert status == want, name


@pytest.mark.parametrize("name", sorted(CATALOG))  # every entry's range for r admits 0
def test_zero_rate_criterion_agrees_with_check_nip(name):
    spec = build_model(name, {"r": 0})
    view = derive_natural_scale(spec)
    zr, _ = check_nip_zero_rate(view, spec)
    nip, _ = check_nip(view, spec)
    assert zr == nip or INCONCLUSIVE in (zr, nip)


def test_zero_rate_fast_path_requires_zero_rate():
    spec = build_model("brownian_motion", {"r": 0.1})
    view = derive_natural_scale(spec)
    with pytest.raises(SpecValidationError):
        check_nip_zero_rate(view, spec)


def test_nsa_cubed_bm_fails_interior_pole():
    spec = build_model("cubed_bm")
    view = derive_natural_scale(spec)
    status, reports = check_nsa(view, spec, check_nip(view, spec)[0])
    assert status == FAILS
    assert any(c.id == "NSA.iv.loc" and c.status == "fail" for c in reports)


def test_nsa_gen_bessel_absorbing_holds_for_any_rate():
    for r in (0.0, 0.1, -0.3):
        spec = build_model("gen_squared_bessel", {"m0": INF, "r": r})
        view = derive_natural_scale(spec)
        status, _ = check_nsa(view, spec, check_nip(view, spec)[0])
        assert status == HOLDS, r


def test_nsa_bm_trivial():
    spec = build_model("brownian_motion", {"r": 0.0})
    view = derive_natural_scale(spec)
    assert check_nsa(view, spec, check_nip(view, spec)[0])[0] == HOLDS


def test_nupbr_weighted_collar_fails_absorbing_bessel():
    spec = build_model("gen_squared_bessel", {"m0": INF})
    view = derive_natural_scale(spec)
    nsa, _ = check_nsa(view, spec, check_nip(view, spec)[0])
    status, reports = check_nupbr(view, spec, nsa)
    assert status == FAILS
    assert any(c.id == "NUPBR.v" and c.status == "fail" for c in reports)


def test_nupbr_equals_nsa_without_absorbing_boundary():
    spec = build_model("sticky_reflected_bm", {"r": 0.5, "rho": 1.0})
    view = derive_natural_scale(spec)
    nsa, _ = check_nsa(view, spec, check_nip(view, spec)[0])
    nupbr, reports = check_nupbr(view, spec, nsa)
    assert nupbr == nsa == HOLDS
    assert reports == []  # the condition is empty without absorbing points


def _annotated_at_one_third(point, atom, r, key, exponent):
    """Affine scale and Lebesgue speed on [1/3, inf) with a speed atom at 1/3
    and one local behaviour annotated at ``point``."""
    return {
        "state_interval": {"alpha": 0.3333333333333333, "beta": "inf", "alpha_closed": True},
        "scale": {"node": "affine", "a": 1, "b": 0},
        "speed": {"ac": {"node": "const", "c": 1}, "atoms": [[0.3333333333333333, atom]]},
        "x0": 1,
        "r": r,
        key: [{"point": point, "side": "right", "exponent": exponent, "coeff": 1}],
    }


@pytest.mark.parametrize(
    "atom, r, key, exponent, expected",
    [
        ("inf", 0, "phi_behaviors", -1, (HOLDS, HOLDS, FAILS, HOLDS)),  # NUPBR weighted collar
        ("inf", 0, "phi_behaviors", -0.75, (HOLDS,) * 4),  # not an interior point as well
        (1, 1.5, "phi_behaviors", -1, (HOLDS, FAILS, FAILS, HOLDS)),  # NSA reflecting collar
        ("inf", 0, "qpp_behaviors", -2.5, "semimartingale prerequisites"),  # weighted |q''| collar
    ],
    ids=["absorbing_phi", "absorbing_phi_finite", "reflecting_phi", "absorbing_qpp"],
)
def test_boundary_annotation_spelling_does_not_change_the_verdict(atom, r, key, exponent, expected):
    # 0.3333333333 lies 3.3e-11 below the boundary image 1/3 and
    # 0.33333333334 lies 6.7e-12 above it: the same annotation, written
    # with other digits
    for point in (0.3333333333333333, 0.3333333333, 0.33333333334):
        spec = load_model_spec(_annotated_at_one_third(point, atom, r, key, exponent))
        if isinstance(expected, str):
            with pytest.raises(SpecValidationError, match=expected):
                classify(spec)
        else:
            v = classify(spec)
            assert (v.nip, v.nsa, v.nupbr, v.rp) == expected


def test_rp_flags():
    fat = build_model("fat_cantor")
    assert check_rp(derive_natural_scale(fat), fat)[0] == FAILS
    w3 = build_model("cubed_bm")
    assert check_rp(derive_natural_scale(w3), w3)[0] == HOLDS
    bm = build_model("brownian_motion")
    assert check_rp(derive_natural_scale(bm), bm)[0] == HOLDS


def test_classify_rejects_non_semimartingale():
    from diffarb.diffusion_model import DiffusionSpec, StateInterval
    from diffarb.measure_kit import DecomposedMeasure, PowerSigned

    J = StateInterval(-INF, INF)
    spec = DiffusionSpec(
        J=J,
        scale=SmoothPiece1D.from_expr(PowerSigned(0.0, 2.0), (J.alpha, J.beta)),
        speed=DecomposedMeasure(support=(J.alpha, J.beta), ac_density=lambda x: np.ones_like(x)),
        x0=1.0,
        r=0.0,
        q_expr=PowerSigned(0.0, 0.5),
    )
    with pytest.raises(SpecValidationError, match="semimartingale"):
        classify(spec)


def test_an_error_mapping_the_window_table_comes_before_a_failed_prerequisite(monkeypatch):
    # classify maps its one window table before it checks the semimartingale
    # prerequisites, so a model that fails them and whose points cannot be
    # mapped (a quadrature error of an exp_integral scale, say) reports the
    # mapping error
    spec = load_model_spec(_annotated_at_one_third(0.3333333333333333, "inf", 0, "qpp_behaviors", -2.5))
    with pytest.raises(SpecValidationError, match="semimartingale prerequisites"):
        classify(spec)

    def unmappable(self, u):
        raise QuadratureError("no chart point")

    monkeypatch.setattr(NaturalScaleView, "chart", unmappable)
    with pytest.raises(QuadratureError, match="no chart point"):
        classify(spec)


# ---------------------------------------------------------------------------
# singular-continuous components
# ---------------------------------------------------------------------------


def test_cantor_cdf_is_a_staircase():
    xs = np.linspace(0.0, 1.0, 4097)
    vals = cantor_cdf(xs)
    assert np.all(np.diff(vals) >= 0.0)
    assert vals[0] == 0.0 and abs(vals[-1] - 1.0) < 1e-9
    assert np.all(cantor_cdf(np.linspace(0.34, 0.66, 9)) == 0.5)


def _sc_spec(base_id_m: str, base_id_q: str, r: float = 1.0):
    """Synthetic model with declared sc parts on the given bases.

    The measure-level comparison is what matters here; both components are
    declared against the unit-interval Cantor staircase. When the identity
    r q(u) mult_m(u) = mult_q(u)/2 is declared with matching bases, the
    singular-part condition holds exactly.
    """
    spec = build_with_speed_natural("brownian_motion", {"r": r, "x0": 0.5})
    mult_m = lambda u: 1.0 + np.asarray(u, float) ** 2
    # choose the q'' multiplier to satisfy the identity with q(u) = u
    mult_q = lambda u: 2.0 * r * np.asarray(u, float) * (1.0 + np.asarray(u, float) ** 2)
    sc_m = ScComponent(base_id_m, cantor_cdf, mult_m, (0.0, 1.0))
    sc_q = ScComponent(base_id_q, cantor_cdf, mult_q, (0.0, 1.0))
    return dataclasses.replace(spec, speed_natural=dataclasses.replace(spec.speed_natural, sc=sc_m), qpp_sc=sc_q)


def test_sc_matching_base_passes():
    spec = _sc_spec("cantor_A", "cantor_A")
    view = derive_natural_scale(spec)
    status, reports = check_nip(view, spec)
    assert status == HOLDS


def test_sc_mismatched_multiplier_fails():
    spec = _sc_spec("cantor_A", "cantor_A")
    bad_q = ScComponent("cantor_A", cantor_cdf, lambda u: np.full_like(np.asarray(u, float), 0.17), (0.0, 1.0))
    spec = dataclasses.replace(spec, qpp_sc=bad_q)
    view = derive_natural_scale(spec)
    status, _ = check_nip(view, spec)
    assert status == FAILS


def test_sc_different_bases_inconclusive():
    spec = _sc_spec("cantor_A", "cantor_B")
    view = derive_natural_scale(spec)
    status, reports = check_nip(view, spec)
    assert status == INCONCLUSIVE
    assert any(c.status == "inconclusive" and "bases" in c.note for c in reports)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(0, 40))
def test_fuzz_implication_chain(seed):
    spec = random_spec(seed)
    v = classify(spec)
    assert ORDER[v.nupbr] <= ORDER[v.nsa] <= ORDER[v.nip]


def _affine_rescaled(spec, a: float, b: float):
    """The same market with scale s -> a s + b.

    The scale-speed pair keeps exit times via 2 * integral of G m: the Green
    function scales by a, so every speed mass (state space and natural
    scale) must scale by 1/a.
    """
    s = spec.scale
    lo, hi = s.domain

    def scale_jet(x, side=1, order=1):
        f, *ds = s.jet(x, side, order)
        return (a * np.asarray(f, float) + b, *(a * np.asarray(d, float) for d in ds))

    new_scale = SmoothPiece1D(
        domain=s.domain,
        jet=scale_jet,
        kinks=tuple((c, a * j) for c, j in s.kinks),
        infinite_slope=s.infinite_slope,
    )
    ell = lambda u: a * np.asarray(u, float) + b
    ell_inv = lambda u: (np.asarray(u, float) - b) / a

    if spec.q_piece is not None:
        qp = spec.q_piece
    else:
        view0 = derive_natural_scale(spec)
        qp = view0.q
    qlo, qhi = qp.domain
    q_piece = SmoothPiece1D(
        domain=(a * qlo + b if math.isfinite(qlo) else qlo, a * qhi + b if math.isfinite(qhi) else qhi),
        jet=lambda u, side=1, order=1: tuple(
            np.asarray(v, float) / a**k for k, v in enumerate(qp.jet(ell_inv(u), side, order))
        ),
        kinks=tuple((a * c + b, j / a) for c, j in qp.kinks),
        infinite_slope=tuple(a * c + b for c in qp.infinite_slope),
    )

    mN = spec.speed_natural
    new_nat = None
    if mN is not None:
        slo, shi = mN.support
        dens = mN.ac_density
        new_nat = dataclasses.replace(
            mN,
            support=(a * slo + b if math.isfinite(slo) else slo, a * shi + b if math.isfinite(shi) else shi),
            ac_density=None if dens is None else (lambda u: np.asarray(dens(ell_inv(u)), float) / a**2),
            atoms=tuple((a * p + b, m / a) for p, m in mN.atoms),
            ac_breakpoints=tuple(a * p + b for p in mN.ac_breakpoints),
        )

    m_dens = spec.speed.ac_density
    new_speed = dataclasses.replace(
        spec.speed,
        ac_density=None if m_dens is None else (lambda x: np.asarray(m_dens(x), float) / a),
        atoms=tuple((p, m / a) for p, m in spec.speed.atoms),
    )

    return dataclasses.replace(
        spec,
        scale=new_scale,
        speed=new_speed,
        q_expr=None,
        q_piece=q_piece,
        speed_natural=new_nat,
        qprime_zero_set=tuple((a * x + b, a * y + b) for x, y in spec.qprime_zero_set),
        phi_behaviors=tuple(
            dataclasses.replace(
                beh, point=a * beh.point + b, coeff=beh.coeff * a ** (-1.0 - beh.exponent)
            )
            for beh in spec.phi_behaviors
        ),
        qpp_behaviors=tuple(
            dataclasses.replace(
                beh, point=a * beh.point + b, coeff=beh.coeff * a ** (-2.0 - beh.exponent)
            )
            for beh in spec.qpp_behaviors
        ),
    )


@pytest.mark.parametrize(
    "name,params",
    [
        ("brownian_motion", {"r": 0.3}),
        ("sticky_reflected_bm", {"r": 0.5, "rho": 1.0}),
        ("sticky_reflected_bm", {"r": 0.5, "rho": 0.7}),
        ("squared_bessel", {"delta": 1.0}),
        ("gen_squared_bessel", {"m0": INF, "r": 0.1}),
        ("cubed_bm", {}),
        ("sticky_skew", {"r": 1.0}),
        ("fat_cantor", {}),
    ],
)
@pytest.mark.parametrize("ab", [(2.0, 0.0), (0.5, -1.0)])
def test_scale_shift_invariance(name, params, ab):
    # scale functions are defined up to increasing affine transformations
    a, b = ab
    spec = build_model(name, params)
    base = classify(spec)
    moved = classify(_affine_rescaled(spec, a, b))
    assert (base.nip, base.nsa, base.nupbr, base.rp) == (
        moved.nip,
        moved.nsa,
        moved.nupbr,
        moved.rp,
    )


# ---------------------------------------------------------------------------
# NIP.iii and the q' variation from fat_cantor's knot-segment table
# ---------------------------------------------------------------------------


def _flat_spot_spec(components, zero_set):
    """fat_cantor's construction on ``components``, with ``zero_set``
    declared as the zero set of q' (true or not)."""
    core = model_catalog._FlatSpotInverseScale(components)
    base = build_model("fat_cantor")
    q = model_catalog._FlatSpotPiece(domain=(-INF, INF), jet=core.jet, core=core)
    scale = SmoothPiece1D(domain=(-INF, INF), jet=core.inverse_jet)
    speed = DecomposedMeasure(support=(-INF, INF), ac_density=scale.d_plus)
    return dataclasses.replace(base, scale=scale, speed=speed, q_piece=q, qprime_zero_set=tuple(zero_set),
                               x0=float(q.value(np.asarray(0.5))), phi_behaviors=())


def test_a_narrow_sloped_segment_in_a_flat_fails_nip_iii():
    # the declared flat [0.1, 0.9] holds the gap (0.5, 0.5 + w) between two
    # components, where q'' is +1 then -1, and w = (b - a) / 10**5 is a tenth
    # of the 10,000-point sampling step: the table reads its two segments
    w = 0.8e-5
    spec = _flat_spot_spec([(0.1, 0.5), (0.5 + w, 0.9)], [(0.1, 0.9)])
    view = derive_natural_scale(spec)
    (flat,) = [c for c in check_nip(view, spec)[1] if c.id == "NIP.iii"]
    assert flat.status == "fail" and flat.residual == 0.5, flat
    assert flat.note == "q'' exact on 4 knot segments of the flat interval [0.1, 0.9]"
    # the same q read through a closure keeps no table and is sampled: its
    # samples step over the gap
    plain = dataclasses.replace(spec, q_piece=SmoothPiece1D(domain=spec.q_piece.domain, jet=spec.q_piece.jet))
    (sampled,) = [c for c in check_nip(derive_natural_scale(plain), plain)[1] if c.id == "NIP.iii"]
    assert sampled.status == "pass" and sampled.note.startswith("sampled 10000 points")


@pytest.mark.parametrize("generations", [1, 7, 8, 50])
def test_a_flat_ends_on_its_own_knot_segment(generations):
    # each flat is one knot segment of slope 0: its right end b is looked up
    # from its left, since from its right b starts the next segment, whose
    # slope is -1 or +1 (+1 for the last flat, whose right side extrapolates)
    spec = build_model("fat_cantor", {"generations": generations})
    q, (lo, hi) = spec.q_piece, np.array(spec.qprime_zero_set).T
    for (edges, d2), a, b in zip(q.d2_segments(lo, hi), lo, hi):
        assert edges.tolist() == [a, b] and d2.tolist() == [0.0]
    assert np.all(np.abs(q.core.slope[q.core._segment(hi)]) == 1.0)
    _, reports = check_nip(derive_natural_scale(spec), spec)
    flats = [c for c in reports if c.id == "NIP.iii"]
    assert len(flats) == len(lo) and all(c.status == "pass" and c.residual == 0.0 for c in flats)


def test_nip_iii_reads_one_point_per_knot_segment_with_a_nonzero_rate():
    # with r != 0, r q mU_ac is read at one point of each of the 7 flats, and
    # q > 0 there, so each flat fails
    spec = build_model("fat_cantor")
    reads = []

    def density(u):
        reads.append(np.size(u))
        return np.ones_like(np.asarray(u, float))

    spec = dataclasses.replace(spec, r=0.5, speed_natural=dataclasses.replace(spec.speed_natural, ac_density=density))
    view = derive_natural_scale(spec)
    reads.clear()
    _, reports = check_nip(view, spec)
    assert reads == [7]
    flats = [c for c in reports if c.id == "NIP.iii"]
    assert [c.status for c in flats] == ["fail"] * 7
    assert all(c.note.endswith("r q mU_ac read at each midpoint") for c in flats)


@pytest.mark.parametrize("on_flats, status", [("zero", "pass"), ("zero-at-midpoints", "fail")])
def test_a_flat_that_matches_at_its_midpoints_is_sampled(on_flats, status):
    # with r != 0 and mU_ac = 0 on the flats, the pushforward m(q) q' there,
    # r q mU_ac = q''/2 = 0 holds at each midpoint and at the 10,000 samples:
    # NIP.iii passes, as the sampled path reads it; a density that vanishes
    # only at the midpoints passes them and fails on the samples
    spec = build_model("fat_cantor")
    lo, hi = np.array(spec.qprime_zero_set).T

    def density(u):
        u = np.asarray(u, float)
        k = np.clip(np.searchsorted(lo, u, "right") - 1, 0, len(lo) - 1)
        flat = (lo[k] <= u) & (u <= hi[k])
        return np.where(flat, 0.0 if on_flats == "zero" else (u - 0.5 * (lo[k] + hi[k])) ** 2, 1.0)

    spec = dataclasses.replace(spec, r=0.5, speed_natural=dataclasses.replace(spec.speed_natural, ac_density=density))
    _, reports = check_nip(derive_natural_scale(spec), spec)
    flats = [c for c in reports if c.id == "NIP.iii"]
    assert [c.status for c in flats] == [status] * 7
    assert all(c.note.endswith("read at each midpoint and at 10000 sampled points") for c in flats)
    # the sampled path of a piece without a table reads the same statuses
    plain = dataclasses.replace(spec, q_piece=SmoothPiece1D(domain=spec.q_piece.domain, jet=spec.q_piece.jet))
    assert [c.status for c in check_nip(derive_natural_scale(plain), plain)[1] if c.id == "NIP.iii"] == [status] * 7


def test_a_fat_cantor_classify_takes_no_sampled_variation(monkeypatch):
    # q' is certified BV from the table's bounded |q''|
    def refuse(*args, **kwargs):
        raise AssertionError("sampled total variation taken")

    monkeypatch.setattr(diffusion_model, "sampled_total_variation", refuse)
    for generations in (1, 6, 7, 8):
        spec = build_model("fat_cantor", {"generations": generations})
        view = derive_natural_scale(spec)
        check = diffusion_model.check_semimartingale_assumption(view, spec)
        assert check.passed and check.checks[0].name == "q-prime-bv"
        assert classify(spec).nip == HOLDS


@pytest.mark.parametrize("ab", [(2.0, 0.0), (0.5, -1.0)])
def test_the_affine_rescaled_fat_cantor_keeps_no_table_and_its_verdicts(ab):
    # its q is a closure over fat_cantor's: it is sampled as before, with the
    # same statuses and residuals on every flat
    spec = build_model("fat_cantor")
    moved = _affine_rescaled(spec, *ab)
    lo, hi = np.array(moved.qprime_zero_set).T
    assert moved.q_piece.d2_segments(lo, hi) is None
    base_reports = check_nip(derive_natural_scale(spec), spec)[1]
    moved_reports = check_nip(derive_natural_scale(moved), moved)[1]
    flats = [(c, m) for c, m in zip(base_reports, moved_reports) if c.id == "NIP.iii"]
    assert len(flats) == 7
    for c, m in flats:
        assert (m.status, m.residual) == (c.status, c.residual) == ("pass", 0.0)
        assert c.note.startswith("q'' exact on 1 knot segment") and m.note.startswith("sampled 10000 points")
    assert classify(moved).triple() == classify(spec).triple()


def _two_sided_spec(r=0.5, rho1=None, rho2=None):
    """Brownian motion on [1, 2] with sticky reflection at both endpoints.

    Both boundary identities r b mU({s(b)}) = q'(s(b))/2 can hold at once:
    rho1 = 1/(2r) on the left, rho2 = 1/(4r) on the right.
    """
    import numpy as np
    from diffarb.diffusion_model import DiffusionSpec, StateInterval
    from diffarb.measure_kit import Affine, DecomposedMeasure

    rho1 = 1.0 / (2 * r) if rho1 is None else rho1
    rho2 = 1.0 / (4 * r) if rho2 is None else rho2
    ones = lambda x: np.ones_like(np.asarray(x, float))
    atoms = (((1.0, rho1),) if rho1 > 0 else ()) + (((2.0, rho2),) if rho2 > 0 else ())
    J = StateInterval(1.0, 2.0, alpha_closed=True, beta_closed=True)
    return DiffusionSpec(
        J=J,
        scale=SmoothPiece1D.from_expr(Affine(1.0, 0.0), (1.0, 2.0)),
        speed=DecomposedMeasure(support=(1.0, 2.0), ac_density=ones, atoms=atoms),
        x0=1.5,
        r=r,
        model_id="two_sided_sticky",
        q_expr=Affine(1.0, 0.0),
        speed_natural=DecomposedMeasure(support=(1.0, 2.0), ac_density=ones, atoms=atoms),
        declared_boundaries=(("left", "reflecting"), ("right", "reflecting")),
    )


def test_two_sided_reflection_both_identities():
    # both boundary clauses satisfied: everything holds
    v = classify(_two_sided_spec())
    assert v.triple() == (HOLDS, HOLDS, HOLDS)
    # perturbing the right-hand atom breaks the right-hand clause only
    v = classify(_two_sided_spec(rho2=0.9 / (4 * 0.5)))
    assert v.triple() == (FAILS, FAILS, FAILS)
    # zero rate: a reflecting boundary with q' = 1 always violates NIP
    v = classify(_two_sided_spec(r=0.0, rho1=1.0, rho2=1.0))
    assert v.triple() == (FAILS, FAILS, FAILS)


def test_verdict_report_ids_cover_required_set():
    spec = build_model("gen_squared_bessel", {"m0": INF, "r": 0.1})
    v = classify(spec)
    ids = {c.id for c in v.reports}
    assert "NIP.i.a" in ids and "NUPBR.v" in ids and "RP" in ids
    assert v.impr is not None and len(v.impr["samples"]) == 9


# A start image within 0.5 of a finite boundary image: the generic NSA
# windows stay halfway off the boundary, where phi is bounded.
def _absorbed_bachelier(x0: float, r: float, dens: float) -> dict:
    return {
        "state_interval": {"alpha": 0.0, "beta": "inf", "alpha_closed": True},
        "scale": {"node": "affine", "a": 0.5, "b": 0.0},
        "speed": {"ac": {"node": "const", "c": dens}, "atoms": [[0.0, "inf"]]},
        "x0": x0,
        "r": r,
        "boundaries": {"left": "absorbing"},
    }


@pytest.mark.parametrize("x0,r,dens", [(0.5, 0.2, 2.4), (2 / 3, 1.0, 2.5)])
def test_nsa_windows_stay_off_an_absorbing_boundary_image(x0, r, dens):
    # absorption at price 0: every notion holds
    v = classify(load_model_spec(_absorbed_bachelier(x0, r, dens)))
    assert (*v.triple(), v.rp) == (HOLDS,) * 4


def test_nsa_holds_for_absorbed_bessel_started_near_the_origin():
    params = {"nu": -0.75, "r": -2 / 3, "m0": INF, "x0": 0.125}
    v = classify(build_model("gen_squared_bessel", params))
    want = expected_verdict("gen_squared_bessel", params)
    assert v.nsa == want.nsa == HOLDS
    assert (*v.triple(), v.rp) == (want.nip, want.nsa, want.nupbr, want.rp)


# ---------------------------------------------------------------------------
# the generic windows of NSA (iv), phi evaluated once per block of windows
# ---------------------------------------------------------------------------


def _line_bm(density, phi_behaviors=()) -> DiffusionSpec:
    """BM on the line at r = 1/2 with speed density ``density``, so that
    phi = -r u mU_ac(u)."""
    line = (-INF, INF)
    return DiffusionSpec(
        StateInterval(*line), SmoothPiece1D.from_expr(Affine(1.0, 0.0), line),
        DecomposedMeasure(support=line, ac_density=density), x0=0.0, r=0.5, phi_behaviors=tuple(phi_behaviors),
    )


def _poles(*poles, annotated=()):
    """``_line_bm`` with speed density the sum of |x - c|^p over the (c, p)
    pairs, so that phi has a pole at each c; the poles at the points in
    ``annotated`` carry their exponent as a phi behaviour. On the panel
    [-8, 8] of windows 1/2 wide, each c below is the middle node of a
    window's detection grid, where the density is infinite."""

    def density(x):
        x = np.asarray(x, float)
        with np.errstate(divide="ignore"):
            return sum(np.abs(x - c) ** p for c, p in poles)

    return _line_bm(density, [LocalBehavior(c, "both", p, -0.5 * c) for c, p in poles if c in annotated])


_FIRST_DOCS: dict = {}  # the first document of each benchmark family, seed 1
for _d in workloads.doc_inputs(1):
    _FIRST_DOCS.setdefault(_d.family, _d.doc)

_PANEL_CASES = {
    **{f"golden-{name}-{params}": (lambda n=name, p=params: build_model(n, workloads.parse_params(p)))
       for name, params in workloads.GOLDEN},
    **{f"doc-{family}": (lambda doc=doc: load_model_spec(doc)) for family, doc in _FIRST_DOCS.items()},
    # window 5, in the second block, is the first divergent one
    "divergent-window-5": lambda: _poles((-5.25, -0.75)),
    "inconclusive-window-2": lambda: _poles((-6.75, -0.35)),
    # the divergent note replaces the inconclusive one, and the panel stops
    "inconclusive-then-divergent": lambda: _poles((-7.25, -0.35), (2.25, -0.75)),
    # in the first block, window 1 is annotated and window 3 is flagged
    "annotated-beside-flagged": lambda: _poles((-7.25, -0.35), (-6.25, -0.2), annotated=(-7.25,)),
    # phi = -inf at the middle node of window 21 and bounded elsewhere
    "phi-inf-at-one-node": lambda: _line_bm(lambda x: np.where(np.asarray(x) == 2.75, INF, 1.0)),
}


@pytest.mark.parametrize("case", list(_PANEL_CASES))
def test_phi_panel_matches_the_window_by_window_oracle(case):
    spec = _PANEL_CASES[case]()
    view = derive_natural_scale(spec)
    got = _phi_l2_interior(view, window_table(view, spec))
    assert got == phi_l2_interior_by_window(view, spec)
    expected_note = {
        "divergent-window-5": ("fail", "phi**2 divergent on generic window [-5.5, -5]"),
        "inconclusive-window-2": ("inconclusive", "phi**2 inconclusive on window [-7, -6.5]"),
        "inconclusive-then-divergent": ("fail", "phi**2 divergent on generic window [2, 2.5]"),
    }
    if case in expected_note:
        assert (got.status, got.note) == expected_note[case]


def _uncertified_bessel():
    # a squared Bessel model with r != 0 and its speed density written as a
    # Python function, so no window is certified bounded and every generic
    # window is screened; phi is smooth away from the boundary image,
    # annotated at 0
    spec = build_model("gen_squared_bessel", {"r": 0.5})
    dens = spec.speed.ac_density
    return dataclasses.replace(spec, speed=dataclasses.replace(spec.speed, ac_density=lambda x: dens(x)))


def test_generic_windows_evaluate_phi_in_blocks_of_four(monkeypatch):
    # no window is split and every value comes from the block evaluations
    spec = _uncertified_bessel()
    view = derive_natural_scale(spec)
    sizes = []
    phi_dt = NaturalScaleView.phi_dt

    def counted(self, t):
        sizes.append(np.size(t))
        return phi_dt(self, t)

    monkeypatch.setattr(NaturalScaleView, "phi_dt", counted)
    assert _phi_l2_interior(view, window_table(view, spec)).status == "pass"
    assert sizes == [4 * np.size(window_nodes(0.0, 1.0))] * 8  # 4 x 1,023 points; blocks of 4 stay in cache


def test_generic_windows_without_a_flag_or_an_annotation_skip_the_decider(monkeypatch):
    # phi is smooth and nothing is annotated inside, so each block of 4
    # windows runs one detection and no window is decided
    spec = _uncertified_bessel()
    view = derive_natural_scale(spec)
    detected, decided = [], []
    detect, decide = arb_classifier._detect_suspicious, arb_classifier.decide_L2_local

    def counted_detect(g_rows, windows, known):
        detected.append(len(windows))
        return detect(g_rows, windows, known)

    def counted_decide(f, window, *args, **kwargs):
        decided.append(window)
        return decide(f, window, *args, **kwargs)

    monkeypatch.setattr(arb_classifier, "_detect_suspicious", counted_detect)
    monkeypatch.setattr(arb_classifier, "decide_L2_local", counted_decide)
    assert _phi_l2_interior(view, window_table(view, spec)).status == "pass"
    assert (detected, decided) == ([4] * 8, [])


@pytest.mark.parametrize(
    "name, params",
    [
        ("squared_bessel", {}),
        ("squared_bessel", {"delta": 0.5, "x0": 0.25}),
        ("gen_squared_bessel", {}),
        ("gen_squared_bessel", {"nu": -0.5, "m0": "inf", "r": "1/10"}),
        ("gen_squared_bessel", {"nu": -0.25, "m0": 0.0, "r": -0.5}),
        ("gen_squared_bessel", {"nu": -0.75, "m0": 2.0, "r": 1.0, "x0": 0.5}),
    ],
)
def test_a_squared_bessel_classify_takes_no_dense_sample_and_no_accessibility_probe(name, params, monkeypatch):
    # the generic windows are certified at any r, an annotated pole decides
    # a reflecting collar alone, and the origin's leading powers decide its
    # accessibility
    def refuse(*args, **kwargs):
        raise AssertionError("dense sample taken")

    decide = diffusion_model.decide_abs_integral

    def no_probe(*args, **kwargs):
        assert sys._getframe(1).f_code.co_name != "classify_boundary", "accessibility probe taken"
        return decide(*args, **kwargs)

    monkeypatch.setattr(arb_classifier, "_detect_suspicious", refuse)
    monkeypatch.setattr(measure_kit, "_detect_suspicious", refuse)
    monkeypatch.setattr(diffusion_model, "decide_abs_integral", no_probe)
    v = classify(build_model(name, params))
    assert (v.nip, v.nsa, v.nupbr, v.rp) == dataclasses.astuple(expected_verdict(name, params))


def test_phi_raising_past_the_first_divergent_window_is_never_reached(monkeypatch):
    # window 5 diverges; phi raises anywhere in window 6, which shares its
    # block: window by window, the panel stops before it evaluates there
    spec = _poles((-5.25, -0.75))
    view = derive_natural_scale(spec)
    phi_dt = NaturalScaleView.phi_dt

    def raises_in_window_6(self, t):  # the chart of the identity scale: t = u
        if np.any((np.asarray(t) > -5.0) & (np.asarray(t) < -4.5)):
            raise QuadratureError("no convergence")
        return phi_dt(self, t)

    monkeypatch.setattr(NaturalScaleView, "phi_dt", raises_in_window_6)
    got = _phi_l2_interior(view, window_table(view, spec))
    assert (got.status, got.note) == ("fail", "phi**2 divergent on generic window [-5.5, -5]")


def _dense_counters(monkeypatch) -> dict:
    """Count every dense sample a classify can take: phi_dt (the screen and
    the collar deciders), the suspicious-point detection and the sampled
    total variation of q'."""
    counts = {"phi_dt": 0, "detect": 0, "tv": 0}

    def counted(key, f):
        def g(*args, **kwargs):
            counts[key] += 1
            return f(*args, **kwargs)
        return g

    monkeypatch.setattr(NaturalScaleView, "phi_dt", counted("phi_dt", NaturalScaleView.phi_dt))
    for module in (arb_classifier, measure_kit):
        monkeypatch.setattr(module, "_detect_suspicious", counted("detect", measure_kit._detect_suspicious))
    monkeypatch.setattr(diffusion_model, "sampled_total_variation", counted("tv", diffusion_model.sampled_total_variation))
    return counts


def test_bench_document_families_take_no_dense_sample(tmp_path, monkeypatch, capsys):
    # every document of a benchmark pass: affine, piecewise-affine and cubic
    # scales, constant densities; each window and collar is certified
    counts = _dense_counters(monkeypatch)
    docs = workloads.doc_inputs(1)
    assert {d.family for d in docs} == {"sticky", "skew", "absorbing", "cubic"}
    for d in docs:
        path = tmp_path / f"{d.label}.json"
        path.write_text(json.dumps(d.doc))
        assert main(["classify", "--model", str(path), "--out", str(tmp_path) + "/"]) == 0
        got = json.loads((tmp_path / f"classify_{d.label}.json").read_text())
        assert {got[k] for k in ("nip", "nsa", "nupbr")} == {d.expected}, d.label
    assert counts == {"phi_dt": 0, "detect": 0, "tv": 0}
    assert capsys.readouterr().err == ""


def test_annotated_windows_are_still_decided_by_the_exponent_rule(monkeypatch):
    # a generic window holding a (finite) annotation, decided with no
    # sample, and a collar with a (divergent) one are decided by the
    # exponent rule, though each is certified bounded
    decided = []
    decide = arb_classifier.decide_L2_local

    def recorded(f, window, *args, **kwargs):
        v = decide(f, window, *args, **kwargs)
        decided.append((window, v.method, kwargs.get("auto_detect", True)))
        return v

    monkeypatch.setattr(arb_classifier, "decide_L2_local", recorded)
    counts = _dense_counters(monkeypatch)
    spec = _line_bm(measure_kit.Const(1.0), [LocalBehavior(0.25, "both", -0.25, 1.0)])
    view = derive_natural_scale(spec)
    assert view.bounded(0.0, 0.5)[0] and _phi_l2_interior(view, window_table(view, spec)).status == "pass"
    assert ((0.0, 0.5), "exponent-rule", False) in decided
    assert counts == {"phi_dt": 0, "detect": 0, "tv": 0}
    sticky = build_model("sticky_reflected_bm", {"r": 0.5, "rho": 1.0})
    for behaviors, expected in (((), "pass"), ((LocalBehavior(1.0, "right", -1.0, 1.0),), "fail")):
        spec = dataclasses.replace(sticky, phi_behaviors=behaviors)
        view = derive_natural_scale(spec)
        (refl,) = arb_classifier._phi_collars(view, spec, "reflecting", window_table(view, spec))
        assert view.bounded(*view.collar("left"))[0] and refl.status == expected
    assert decided[-1][1] == "exponent-rule" and len(decided) == 3


def test_a_density_given_as_a_function_is_certified_for_the_variation_and_the_qpp_collar_alone():
    # with r != 0 phi reads the speed density, which as a function has no
    # bounds: the window table's drift masks stay off, its plain ones on
    half_line = (0.0, INF)
    spec = DiffusionSpec(
        StateInterval(*half_line, alpha_closed=True), SmoothPiece1D.from_expr(Affine(1.0, 0.0), half_line),
        DecomposedMeasure(half_line, lambda x: np.ones_like(np.asarray(x, float)), atoms=((0.0, 1.0),)),
        x0=1.0, r=0.5,
    )
    view = derive_natural_scale(spec)
    table = window_table(view, spec)
    assert table.variation[1] and not table.generic.any()
    assert table.collar("left", (), drift=False)[3] and not table.collar("left", (), drift=True)[3]
    (drift, plain), t = view.bounded(*table.collars["left"][1]), table.collars["left"][1]
    assert (drift, plain) == (False, True) and t == (0.0, 1.0)


def _doc(scale, **kw) -> dict:
    return {"state_interval": {"alpha": "-inf", "beta": "inf"}, "scale": scale,
            "speed": {"ac": {"node": "const", "c": 1}}, "x0": 1, "r": 0, **kw}


def _collar_doc(p: float) -> dict:
    """The collar document of the ROADMAP: scale x - 0.3 (x-1)^p on [1, 2],
    both ends sticky reflecting, with atoms that make NIP hold."""
    scale = {"node": "sum", "terms": [{"node": "affine", "a": 1, "b": 0}, {"node": "product", "factors": [
        {"node": "const", "c": -0.3}, {"node": "power_signed", "center": 1, "p": p}]}]}
    return _doc(scale, state_interval={"alpha": 1, "beta": 2, "alpha_closed": True, "beta_closed": True},
                speed={"ac": {"node": "const", "c": 1}, "atoms": [[1, 0.5], [2, 1 / (4 * (1 - 0.3 * p))]]},
                x0=1.5, r=1, boundaries={"left": "reflecting", "right": "reflecting"})


_PROD_CUBE = _doc({"node": "product", "factors": [{"node": "affine", "a": 1, "b": 0}] * 3})
_CUBE_ROOT = {"node": "power_signed", "center": 0, "p": 1 / 3}


def test_a_cube_written_as_a_product_is_not_certified_where_its_slope_vanishes():
    # s = x * x * x: s'(0) = 0 at a point that is no breakpoint
    spec = load_model_spec(_PROD_CUBE)
    view = derive_natural_scale(spec)
    assert view.bounded([-1.0, 0.0, 0.5, -2.0], [1.0, 0.5, 2.0, -1.0])[0].tolist() == [False, False, True, True]
    v = classify(spec)
    assert (v.nip, v.nsa, v.nupbr, v.rp) == (HOLDS, FAILS, FAILS, HOLDS)


# The rows of the ROADMAP's wrong-verdict table: the windows and collars at
# their singular points are not certified, so the numeric path decides them
# as before; five rows keep a wrong answer, all but collar-1.3 (ROADMAP
# items 1 and 2), until that path is mended, and a change that mends one
# updates its row here.
_WRONG_VERDICT_TABLE = {
    "cube-root-x0-1": (lambda: load_model_spec(_doc(_CUBE_ROOT)), (HOLDS,) * 4),
    "cube-root-x0-2": (lambda: load_model_spec(_doc(_CUBE_ROOT, x0=2)), (HOLDS,) * 4),
    "cubed-bm-bare": (lambda: dataclasses.replace(build_model("cubed_bm"), phi_behaviors=(), qpp_behaviors=()), (HOLDS,) * 4),
    **{f"collar-{p}": (lambda p=p: load_model_spec(_collar_doc(p)), (HOLDS, FAILS, FAILS, HOLDS)) for p in (1.7, 1.55, 1.3)},
}


@pytest.mark.parametrize("case", list(_WRONG_VERDICT_TABLE))
def test_the_wrong_verdict_table_answers_as_before(case):
    make, expected = _WRONG_VERDICT_TABLE[case]
    spec = make()
    view = derive_natural_scale(spec)
    if case.startswith("collar"):
        table = window_table(view, spec)
        assert not table.collar("left", (), drift=True)[3] and table.collar("right", (), drift=True)[3]
    else:
        assert not view.bounded(-0.5, 0.5)[0]
    v = classify(spec)
    assert (v.nip, v.nsa, v.nupbr, v.rp) == expected


def test_a_boundary_image_is_never_inverted(monkeypatch):
    # the chart maps a boundary image to its endpoint, and the boundary
    # slope reads 1/s' there: the same bits as inverting s(b)
    spec = load_model_spec(_FIRST_DOCS["sticky"])
    view = derive_natural_scale(spec)
    old = float(view.q.d_plus(np.asarray(view.sJ[0])))
    targets = []
    invert = diffusion_model.invert_monotone_vec

    def recorded(f, ys):
        targets.extend(np.ravel(ys).tolist())
        return invert(f, ys)

    monkeypatch.setattr(diffusion_model, "invert_monotone_vec", recorded)
    assert view.boundary_slope("left") == old
    assert view.chart(np.array([view.sJ[0], view.s_x0])).tolist() == [spec.J.alpha, spec.x0]
    classify(spec)
    assert targets and view.sJ[0] not in targets


_SCALE_CASES = {
    **{name: (lambda n=name: build_model(n)) for name in sorted(CATALOG)},
    **{f"doc-{family}": (lambda doc=doc: load_model_spec(doc)) for family, doc in _FIRST_DOCS.items()},
}
_FAR = 10.0 ** np.arange(1, 12)  # the points _scale_limit reads at an infinite end


@pytest.mark.parametrize("case", list(_SCALE_CASES))
def test_inverting_a_stacked_array_equals_inverting_each_point(case):
    # one call per probe set (the far points, the gamma samples, a detection
    # window) keeps the values of one call per point only if the inversion
    # is elementwise, bit for bit
    spec = _SCALE_CASES[case]()
    us = window_table(derive_natural_scale(spec), spec).gamma[0]
    far = np.concatenate([-_FAR, _FAR])
    sets = [(spec.scale, np.concatenate([far, us, window_nodes(us[0], us[-1])]))]
    if case == "fat_cantor":
        # the window is read on q_piece, in state space, whose flats send
        # points down the bisection path
        xs = np.asarray(spec.q_piece.value(us))
        sets = [(spec.scale, np.concatenate([far, us])),
                (spec.q_piece, np.concatenate([far, xs, window_nodes(xs[0], xs[-1])]))]
    for f, ys in sets:
        each = np.array([invert_monotone_vec(f, ys[i : i + 1])[0] for i in range(ys.size)])
        assert np.array_equal(invert_monotone_vec(f, ys), each)


@pytest.mark.parametrize("case", ["fat_cantor", "doc-sticky", "doc-cubic"])
def test_classify_reads_the_gamma_samples_from_one_call(case, monkeypatch):
    spec = _SCALE_CASES[case]()
    view = derive_natural_scale(spec)
    us = window_table(view, spec).gamma[0]
    each = [[float(u), float(view.drift_over_slope(view.chart(us[i : i + 1]), 2)[0])] for i, u in enumerate(us)]
    sizes = []
    drift = NaturalScaleView.drift_over_slope

    def counted(self, t, power, dt=False):
        if power == 2:  # gamma's quotient
            sizes.append(np.size(t))
        return drift(self, t, power, dt)

    monkeypatch.setattr(NaturalScaleView, "drift_over_slope", counted)
    assert classify(spec).impr["samples"] == each
    assert sizes == [us.size]


_GOLDEN = Path(__file__).resolve().parent / "golden"


_UNANNOTATED = [
    "doc00_sticky", "doc01_skew", "doc02_absorbing", "doc03_cubic", "doc05_sticky_cubic", "kink", "compose_kink"
]


def _golden_doc(name: str) -> dict:
    return json.loads((_GOLDEN / f"{name}.json").read_text())


@pytest.mark.parametrize("name", _UNANNOTATED + ["doc04_declared_inverse"])
def test_document_classifies_to_its_committed_report(name, tmp_path):
    # the first document of each benchmark family, a sticky reflecting end
    # under the cubic scale x + (x - 1)^3 / 2, where s' is not constant on
    # the collar (NIP.i.b: r b rho = 1/2 = q'(s(1))/2), the kink document of
    # test_kink_inverse_document_matches_sticky_skew, the scale 3 s(x) with s
    # piecewise affine and kinked at 0, whose kink image 3 * 0.1 must invert
    # to the kink exactly (0.30000000000000004 / 3 is not 0.1), and a declared
    # inverse scale without a declared speed, whose pushed density reads its
    # jet (phi = 1/u - 0.3 u^3). The bytes are those of one numpy build: its SIMD
    # power and exp can differ from libm in the last bit, so on another build
    # a report may need regenerating with
    # diffarb classify --model tests/golden/NAME.json --out tests/golden/
    path, family = _GOLDEN / f"{name}.json", name.partition("_")[2]
    if family in _FIRST_DOCS:
        assert json.loads(path.read_text()) == _FIRST_DOCS[family]
    assert main(["classify", "--model", str(path), "--out", str(tmp_path)]) == 0
    assert (tmp_path / f"classify_{name}.json").read_bytes() == (_GOLDEN / f"classify_{name}.json").read_bytes()


@pytest.mark.parametrize("name", _UNANNOTATED + ["doc04_declared_inverse"])
def test_a_document_classify_charts_and_certifies_once(name, monkeypatch):
    # every window and point of the deciders and the gamma block is a row of
    # one window table: one chart call maps them, one bounded pass certifies
    calls = {"chart": 0, "bounded": 0}
    for method in calls:

        def counted(self, *args, method=method, call=getattr(NaturalScaleView, method)):
            calls[method] += 1
            return call(self, *args)

        monkeypatch.setattr(NaturalScaleView, method, counted)
    classify(load_model_spec(_golden_doc(name)))
    assert calls == {"chart": 1, "bounded": 1}


def test_classify_inverts_no_array_for_an_expression_scale(monkeypatch):
    # the deciders read the scale's jet in the state chart: only window,
    # collar and probe-range edges, behaviour points, single NIP points and
    # the 9 gamma samples go through the numeric inverse
    counts = []
    invert = diffusion_model.invert_monotone_vec

    def counted(f, ys):
        counts[-1] += np.size(ys)
        return invert(f, ys)

    monkeypatch.setattr(diffusion_model, "invert_monotone_vec", counted)
    for name in _UNANNOTATED:
        counts.append(0)
        classify(load_model_spec(_golden_doc(name)))
    assert all(0 < n <= 100 for n in counts), dict(zip(_UNANNOTATED, counts))


def test_a_catalog_classify_inverts_no_point(monkeypatch):
    # every catalog model declares q, as an expression or as fat_cantor's
    # flat-spot piece with its closed-form inverse: at the defaults and at
    # the benchmark's golden table, no point goes through the numeric inverse
    calls = []
    for module in (measure_kit, diffusion_model):

        def counted(f, ys, invert=module.invert_monotone_vec):
            calls.append(np.size(ys))
            return invert(f, ys)

        monkeypatch.setattr(module, "invert_monotone_vec", counted)
    cases = [(name, {}) for name in sorted(CATALOG)]
    cases += [(name, workloads.parse_params(params)) for name, params in workloads.GOLDEN]
    assert len(cases) == len(CATALOG) + 15
    for name, params in cases:
        classify(build_model(name, params))
    assert calls == []


_PUSHED_SPEEDS = [(name, {}) for name in sorted(CATALOG) if name != "fat_cantor"] + [
    (name, workloads.parse_params(params)) for name, params in workloads.GOLDEN if name != "fat_cantor"
]


@pytest.mark.parametrize("name, params", _PUSHED_SPEEDS)
def test_a_declared_natural_speed_changes_no_verdict(name, params):
    # the closed-form natural-scale speed declared, against the pushforward
    # of the state speed that the builder leaves to derive_natural_scale:
    # the same four verdicts and condition reports, the gamma block aside
    pushed, declared = classify(build_model(name, params)), classify(build_with_speed_natural(name, params))
    assert dataclasses.replace(pushed, impr=None) == dataclasses.replace(declared, impr=None)


@pytest.mark.parametrize("kappa, xi, r", [(0.75, 4 / 3, 1.0), (0.75, 4 / 3, 0.9), (0.3, -2.5, 0.4), (0.5, 1.0, -2.0)])
def test_sticky_skew_gamma_at_its_kink_is_minus_r_xi(kappa, xi, r):
    # started at the kink, whose image u = 0 is the middle gamma sample:
    # q'' = 0 there, and the density and q' both take their right-hand
    # values, so gamma = -r q mU_ac / q'**2 = -r xi
    samples = classify(build_model("sticky_skew", {"kappa": kappa, "xi": xi, "r": r})).impr["samples"]
    (g,) = [g for u, g in samples if u == 0.0]
    assert g == pytest.approx(-r * xi, rel=1e-15)
    if (kappa, xi, r) == (0.75, 4 / 3, 1.0):
        assert g == -1.3333333333333333


def _bits(a) -> np.ndarray:
    return np.asarray(a, float).view(np.uint64)


@pytest.mark.parametrize("name", _UNANNOTATED)
def test_state_chart_keeps_the_bits_of_the_root_record_inverse(name):
    # phi, gamma and the undivided drift, read in the state chart, against
    # the u chart of the root-record inverse they replaced, with the pushed
    # density read through it: at random u, at the kink images of q and
    # beside the finite boundary images (doc00-doc03 are the first document
    # of each benchmark family)
    spec = load_model_spec(_golden_doc(name))
    view = derive_natural_scale(spec)
    q = inverse_piece_with_root_record(spec.scale, view.sJ)
    ref = dataclasses.replace(view, q=q, mU=pushforward(spec.speed, spec.scale, q), scale=None, m_ac=None)
    lo, hi = max(view.sJ[0], view.s_x0 - 4.0), min(view.sJ[1], view.s_x0 + 4.0)
    ends = [e + k * 1e-9 * (1 + abs(e)) for e in view.sJ if math.isfinite(e) for k in (-1, 1)]
    ends += [np.nextafter(e, s_) for e in view.sJ if math.isfinite(e) for s_ in (-INF, INF)]
    u = np.concatenate([
        np.random.default_rng(len(name)).uniform(lo, hi, 2_001), [c for c, _ in view.q.kinks],
        [e for e in ends if view.sJ[0] < e < view.sJ[1]],
    ])
    assert np.array_equal(_bits(view.phi(u)), _bits(ref.phi(u)))
    assert np.array_equal(_bits(view.drift_over_slope(view.chart(u), 2)), _bits(ref.drift_over_slope(u, 2)))
    assert np.array_equal(_bits(view.drift_over_slope(view.chart(u), 0)), _bits(ref.drift_over_slope(u, 0)))


@pytest.mark.parametrize("name", ["doc00_sticky", "doc03_cubic", "doc05_sticky_cubic"])
def test_chart_integral_of_phi_squared_equals_the_u_side_integral(name):
    # integral of phi**2 du over a window in u, against the integral of
    # phi_dt**2 = phi**2 du/dt over its chart image: affine and cubic
    # scales, and the collar of doc05's reflecting end, where s' is not
    # constant
    spec = load_model_spec(_golden_doc(name))
    view = derive_natural_scale(spec)
    windows = [(view.s_x0 - 0.5, view.s_x0 + 0.5)]
    if math.isfinite(view.sJ[0]):
        windows.append(view.collar("left"))
    for window in windows:
        t_window = tuple(view.chart(np.asarray(window)).tolist())
        u_side = adaptive_quad(lambda u: view.phi(u) ** 2, *window, rtol=1e-14, atol=0.0)
        t_side = adaptive_quad(lambda t: view.phi_dt(t) ** 2, *t_window, rtol=1e-14, atol=0.0)
        assert abs(t_side - u_side) <= 1e-12 * abs(u_side), (window, u_side, t_side)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_default_classifies_to_its_committed_report(name, tmp_path):
    # every catalog entry at its defaults. The same numpy-build caveat as
    # above: on another build a report may need regenerating with
    # diffarb classify --catalog NAME --out tests/golden/
    assert main(["classify", "--catalog", name, "--out", str(tmp_path)]) in (0, 2)
    assert (tmp_path / f"classify_{name}.json").read_bytes() == (_GOLDEN / f"classify_{name}.json").read_bytes()
