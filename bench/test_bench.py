"""Tests of the benchmark's own code: input generation, verdict oracles,
latency percentiles and the tracer.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import contextlib
import importlib
import io
import math
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402
from diffarb.arb_classifier import classify  # noqa: E402
from diffarb.diffusion_model import load_model_spec  # noqa: E402
from diffarb.measure_kit import KinkMismatchError  # noqa: E402
from diffarb.model_catalog import build_model, expected_verdict  # noqa: E402
from spans import MODULES, Tracer  # noqa: E402


def _verdict(spec):
    v = classify(spec)
    return (v.nip, v.nsa, v.nupbr, v.rp)


def _catalog_expected(name, params):
    e = expected_verdict(name, {k: float(v) for k, v in params.items()})
    return (e.nip, e.nsa, e.nupbr, e.rp)


# ---------------------------------------------------------------------------
# seeded generation
# ---------------------------------------------------------------------------


def test_same_seed_gives_identical_inputs():
    assert W.catalog_inputs(5) == W.catalog_inputs(5)
    assert W.catalog_inputs(5, 3) == W.catalog_inputs(5, 3)
    assert W.doc_inputs(5) == W.doc_inputs(5)
    assert W.doc_inputs(5, 2) == W.doc_inputs(5, 2)
    assert W.simulate_args(5, "out") == W.simulate_args(5, "out")


@pytest.mark.parametrize("other", [(2, 0), (1, 1)])
def test_seed_and_pass_move_the_numbers_not_the_mix(other):
    a, b = W.catalog_inputs(1), W.catalog_inputs(*other)
    assert [c.name for c in a] == [c.name for c in b]
    assert [c.params for c in a] != [c.params for c in b]
    da, db = W.doc_inputs(1), W.doc_inputs(*other)
    assert [d.family for d in da] == [d.family for d in db]
    assert [d.doc for d in da] != [d.doc for d in db]


def test_every_prefix_of_a_pass_mixes_the_entries():
    draws = [c.name for c in W.catalog_inputs(1) if c.label.startswith("draw")]
    assert draws[: len(W.CATALOG_ENTRIES)] == list(W.CATALOG_ENTRIES)
    families = [d.family for d in W.doc_inputs(1)]
    assert set(families[:4]) == {"sticky", "skew", "absorbing", "cubic"}


def test_rejected_draws_are_drawn_again_in_the_same_slot():
    rejected = []

    def reject(item):
        if item.label not in {lab for lab, _ in rejected}:
            rejected.append((item.label, item))
            return "defect"
        return ""

    plain, redrawn = W.doc_inputs(4), W.doc_inputs(4, reject=reject)
    assert [d.label for d in redrawn] == [d.label for d in plain]
    assert [d.family for d in redrawn] == [d.family for d in plain]
    assert all(d.doc != first.doc for d, (_, first) in zip(redrawn, rejected))
    # a draw rejected every time stays, so that its failure shows
    assert len(W.catalog_inputs(4, reject=lambda c: "defect")) == len(W.catalog_inputs(4))


def test_catalog_draws_cover_both_verdicts_of_the_predicates():
    for name in ("sticky_reflected_bm", "sticky_skew"):
        got = {
            _catalog_expected(name, W.parse_params(c.params))[0]
            for seed in range(3)
            for c in W.catalog_inputs(seed)
            if c.name == name and c.label.startswith("draw")
        }
        assert got == {W.HOLDS, W.FAILS}, name


def test_documents_carry_no_annotations():
    for d in W.doc_inputs(3):
        assert not {"inverse_scale", "speed_natural"} & set(d.doc)
        load_model_spec(d.doc)


# ---------------------------------------------------------------------------
# by-construction verdicts against the catalog models they reduce to
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("r,rho", [(F(1, 2), F(1)), (F(1, 2), F(9, 10)), (F(3, 4), F(2, 3)), (F(2), F(1, 2))])
def test_sticky_family_is_sticky_reflected_bm_at_unit_slope_and_boundary(r, rho):
    doc, expected = W.sticky_doc(F(1), F(1), r, rho, F(1), F(3, 2))
    params = {"r": r, "rho": rho, "x0": F(3, 2)}
    assert (expected,) * 3 + (W.HOLDS,) == _catalog_expected("sticky_reflected_bm", params)
    floats = {k: float(v) for k, v in params.items()}
    assert _verdict(load_model_spec(doc)) == _verdict(build_model("sticky_reflected_bm", floats))


# The first two documents hit the known defect: the numeric inverse lands
# one ulp past the kink and classify raises KinkMismatchError.
KINK_DEFECT = pytest.mark.xfail(raises=KinkMismatchError, strict=True, reason="numeric inverse misses the kink")


@pytest.mark.parametrize(
    "kappa,xi,r,c",
    [
        pytest.param(F(3, 4), F(4, 3), F(1), F(1), marks=KINK_DEFECT),
        pytest.param(F(3, 4), F(4, 3), F(9, 10), F(1), marks=KINK_DEFECT),
        (F(1, 4), F(2), F(-1, 2), F(8, 3)),
    ],
)
def test_single_kink_skew_family_matches_sticky_skew(kappa, xi, r, c):
    # sticky_skew has slopes kappa and 1 - kappa around its kink at xi
    doc, expected = W.skew_doc([xi], [kappa, 1 - kappa], [c], r, F(1), xi / 2)
    params = {"kappa": kappa, "c": c, "xi": xi, "r": r}
    assert (expected,) * 3 + (W.HOLDS,) == _catalog_expected("sticky_skew", params)
    floats = {k: float(v) for k, v in params.items()}
    assert _verdict(load_model_spec(doc)) == _verdict(build_model("sticky_skew", floats))


def test_screening_finds_the_kink_defect_and_passes_a_clean_document():
    import run

    bad, _ = W.skew_doc([F(4, 3)], [F(3, 4), F(1, 4)], [F(1)], F(1), F(1), F(2, 3))
    good, _ = W.skew_doc([F(2)], [F(1, 4), F(3, 4)], [F(8, 3)], F(-1, 2), F(1), F(1))
    wl = run.DocsClassify(0)
    assert wl.screen(W.DocInput("bad", "skew", bad, W.HOLDS)) == "kink_inverse"
    assert wl.screen(W.DocInput("good", "skew", good, W.HOLDS)) == ""


@pytest.mark.xfail(strict=True, reason="generic NSA windows are not clipped to the image interval")
def test_absorbed_bessel_started_near_the_origin_keeps_nsa():
    # the second known defect: s(x0) < 0.5 puts the origin's pole in a generic window
    params = {"nu": -0.75, "r": -2 / 3, "m0": math.inf, "x0": 0.125}
    assert _verdict(build_model("gen_squared_bessel", params)) == _catalog_expected("gen_squared_bessel", params)


def test_cubic_family_without_cubic_term_is_brownian_motion():
    doc, expected = W.cubic_doc(F(0), F(0), F(1, 2), F(1), F(0))
    assert (expected,) * 3 + (W.HOLDS,) == _catalog_expected("brownian_motion", {"r": F(1, 2)})
    assert _verdict(load_model_spec(doc)) == (W.HOLDS,) * 4


@pytest.mark.parametrize("alpha,r", [(F(0), F(1)), (F(1), F(0)), (F(1), F(1, 2))])
def test_absorbing_family_verdict_matches_the_classifier(alpha, r):
    doc, expected = W.absorbing_doc(alpha, F(1), r, F(1), alpha + 1)
    assert _verdict(load_model_spec(doc)) == (expected,) * 3 + (W.HOLDS,)


# ---------------------------------------------------------------------------
# latency percentiles
# ---------------------------------------------------------------------------


def _outcomes(seconds, failed=0):
    import run

    return [run.Outcome("x", s, None) for s in seconds] + [run.Outcome("x", 0.0, None, failed=True)] * failed


def test_host_speed_of_an_operation_comes_from_kernel_times_around_it():
    import run

    cal = run.Calibration()
    cal.starts = [0.0, 0.5, 10.0, 10.5, 30.0]
    cal.times = [0.001, 0.001, 0.002, 0.002, 0.004]
    assert cal.factor(0.2, 0.3) == pytest.approx(run.CAL_REF_MS / 1.0)
    assert cal.factor(10.1, 10.2) == pytest.approx(run.CAL_REF_MS / 2.0)
    # with no kernel time near it, the median of the run
    assert cal.factor(20.0, 20.1) == pytest.approx(run.CAL_REF_MS / 2.0)


def test_percentile_ranks_failures_above_every_success():
    import run

    assert run.percentile_ms(_outcomes([0.001, 0.003]), 0.5) == pytest.approx(2.0)
    # the fast failure does not pull the median down
    assert run.percentile_ms(_outcomes([0.001, 0.002, 0.003], failed=1), 0.5) == pytest.approx(2.5)
    assert run.percentile_ms(_outcomes([0.001], failed=2), 0.5) is None
    assert math.isclose(run.percentile_ms(_outcomes([0.004]), 0.9), 4.0)


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


def test_tracer_rebinds_every_namespace_nests_spans_and_restores():
    mods = {m: importlib.import_module(f"diffarb.{m}") for m in MODULES}
    originals = {(m, n): getattr(mod, n) for m, mod in mods.items() for n in dir(mod)}
    tr = Tracer(mods)
    tr.install()
    try:
        # one function object, bound in several namespaces, is wrapped in each
        assert mods["cli_app"].sample_paths is mods["mc_engine"].sample_paths
        assert mods["cli_app"].sample_paths.__wrapped__ is originals[("mc_engine", "sample_paths")]
        assert mods["diffusion_model"].invert_monotone_vec.__wrapped__ is originals[("measure_kit", "invert_monotone_vec")]
        tr.start_op()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = mods["cli_app"].main(["catalog", "list"])
        assert rc == 0
        spec = mods["model_catalog"].build_model("fat_cantor", {})
        verdict = mods["arb_classifier"].classify(spec)
    finally:
        tr.uninstall()
    assert all(getattr(mod, n) is originals[(m, n)] for m, mod in mods.items() for n in dir(mod))
    assert verdict.triple() == classify(build_model("fat_cantor", {})).triple()

    names = {s[0]: s[3] for s in tr.spans}
    classify_ids = [s[0] for s in tr.spans if s[3] == "arb_classifier.classify"]
    derive = [s for s in tr.spans if s[3] == "diffusion_model.derive_natural_scale"]
    assert len(classify_ids) == 1 and derive and all(names[s[1]] == "arb_classifier.classify" for s in derive)
    # self times never exceed durations, and fat_cantor inverts numerically
    assert all(0 <= st.self <= st.total + 1e-9 for st in tr.stats.values())
    assert tr.inv_points > 0 and tr.verdicts
    assert tr.stat("mc_engine.sample_paths").calls == 0
