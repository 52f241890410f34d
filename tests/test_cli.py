"""CLI integration tests: exit codes, file outputs, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from diffarb import cli_app, mc_engine
from diffarb.cli_app import main
from diffarb.diffusion_model import derive_natural_scale
from diffarb.mc_engine import build_chain, evaluate_strategy, plan_strategy, sample_paths
from diffarb.model_catalog import build_model

from oracles import run_strategy


def run(args):
    return main(args)


def test_catalog_list_and_show(capsys):
    assert run(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "sticky_skew" in out and "brownian_motion" in out
    assert run(["catalog", "show", "sticky_skew"]) == 0
    out = capsys.readouterr().out
    assert "kappa" in out
    assert run(["catalog", "show", "unknown_model"]) == 1


def test_classify_catalog_all_hold(tmp_path, capsys):
    code = run(["classify", "--catalog", "sticky_skew", "--params", "r=1.0", "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "classify_sticky_skew.json").read_text())
    assert (rep["nip"], rep["nsa"], rep["nupbr"]) == ("holds", "holds", "holds")
    assert rep["rp"] == "holds"
    assert any(c["id"] == "NIP.ii" for c in rep["reports"])


def test_classify_absorbing_start_exit_1(tmp_path, capsys):
    doc = {
        "model_id": "absorbed_start",
        "state_interval": {"alpha": 0.0, "beta": "inf", "alpha_closed": True},
        "scale": {"node": "affine", "a": 1.0, "b": 0.0},
        "speed": {"ac": {"node": "const", "c": 1.0}, "atoms": [[0.0, "inf"]], "sc": None},
        "x0": 0.0,
        "r": 0.1,
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code = run(["classify", "--model", str(path), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "absorbing" in err


def test_classify_declared_speed_one_percent_off_exit_1(tmp_path, capsys):
    # speed_natural must be the pushforward of speed: here m_ac = 1 under the
    # scale 2x, so mU_ac = 1/2, declared 1 % too large
    doc = {
        "model_id": "speed_off",
        "state_interval": {"alpha": "-inf", "beta": "inf"},
        "scale": {"node": "affine", "a": 2.0, "b": 0.0},
        "speed": {"ac": {"node": "const", "c": 1.0}},
        "speed_natural": {"ac": {"node": "const", "c": 0.505}},
        "x0": 0.0,
        "r": 0.0,
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert run(["classify", "--model", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "declared natural-scale speed disagrees with pushforward" in err[0]
    doc["speed_natural"]["ac"]["c"] = 0.5
    path.write_text(json.dumps(doc))
    assert run(["classify", "--model", str(path), "--out", str(tmp_path)]) == 0


def test_classify_incomparable_sc_exit_2(tmp_path, capsys):
    staircase = {
        "node": "tabulated",
        "samples": [[0.0, 0.0], [0.25, 0.5], [0.75, 0.5], [1.0, 1.0]],
    }
    doc = {
        "model_id": "sc_mismatch",
        "state_interval": {"alpha": "-inf", "beta": "inf"},
        "scale": {"node": "affine", "a": 1.0, "b": 0.0},
        "speed": {"ac": {"node": "const", "c": 1.0}, "atoms": [], "sc": None},
        "speed_natural": {
            "ac": {"node": "const", "c": 1.0},
            "atoms": [],
            "sc": {
                "base_id": "stair_A",
                "base_cdf": staircase,
                "multiplier": {"node": "const", "c": 1.0},
                "support": [0.0, 1.0],
            },
        },
        "qpp_sc": {
            "base_id": "stair_B",
            "base_cdf": staircase,
            "multiplier": {"node": "const", "c": 1.0},
            "support": [0.0, 1.0],
        },
        "x0": 0.5,
        "r": 1.0,
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code = run(["classify", "--model", str(path), "--out", str(tmp_path)])
    assert code == 2
    rep = json.loads((tmp_path / "classify_sc_mismatch.json").read_text())
    assert rep["nip"] == "inconclusive"


def test_classify_malformed_spec_names_field(tmp_path, capsys):
    doc = {"state_interval": {"alpha": 0, "beta": 1}, "scale": {"node": "affine", "a": 1, "b": 0}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["classify", "--model", str(path), "--out", str(tmp_path)]) == 1
    assert "speed" in capsys.readouterr().err
    # scalar fields must be finite numbers
    good = {
        "state_interval": {"alpha": "-inf", "beta": "inf"},
        "scale": {"node": "affine", "a": 1.0, "b": 0.0},
        "speed": {"ac": {"node": "const", "c": 1.0}, "atoms": [], "sc": None},
        "x0": 0.0,
        "r": 0.0,
        "horizon": 1.0,
    }
    for field, value in (("x0", None), ("horizon", None), ("r", "nan")):
        path.write_text(json.dumps({**good, field: value}))
        assert run(["classify", "--model", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and repr(field) in err[0]
    assert not (tmp_path / "out").exists()


def test_classify_no_model_given(tmp_path, capsys):
    assert run(["classify", "--out", str(tmp_path)]) == 1


def test_classify_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["classify", "--catalog", "cubed_bm", "--seed", "7", "--out", str(out)]) == 0
    fa, fb = a / "classify_cubed_bm.json", b / "classify_cubed_bm.json"
    assert fa.read_bytes() == fb.read_bytes()


def test_simulate_and_report_round_trip(tmp_path, capsys):
    out = str(tmp_path)
    assert run(["classify", "--catalog", "sticky_reflected_bm", "--params", "r=0.0,rho=0.0", "--out", out]) == 0
    code = run(
        [
            "simulate",
            "--catalog",
            "sticky_reflected_bm",
            "--params",
            "r=0.0,rho=0.0",
            "--paths",
            "2000",
            "--grid",
            "128",
            "--out",
            out,
        ]
    )
    assert code == 0
    sim = json.loads((tmp_path / "simulate_sticky_reflected_bm.json").read_text())
    assert sim["seed"] == 42
    assert (tmp_path / "kladder_sticky_reflected_bm.csv").exists()
    assert (tmp_path / "payoffs_sticky_reflected_bm.csv").exists()
    kladder = (tmp_path / "kladder_sticky_reflected_bm.csv").read_text().splitlines()
    assert kladder[0] == "grid_size,K_estimate,ratio_to_previous"
    # reflected Bachelier at zero rate: empirical arbitrage must be flagged
    strat = [s for s in sim["strategies"] if s["name"].startswith("post_hitting_hold")][0]
    assert strat["wilson95"][0] > 0
    assert strat["min_payoff"] >= -2 * strat["grid_step"]

    capsys.readouterr()
    assert run(["report", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "sticky_reflected_bm" in text
    table = (tmp_path / "report_table.csv").read_text().splitlines()
    assert table[0].startswith("model_id,r,nip,nsa,nupbr,rp")
    row = [ln for ln in table[1:] if ln.startswith("sticky_reflected_bm")][0]
    assert ",fails," in row  # NIP fails for the reflected zero-rate model
    assert "True" in row  # and the empirical arbitrage column agrees


def test_simulate_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert (
            run(
                [
                    "simulate",
                    "--catalog",
                    "brownian_motion",
                    "--params",
                    "r=0.2",
                    "--paths",
                    "1500",
                    "--grid",
                    "96",
                    "--seed",
                    "11",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
    assert (a / "simulate_brownian_motion.json").read_bytes() == (
        b / "simulate_brownian_motion.json"
    ).read_bytes()
    assert (a / "kladder_brownian_motion.csv").read_bytes() == (
        b / "kladder_brownian_motion.csv"
    ).read_bytes()


def test_report_empty_dir_exit_1(tmp_path, capsys):
    assert run(["report", "--out", str(tmp_path)]) == 1


def test_simulate_dump_paths_flag(tmp_path):
    code = run(
        [
            "simulate", "--catalog", "brownian_motion", "--paths", "300",
            "--grid", "64", "--out", str(tmp_path), "--dump-paths",
        ]
    )
    assert code == 0
    lines = (tmp_path / "paths_brownian_motion.csv").read_text().splitlines()
    assert lines[0] == "path,terminal_u,terminal_value,discarded"
    assert len(lines) == 301


def test_tolerance_overrides_parse_and_apply(tmp_path, capsys):
    code = run(
        [
            "classify", "--catalog", "sticky_reflected_bm", "--params", "r=0.5,rho=1.0",
            "--tol", "eq_rel=1e-6,rel=1e-7", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    for key in ("bogus_key", "invert"):
        argv = ["classify", "--catalog", "brownian_motion", "--tol", f"{key}=1e-6", "--out", str(tmp_path)]
        assert run(argv) == 1
        assert f"unknown tolerance key '{key}'" in capsys.readouterr().err


def test_model_file_with_catalog_reference(tmp_path):
    doc = {"catalog": "brownian_motion", "params": {"r": 0.1}}
    path = tmp_path / "ref.json"
    path.write_text(json.dumps(doc))
    assert run(["classify", "--model", str(path), "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "classify_brownian_motion.json").read_text())
    assert rep["r"] == 0.1


def test_env_variable_overrides(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DIFFARB_SEED", "123")
    monkeypatch.setenv("DIFFARB_OUT", str(tmp_path))
    assert run(["classify", "--catalog", "brownian_motion"]) == 0
    rep = json.loads((tmp_path / "classify_brownian_motion.json").read_text())
    assert rep["seed"] == 123
    # an integer variable that does not parse is one error line, exit 1
    capsys.readouterr()
    for name in ("SEED", "GRID", "PATHS", "LEVELS"):
        with monkeypatch.context() as m:
            m.setenv(f"DIFFARB_{name}", "abc")
            assert run(["catalog", "list"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and f"DIFFARB_{name}" in err[0]


def test_env_read_on_every_in_process_call(tmp_path, monkeypatch, capsys):
    # one process, many commands: the parser kept for one environment is
    # not the one for the next
    monkeypatch.setenv("DIFFARB_OUT", str(tmp_path))
    report = tmp_path / "classify_brownian_motion.json"
    for seed in ("5", "6", "5"):
        monkeypatch.setenv("DIFFARB_SEED", seed)
        assert run(["classify", "--catalog", "brownian_motion"]) == 0
        assert json.loads(report.read_text())["seed"] == int(seed)
    capsys.readouterr()
    monkeypatch.setenv("DIFFARB_SEED", "abc")
    for _ in range(2):
        assert run(["classify", "--catalog", "brownian_motion"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "DIFFARB_SEED" in err[0]


def test_command_rebound_after_the_first_call_is_the_one_that_runs(tmp_path, monkeypatch):
    assert run(["classify", "--catalog", "brownian_motion", "--out", str(tmp_path)]) == 0
    seen = []
    monkeypatch.setattr(cli_app, "cmd_classify", lambda args: seen.append(args.catalog) or 0)
    assert run(["classify", "--catalog", "brownian_motion", "--out", str(tmp_path)]) == 0
    assert seen == ["brownian_motion"]


def test_simulate_one_batch_matches_run_strategy(tmp_path):
    params = {"r": 0.5, "rho": 1.0}
    code = run(
        [
            "simulate", "--catalog", "sticky_reflected_bm", "--params", "r=0.5,rho=1",
            "--paths", "1200", "--grid", "64", "--seed", "8", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    sim = json.loads((tmp_path / "simulate_sticky_reflected_bm.json").read_text())
    spec = build_model("sticky_reflected_bm", params)
    view = derive_natural_scale(spec)
    strategies = [
        run_strategy(view, spec, name, n_paths=1200, seed=8, N=64)
        for name in ("post_hitting_hold", "boundary_sit")
    ]
    assert len(sim["strategies"]) == 2
    for got, want in zip(sim["strategies"], strategies):
        assert got == {
            "name": want.name,
            "n_used": want.n_used,
            "mean": want.mean,
            "se": want.se,
            "min_payoff": want.min_payoff,
            "frac_positive": want.frac_positive,
            "wilson95": [want.wilson_low, want.wilson_high],
            "grid_step": want.grid_step,
        }

    chain = build_chain(view, spec, N=64)
    plan = plan_strategy(view, chain, "post_hitting_hold")
    batch = sample_paths(chain, 1200, 8, spec.horizon, hit_levels=[plan.hit_level], stream=7)
    _, pay = evaluate_strategy(batch, plan)
    assert sim["discarded_paths"] == int(batch.discarded.sum())
    counts, edges = np.histogram(pay, bins=40, range=(pay.min(), pay.max()))
    rows = [ln.split(",") for ln in (tmp_path / "payoffs_sticky_reflected_bm.csv").read_text().splitlines()]
    assert rows[0] == ["bin_left", "bin_right", "count"]
    assert [[float(a), float(b), int(c)] for a, b, c in rows[1:]] == [
        [edges[i], edges[i + 1], counts[i]] for i in range(40)
    ]


def test_simulate_samples_paths_once(tmp_path, monkeypatch):
    calls = []
    sample_paths = mc_engine.sample_paths

    def counted(*args, **kwargs):
        calls.append(kwargs.get("stream"))
        return sample_paths(*args, **kwargs)

    monkeypatch.setattr(mc_engine, "sample_paths", counted)
    monkeypatch.setattr(cli_app, "sample_paths", counted, raising=False)
    code = run(
        [
            "simulate", "--catalog", "sticky_reflected_bm", "--params", "r=0.5,rho=1",
            "--paths", "300", "--grid", "64", "--seed", "3", "--out", str(tmp_path),
        ]
    )
    assert code == 0
    assert calls == [7]
    sim = json.loads((tmp_path / "simulate_sticky_reflected_bm.json").read_text())
    assert [s["name"] for s in sim["strategies"]] == ["post_hitting_hold@1", "boundary_sit"]
    assert [d["target"] for d in sim["diagnostics"]] == ["U_minus_half_L", "discounted_price_drift"]
    # the diagnostics read every kept path of the batch: one terminal increment or one residual each
    kept = sim["n_paths"] - sim["discarded_paths"]
    assert [d["n_samples"] for d in sim["diagnostics"]] == [kept, kept]


# J = [0, 1] with Brownian scale and speed, one end absorbing (an infinite
# atom) and the other reflecting: (x0, absorbing end, boundaries). U - L/2
# stopped at absorption is a martingale, so both diagnostics pass.
_ABSORB_AND_REFLECT = {
    "absorbing_left": (0.3, 0.0, {"left": "absorbing", "right": "reflecting"}),
    "absorbing_right": (0.7, 1.0, {"left": "reflecting", "right": "absorbing"}),
}


@pytest.mark.parametrize("label", list(_ABSORB_AND_REFLECT))
def test_u_minus_half_l_stops_at_absorption(tmp_path, label):
    x0, end, boundaries = _ABSORB_AND_REFLECT[label]
    doc = {
        "state_interval": {"alpha": 0, "beta": 1, "alpha_closed": True, "beta_closed": True},
        "scale": {"node": "affine", "a": 1, "b": 0},
        "speed": {"ac": {"node": "const", "c": 1}, "atoms": [[end, "inf"]]},
        "x0": x0,
        "r": 0,
        "boundaries": boundaries,
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    argv = ["simulate", "--model", str(path), "--id", label, "--paths", "4000", "--grid", "128", "--seed", "1"]
    assert run(argv + ["--out", str(tmp_path), "--dump-paths"]) == 0
    rows = (tmp_path / f"paths_{label}.csv").read_text().splitlines()[1:]
    assert sum(float(row.split(",")[1]) == end for row in rows) > 100  # many paths are absorbed
    sim = json.loads((tmp_path / f"simulate_{label}.json").read_text())
    kept = sim["n_paths"] - sim["discarded_paths"]
    assert [(d["target"], d["n_samples"], d["pass"]) for d in sim["diagnostics"]] == [
        ("U_minus_half_L", kept, True),
        ("discounted_price_drift", kept, True),
    ]


def test_simulate_rejects_bad_paths_and_levels(tmp_path, capsys):
    base = ["simulate", "--catalog", "brownian_motion", "--grid", "64", "--out", str(tmp_path)]
    for flag, value, word in (
        ("--paths", "0", "--paths"),
        ("--paths", "1", "--paths"),
        ("--levels", "2", "--levels"),
    ):
        assert run(base + [flag, value]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and word in err[0]
    assert not list(tmp_path.iterdir())


def test_report_label_restricted(tmp_path, capsys):
    out = tmp_path / "out"
    for args in (
        ["classify", "--catalog", "brownian_motion"],
        ["simulate", "--catalog", "brownian_motion", "--paths", "100", "--grid", "64"],
    ):
        assert run(args + ["--out", str(out), "--id", "../../../escaped"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "label" in err[0]
    doc = {
        "model_id": "../evil",
        "state_interval": {"alpha": "-inf", "beta": "inf"},
        "scale": {"node": "affine", "a": 1.0, "b": 0.0},
        "speed": {"ac": {"node": "const", "c": 1.0}, "atoms": [], "sc": None},
        "x0": 0.0,
        "r": 0.0,
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert run(["classify", "--model", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "label" in err[0]
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["model.json"]
    # a conforming --id overrides a bad model_id
    assert run(["classify", "--model", str(path), "--out", str(out), "--id", "ok_label-1.0"]) == 0
    assert (out / "classify_ok_label-1.0.json").exists()


_ONE = {"node": "const", "c": 1.0}
_BM_DOC = {
    "state_interval": {"alpha": "-inf", "beta": "inf"},
    "scale": {"node": "affine", "a": 1.0, "b": 0.0},
    "speed": {"ac": _ONE, "atoms": [], "sc": None},
    "x0": 0.0,
    "r": 0.0,
}
_CLOSED_AS_STRING = {
    **_BM_DOC,
    "state_interval": {"alpha": 1.0, "beta": "inf", "alpha_closed": "false"},
    "speed": {"ac": _ONE, "atoms": [[1.0, 1.0]], "sc": None},
    "x0": 1.5,
    "r": 0.5,
    "boundaries": {"left": "reflecting"},
}
MALFORMED_DOCS = {
    "list_for_a_number": {**_BM_DOC, "scale": {"node": "affine", "a": [1], "b": 0}},
    "number_for_a_list": {**_BM_DOC, "scale": {"node": "sum", "terms": 3}},
    "sample_not_a_pair": {**_BM_DOC, "scale": {"node": "tabulated", "samples": [1, 2]}},
    "atom_not_a_pair": {**_BM_DOC, "speed": {"ac": _ONE, "atoms": [[0.0]], "sc": None}},
    "boundaries_not_an_object": {**_BM_DOC, "boundaries": ["left"]},
    "state_interval_not_an_object": {**_BM_DOC, "state_interval": [0, 1]},
    "zero_set_item_of_one": {**_BM_DOC, "qprime_zero_set": [[0.5]]},
    "closed_flag_a_string": _CLOSED_AS_STRING,
    "extra_node_key": {**_BM_DOC, "scale": {"node": "affine", "a": 1, "b": 0, "c": 5}},
    "catalog_params_a_list": {"catalog": "brownian_motion", "params": [1]},
    "catalog_param_a_list": {"catalog": "brownian_motion", "params": {"r": [1]}},
    "catalog_name_a_list": {"catalog": ["brownian_motion"]},
    "catalog_extra_key": {"catalog": "brownian_motion", "seed": 1},
    "document_not_an_object": 5,
}
_BM = ["classify", "--catalog", "brownian_motion"]
MALFORMED_ARGS = {
    "params_without_value": _BM + ["--params", "foo"],
    "params_zero_denominator": _BM + ["--params", "x0=1/0"],
    "params_nan_rate": _BM + ["--params", "r=nan"],
    "params_infinite_rate": _BM + ["--params", "r=inf"],
    "generations_infinite": ["classify", "--catalog", "fat_cantor", "--params", "generations=inf"],
    "generations_fractional": ["classify", "--catalog", "fat_cantor", "--params", "generations=2.5"],
    "generations_above_50": ["classify", "--catalog", "fat_cantor", "--params", "generations=51"],
    "fat_cantor_infinite_start": ["classify", "--catalog", "fat_cantor", "--params", "u0=inf"],
    "sticky_skew_infinite_point": ["classify", "--catalog", "sticky_skew", "--params", "xi=inf"],
    "bessel_negative_atom": ["classify", "--catalog", "gen_squared_bessel", "--params", "m0=-1"],
    "bessel_minus_infinite_atom": ["classify", "--catalog", "gen_squared_bessel", "--params", "m0=-inf"],
    "cubed_bm_nonzero_rate": ["classify", "--catalog", "cubed_bm", "--params", "r=1"],
    "squared_bessel_nonzero_rate": ["classify", "--catalog", "squared_bessel", "--params", "r=1/2"],
    "fat_cantor_nonzero_rate": ["classify", "--catalog", "fat_cantor", "--params", "r=-1"],
    "tol_without_value": _BM + ["--tol", "rel"],
    "unknown_flag": _BM + ["--bogus", "1"],
    "classify_grid": _BM + ["--grid", "64"],
    "report_grid": ["report", "--grid", "64"],
}
# rows whose one parameter lies outside its catalog range: the error names it
_RANGE_ROWS = (
    "generations_fractional",
    "generations_above_50",
    "bessel_negative_atom",
    "bessel_minus_infinite_atom",
    "cubed_bm_nonzero_rate",
    "squared_bessel_nonzero_rate",
    "fat_cantor_nonzero_rate",
)


@pytest.mark.parametrize(
    "argv,doc",
    [pytest.param(["classify"], doc, id=name) for name, doc in MALFORMED_DOCS.items()]
    + [pytest.param(argv, None, id=name) for name, argv in MALFORMED_ARGS.items()],
)
def test_malformed_input_is_one_error_line(tmp_path, capsys, recwarn, argv, doc):
    if doc is not None:
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        argv = argv + ["--model", str(path)]
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    if argv in [MALFORMED_ARGS[name] for name in _RANGE_ROWS]:
        param = argv[-1].split("=")[0]
        assert err[0].startswith(f"error: parameter {param!r}"), err
    # pytest records warnings instead of printing them: a warning would be
    # one more stderr line outside the test
    assert not recwarn.list, [str(w.message) for w in recwarn]
    assert not out.exists()


# zero-rate documents on which the reference path must test each zero as the
# general path does: a reflecting boundary with a tiny slope q' = 1e-12, and
# a singular-continuous part of q'' with a zero multiplier
ZERO_RATE_DOCS = {
    "tiny_reflecting_slope": (
        {
            "state_interval": {"alpha": 0, "beta": "inf", "alpha_closed": True},
            "scale": {"node": "affine", "a": 1e12, "b": 0},
            "speed": {"ac": {"node": "const", "c": 1}},
            "x0": 1,
            "r": 0,
            "boundaries": {"left": "reflecting"},
        },
        "fails",
    ),
    "zero_sc_part": (
        {
            **_BM_DOC,
            "qpp_sc": {
                "base_id": "stair",
                "base_cdf": {"node": "tabulated", "samples": [[0, 0], [1, 1]]},
                "multiplier": {"node": "const", "c": 0},
            },
        },
        "holds",
    ),
}


@pytest.mark.parametrize("doc,want", [pytest.param(*v, id=k) for k, v in ZERO_RATE_DOCS.items()])
def test_zero_rate_reference_agrees_with_general_path(tmp_path, capsys, doc, want):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert run(["classify", "--model", str(path), "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "classify_model.json").read_text())
    assert (rep["nip"], rep["nsa"], rep["nupbr"]) == (want,) * 3
    assert capsys.readouterr().err == ""


def test_help_still_exits_0(capsys):
    for argv in (["--help"], ["classify", "--help"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0
    assert "--tol" in capsys.readouterr().out


def test_overflowing_exp_integral_scale_is_one_error_line(tmp_path, capsys):
    # the growth exp(-y/2) overflows far to the left: one error line, not
    # an OverflowError traceback
    doc = {
        "state_interval": {"alpha": "-inf", "beta": "inf"},
        "scale": {"node": "exp_integral", "mu": {"node": "const", "c": -0.5}},
        "speed": {"ac": {"node": "const", "c": 1}},
        "x0": 0,
        "r": 0.5,
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    rc = run(["classify", "--model", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.strip().splitlines()
    assert rc == 1 and len(err) == 1 and err[0].startswith("error:"), err


def test_closed_stdout_pipe_is_not_a_traceback(tmp_path):
    # ``diffarb classify ... | head -1``: the reader may close the pipe
    # before the command prints
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-m", "diffarb.cli_app", "classify", "--catalog", "brownian_motion", "--out", str(tmp_path)]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
