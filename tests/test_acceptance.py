"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Statistical checks use fixed seeds and are therefore
deterministic; runtime bounds are asserted alongside the content checks.
"""

import math
import time

import numpy as np

from diffarb.arb_classifier import (
    check_nip,
    check_nsa,
    check_nupbr,
    classify,
)
from diffarb.cli_app import main as cli_main
from diffarb.diffusion_model import derive_natural_scale
from diffarb.measure_kit import LocalBehavior, decide_L2_local, decide_weighted_L2_boundary
from diffarb.mc_engine import (
    build_chain,
    estimate_tradeoff,
    sample_paths,
)
from diffarb.model_catalog import build_model

from fuzz_models import random_spec
from oracles import (
    cell_exit_statistics,
    check_nip_zero_rate,
    ks_distance,
    martingale_diagnostic,
    normal_cdf,
    run_strategy,
)

INF = math.inf


def _report(num: int, desc: str, failures: list[str], elapsed: float, budget: float) -> None:
    ok = not failures and elapsed < budget
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} ({elapsed:.1f}s / {budget:.0f}s budget) - {desc}")
    for f in failures:
        print(f"    failure: {f}")
    if elapsed >= budget:
        failures.append(f"runtime {elapsed:.1f}s exceeded {budget:.0f}s")
    assert not failures, failures


# ---------------------------------------------------------------------------
# 1. golden catalog table
# ---------------------------------------------------------------------------

GOLDEN = [
    ("squared_bessel", {"delta": 0.5, "r": 0.0}, ("holds", "fails", "fails"), None),
    ("squared_bessel", {"delta": 1.0, "r": 0.0}, ("holds", "fails", "fails"), None),
    ("squared_bessel", {"delta": 1.5, "r": 0.0}, ("holds", "fails", "fails"), None),
    ("sticky_reflected_bm", {"r": 0.5, "rho": 1.0}, ("holds", "holds", "holds"), None),
    ("sticky_reflected_bm", {"r": 0.5, "rho": 0.9}, ("fails", "fails", "fails"), None),
    ("sticky_reflected_bm", {"r": 0.0, "rho": 1.0}, ("fails", "fails", "fails"), None),
    ("cubed_bm", {"r": 0.0}, ("holds", "fails", "fails"), None),
    ("fat_cantor", {}, ("holds", "fails", "fails"), "fails"),
    ("sticky_skew", {"kappa": 0.75, "c": 1.0, "xi": 4.0 / 3.0, "r": 1.0}, ("holds", "holds", "holds"), None),
    ("sticky_skew", {"kappa": 0.75, "c": 1.0, "xi": 4.0 / 3.0, "r": 0.9}, ("fails", "fails", "fails"), None),
    ("gen_squared_bessel", {"nu": -0.5, "m0": INF, "r": 0.0}, ("holds", "holds", "fails"), None),
    ("gen_squared_bessel", {"nu": -0.5, "m0": INF, "r": 0.1}, ("holds", "holds", "fails"), None),
    ("gen_squared_bessel", {"nu": -0.5, "m0": 0.0, "r": 0.0}, ("holds", "fails", "fails"), None),
    ("brownian_motion", {"r": 0.0}, ("holds", "holds", "holds"), None),
    ("brownian_motion", {"r": 0.3}, ("holds", "holds", "holds"), None),
]


def test_criterion_1_golden_catalog_table():
    t0 = time.time()
    failures = []
    for name, params, want, want_rp in GOLDEN:
        v = classify(build_model(name, params))
        got = v.triple()
        if got != want:
            failures.append(f"{name} {params}: got {got}, want {want}")
        if "inconclusive" in got:
            failures.append(f"{name} {params}: inconclusive verdict")
        if want_rp is not None and v.rp != want_rp:
            failures.append(f"{name} {params}: RP {v.rp}, want {want_rp}")
    _report(1, "golden catalog verdicts, zero inconclusive", failures, time.time() - t0, 5.0)


# ---------------------------------------------------------------------------
# 2. implication-chain fuzzing
# ---------------------------------------------------------------------------


def test_criterion_2_implication_chain_fuzzing():
    t0 = time.time()
    failures = []
    order = {"holds": 2, "inconclusive": 1, "fails": 0}
    for seed in range(100):
        spec = random_spec(seed)
        view = derive_natural_scale(spec)
        nip, _ = check_nip(view, spec)
        nsa, _ = check_nsa(view, spec, nip_status=nip)
        nupbr, _ = check_nupbr(view, spec, nsa_status=nsa)
        if not (order[nupbr] <= order[nsa] <= order[nip]):
            failures.append(f"seed {seed}: chain violated ({nip}, {nsa}, {nupbr})")
        if not any(b.kind == "absorbing" for _, b in view.boundaries) and nsa != nupbr:
            failures.append(f"seed {seed}: NSA {nsa} != NUPBR {nupbr} without absorbing boundary")
        if spec.r == 0.0:
            zr, _ = check_nip_zero_rate(view, spec)
            if zr != nip:
                failures.append(f"seed {seed}: zero-rate path {zr} != general path {nip}")
    _report(2, "100 fuzzed specs: chain, equivalence, zero-rate agreement", failures, time.time() - t0, 60.0)


# ---------------------------------------------------------------------------
# 3. exponent-rule suite
# ---------------------------------------------------------------------------


def test_criterion_3_exponent_rules_exact():
    t0 = time.time()
    failures = []
    grid = [-2.0 + 0.25 * k for k in range(13)]  # -2, -1.75, ..., 1

    def profile(p):
        def f(x):
            x = np.asarray(x, float)
            with np.errstate(divide="ignore"):
                return np.abs(x) ** p

        return f

    for p in grid:
        v = decide_L2_local(profile(p), (-1.0, 1.0), [LocalBehavior(0.0, "both", p, 1.0)])
        want = "finite" if p > -0.5 else "divergent"
        if v.status != want:
            failures.append(f"L2 rule p={p}: {v.status}, want {want}")
        w = decide_weighted_L2_boundary(profile(p), 0.0, (0.0, 1.0), [LocalBehavior(0.0, "right", p, 1.0)])
        want = "finite" if p > -1.0 else "divergent"
        if w.status != want:
            failures.append(f"weighted rule p={p}: {w.status}, want {want}")
        if "inconclusive" in (v.status, w.status):
            failures.append(f"p={p}: inconclusive")
    _report(3, "exponent rules exact on p grid, zero inconclusive", failures, time.time() - t0, 30.0)


# ---------------------------------------------------------------------------
# 4. chain correctness at scale
# ---------------------------------------------------------------------------


def test_criterion_4_chain_correctness():
    t0 = time.time()
    failures = []
    spec = build_model("brownian_motion", {"x0": 0.0})
    view = derive_natural_scale(spec)
    chain = build_chain(view, spec, N=2**9, horizon=1.0)
    batch = sample_paths(chain, 100_000, seed=42, T=1.0)
    term = chain.grid[batch.terminal_state[batch.kept]]
    se = term.std(ddof=1) / math.sqrt(term.size)
    if abs(term.mean() - 0.0) >= 3 * se:
        failures.append(f"terminal mean {term.mean():.5f} outside 3 SE ({se:.5f})")
    ks = ks_distance(term, lambda x: normal_cdf(np.asarray(x, float)))
    if ks >= 0.02:
        failures.append(f"KS distance {ks:.4f} >= 0.02")
    i = chain.start_index
    d = chain.grid[i + 1] - chain.grid[i]
    st = cell_exit_statistics(chain, i, 100_000, seed=42)
    if abs(st["mean_hold"] - d * d) >= 3 * st["se_hold"]:
        failures.append(f"exit time {st['mean_hold']:.3e} vs {d*d:.3e} outside 3 SE")
    _report(4, "BM chain: martingale terminal law, Gaussian KS, cell exit time", failures, time.time() - t0, 120.0)


# ---------------------------------------------------------------------------
# 5. empirical arbitrage detection
# ---------------------------------------------------------------------------


def test_criterion_5_empirical_arbitrage():
    t0 = time.time()
    failures = []
    spec = build_model("sticky_reflected_bm", {"r": 0.0, "rho": 0.0, "x0": 1.5})
    view = derive_natural_scale(spec)
    res = run_strategy(view, spec, "post_hitting_hold", n_paths=10_000, seed=42, N=512, horizon=1.0)
    if res.min_payoff < -2 * res.grid_step:
        failures.append(f"min payoff {res.min_payoff} below -2 grid steps ({res.grid_step})")
    if not res.wilson_low > 0.0:
        failures.append(f"Wilson CI [{res.wilson_low:.4f}, {res.wilson_high:.4f}] does not exclude 0")
    _report(5, "post-hitting-hold on the reflected zero-rate model realizes arbitrage", failures, time.time() - t0, 60.0)


# ---------------------------------------------------------------------------
# 6. K-divergence discrimination
# ---------------------------------------------------------------------------


def test_criterion_6_tradeoff_divergence():
    t0 = time.time()
    failures = []
    cases = [
        ("cubed_bm", {"r": 0.0, "x0": 1.0}, {}, True),
        ("gen_squared_bessel", {"m0": 0.0, "r": 0.0, "x0": 0.25}, {}, True),
        ("sticky_reflected_bm", {"r": 0.5, "rho": 1.0}, {}, False),
        ("brownian_motion", {"r": 0.0}, {}, False),
        ("brownian_motion", {"r": 0.2}, {}, False),
    ]
    for name, params, kw, want in cases:
        spec = build_model(name, params)
        view = derive_natural_scale(spec)
        tr = estimate_tradeoff(view, spec, base_grid=256, **kw)
        if tr.divergence != want:
            failures.append(
                f"{name} {params}: divergence {tr.divergence} (ratios {tr.ratios}), want {want}"
            )
    _report(6, "3-level refinement ladder separates divergent from stable K", failures, time.time() - t0, 300.0)


# ---------------------------------------------------------------------------
# 7. martingale diagnostics
# ---------------------------------------------------------------------------


def test_criterion_7_martingale_diagnostics():
    t0 = time.time()
    failures = []
    spec = build_model("sticky_reflected_bm", {"r": 0.0, "rho": 0.0})
    view = derive_natural_scale(spec)
    d = martingale_diagnostic(view, spec, "U_minus_half_L", n_paths=5000, N=512, seed=42)
    if not d.passes(3.0):
        failures.append(f"U - L/2 increments biased: t = {d.t_stat:.2f}")

    for r, should_pass in ((1.0, True), (0.8, False)):  # 0.8 = identity violated by 20%
        spec = build_model("sticky_skew", {"r": r})
        view = derive_natural_scale(spec)
        chain = build_chain(view, spec, N=800, grid_in="state", horizon=0.5)
        idx = chain.state_of(0.0)
        d = martingale_diagnostic(
            view, spec, "discounted_price_drift", chain=chain, n_paths=4000, seed=42,
            target_states=[idx], horizon=0.5,
        )
        if d.passes(3.0) != should_pass:
            failures.append(f"sticky-skew r={r}: t = {d.t_stat:.2f}, expected pass={should_pass}")
    _report(7, "reflection compensator centered; sticky-cell drift residual discriminates", failures, time.time() - t0, 120.0)


# ---------------------------------------------------------------------------
# 8. determinism
# ---------------------------------------------------------------------------


def test_criterion_8_determinism(tmp_path):
    t0 = time.time()
    failures = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        rc = cli_main(["classify", "--catalog", "sticky_skew", "--params", "r=1.0", "--seed", "42", "--out", str(out)])
        if rc != 0:
            failures.append(f"classify exited {rc}")
        rc = cli_main(
            [
                "simulate", "--catalog", "sticky_reflected_bm", "--params", "r=0.5,rho=1.0",
                "--paths", "2000", "--grid", "128", "--seed", "42", "--out", str(out),
            ]
        )
        if rc != 0:
            failures.append(f"simulate exited {rc}")
    for fname in (
        "classify_sticky_skew.json",
        "simulate_sticky_reflected_bm.json",
        "kladder_sticky_reflected_bm.csv",
        "payoffs_sticky_reflected_bm.csv",
    ):
        fa = (tmp_path / "a" / fname).read_bytes()
        fb = (tmp_path / "b" / fname).read_bytes()
        if fa != fb:
            failures.append(f"{fname} differs between identical runs")
    _report(8, "fixed seed reruns produce byte-identical reports", failures, time.time() - t0, 60.0)
