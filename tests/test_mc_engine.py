"""Chain construction, sampling identities, estimators, and diagnostics.

Statistical assertions use 3-standard-error tolerances (CLT) with fixed
seeds; construction identities are exact and asserted tightly.
"""

import dataclasses
import functools
import math
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from diffarb import mc_engine
from diffarb.diffusion_model import DiffusionSpec, StateInterval, derive_natural_scale, load_model_spec
from diffarb.mc_engine import (
    build_chain,
    estimate_tradeoff,
    exact_occupation,
    gamma_drift_rates,
    local_time_field,
    sample_paths,
    wilson_interval,
)
from diffarb.measure_kit import Affine, DecomposedMeasure, ScComponent, SmoothPiece1D
from diffarb.model_catalog import build_model

from cantor_staircase import cantor_cdf
from oracles import (
    build_with_speed_natural,
    cell_exit_statistics,
    dense_occupation,
    estimate_local_time_field,
    ks_distance,
    martingale_diagnostic,
    measure_mass,
    normal_cdf,
    run_strategy,
)

INF = math.inf


@pytest.fixture(scope="module")
def bm():
    spec = build_model("brownian_motion", {"x0": 0.0})
    view = derive_natural_scale(spec)
    chain = build_chain(view, spec, N=256, horizon=1.0)
    return spec, view, chain


# ---------------------------------------------------------------------------
# chain construction identities
# ---------------------------------------------------------------------------


def test_bm_chain_fields(bm):
    _, _, chain = bm
    i = chain.start_index
    d = chain.grid[i + 1] - chain.grid[i]
    assert abs(chain.up_prob[i] - 0.5) < 1e-12
    # classical symmetric exit: mean holding time equals the spacing squared
    assert abs(chain.mean_hold[i] - d * d) < 1e-10 * d * d
    assert abs(chain.cell_mass[i] - d) < 1e-10


def test_sticky_boundary_hold_closed_form():
    rho = 0.8
    spec = build_model("sticky_reflected_bm", {"r": 0.5, "rho": rho})
    view = derive_natural_scale(spec)
    chain = build_chain(view, spec, N=128, horizon=1.0)
    assert chain.left_rule == "reflect"
    d = chain.grid[1] - chain.grid[0]
    # 2 * (rho * d + d^2/2), the Green integral of (u1 - y) against dy + rho delta
    assert abs(chain.mean_hold[0] - 2 * (rho * d + d * d / 2)) < 1e-12
    assert chain.up_prob[0] == 1.0


def test_skew_up_probability_matches_harmonic_oracle():
    kappa = 0.7
    spec = build_model("sticky_skew", {"kappa": kappa, "c": 1.0, "xi": 0.0, "r": 0.0})
    view = derive_natural_scale(spec)
    chain = build_chain(view, spec, N=200, grid_in="state", horizon=1.0)
    i = chain.state_of(0.0)
    assert abs(chain.grid[i]) < 1e-12
    assert abs(chain.up_prob[i] - kappa) < 1e-9

    # independent oracle: exit probabilities of the fine-grid walk solve a
    # tridiagonal harmonic system; solve it directly and read the midpoint
    x_left, x_right = -0.01, 0.01
    n_fine = 400
    xs = np.linspace(x_left, x_right, n_fine + 1)
    us = np.asarray(spec.scale.value(xs), float)
    up = (us[1:-1] - us[:-2]) / (us[2:] - us[:-2])
    m = n_fine - 1
    A = np.zeros((m, m))
    rhs = np.zeros(m)
    for i in range(m):
        A[i, i] = 1.0
        if i > 0:
            A[i, i - 1] = -(1.0 - up[i])
        else:
            rhs[i] += 0.0  # exits left absorb at 0
        if i < m - 1:
            A[i, i + 1] = -up[i]
        else:
            rhs[i] += up[i]  # exits right absorb at 1
    h = np.linalg.solve(A, rhs)
    mid = n_fine // 2 - 1
    assert abs(h[mid] - kappa) < 1e-9


def test_atoms_are_snapped_to_grid():
    spec = build_model("sticky_skew")
    view = derive_natural_scale(spec)
    chain = build_chain(view, spec, N=100, horizon=1.0)
    assert np.min(np.abs(chain.grid - 0.0)) == 0.0
    # extra atom mass dm adds its Green weight 2 dm G_i(u_i, u_i) to the hold
    # and dm to the cell mass of the atom's state, and changes no other state
    ((p, m),) = view.mU.atoms
    heavy = build_model("sticky_skew", {"c": 3.0})
    heavy_view = derive_natural_scale(heavy)
    assert heavy_view.mU.atoms == ((p, 3.0 * m),)
    heavy_chain = build_chain(heavy_view, heavy, N=100, horizon=1.0)
    assert np.array_equal(heavy_chain.grid, chain.grid)
    i = chain.state_of(p)
    lo, u, hi = chain.grid[i - 1 : i + 2]
    assert heavy_chain.mean_hold[i] - chain.mean_hold[i] == pytest.approx(4.0 * m * (u - lo) * (hi - u) / (hi - lo))
    assert heavy_chain.cell_mass[i] - chain.cell_mass[i] == pytest.approx(2.0 * m)
    assert np.array_equal(np.delete(heavy_chain.mean_hold, i), np.delete(chain.mean_hold, i))
    assert np.array_equal(np.delete(heavy_chain.cell_mass, i), np.delete(chain.cell_mass, i))


def test_interior_infinite_hold_rejected():
    import dataclasses

    def dens(u):
        u = np.asarray(u, float)
        return np.where(np.abs(u - 0.1) < 0.05, np.inf, 1.0)

    spec = build_model("brownian_motion")
    bad = dataclasses.replace(
        spec,
        speed_natural=None,  # force the pushforward path; the builder rejects
        speed=dataclasses.replace(spec.speed, ac_density=dens),
    )
    view = derive_natural_scale(bad)
    with pytest.raises(ValueError, match="holding"):
        build_chain(view, bad, N=64, horizon=1.0)


def test_chain_requires_min_size(bm):
    spec, view, _ = bm
    with pytest.raises(ValueError):
        build_chain(view, spec, N=8)


def _mirrored_sticky_reflected_bm(r: float, rho: float) -> DiffusionSpec:
    """sticky_reflected_bm reflected through the origin: J = (-inf, -1]."""
    one = lambda x: np.ones_like(np.asarray(x, float))
    atoms = ((-1.0, rho),)
    return DiffusionSpec(
        J=StateInterval(-INF, -1.0, beta_closed=True),
        scale=SmoothPiece1D.from_expr(Affine(1.0, 0.0), (-INF, -1.0)),
        speed=DecomposedMeasure(support=(-INF, -1.0), ac_density=one, atoms=atoms),
        x0=-1.5,
        r=r,
        q_expr=Affine(1.0, 0.0),
        speed_natural=DecomposedMeasure(support=(-INF, -1.0), ac_density=one, atoms=atoms),
        declared_boundaries=(("right", "reflecting"),),
    )


def test_right_reflecting_chain_mirrors_left():
    left_spec = build_model("sticky_reflected_bm", {"r": 0.5, "rho": 0.8})
    right_spec = _mirrored_sticky_reflected_bm(0.5, 0.8)
    left_view, right_view = derive_natural_scale(left_spec), derive_natural_scale(right_spec)
    left = build_chain(left_view, left_spec, N=128, horizon=1.0)
    right = build_chain(right_view, right_spec, N=128, horizon=1.0)
    assert (left.left_rule, left.right_rule) == ("reflect", "pad")
    assert (right.left_rule, right.right_rule) == ("pad", "reflect")
    assert np.allclose(right.grid, -left.grid[::-1], rtol=1e-12, atol=0)
    # reversing the grid swaps up- and down-moves
    assert np.allclose(right.up_prob, 1.0 - left.up_prob[::-1], rtol=1e-12, atol=0)
    finite = np.isfinite(left.mean_hold[::-1])
    assert np.array_equal(np.isfinite(right.mean_hold), finite)
    assert np.allclose(right.mean_hold[finite], left.mean_hold[::-1][finite], rtol=1e-12, atol=0)
    assert np.allclose(right.cell_mass, left.cell_mass[::-1], rtol=1e-12, atol=0)
    # gamma = -r u flips sign with u
    assert np.allclose(
        -gamma_drift_rates(right, right_view), gamma_drift_rates(left, left_view)[::-1], rtol=1e-12, atol=0
    )


def test_sc_speed_part_enters_masses_and_holds():
    spec = build_with_speed_natural("brownian_motion", {"r": 0.4, "x0": 0.5})
    sc = ScComponent("cantor", cantor_cdf, lambda u: 1.0 + np.asarray(u, float) ** 2, (0.0, 1.0))
    sc_spec = dataclasses.replace(spec, speed_natural=dataclasses.replace(spec.speed_natural, sc=sc))
    sc_view = derive_natural_scale(sc_spec)
    plain = build_chain(derive_natural_scale(spec), spec, N=128, horizon=1.0)
    chain = build_chain(sc_view, sc_spec, N=128, horizon=1.0)
    assert np.array_equal(chain.grid, plain.grid)
    window = measure_mass(sc_view.mU, chain.grid[0], chain.grid[-1])
    # Lebesgue mass of the window plus the integral of 1 + u^2 against the
    # Cantor measure, 1 + 3/8
    assert abs(window - (chain.grid[-1] - chain.grid[0] + 1.375)) < 1e-3
    assert abs(chain.cell_mass.sum() - window) < 1e-3
    # interior cells whose neighbour span carries Cantor mass hold strictly
    # longer; the others (the gaps of the Cantor set, the outer cells) do not move
    gains = cantor_cdf(chain.grid[2:]) > cantor_cdf(chain.grid[:-2])
    assert 0 < gains.sum() < gains.size
    assert np.all(chain.mean_hold[1:-1][gains] > plain.mean_hold[1:-1][gains])
    assert np.array_equal(chain.mean_hold[1:-1][~gains], plain.mean_hold[1:-1][~gains])
    # at a reflecting boundary the one-sided Green weight takes the Cantor
    # mass of the boundary cell too (the set starts at the boundary, u = 1)
    refl = build_with_speed_natural("sticky_reflected_bm", {"r": 0.4, "rho": 0.0})
    shifted = ScComponent("cantor", lambda u: cantor_cdf(np.asarray(u, float) - 1.0), np.ones_like, (1.0, 2.0))
    refl_sc = dataclasses.replace(refl, speed_natural=dataclasses.replace(refl.speed_natural, sc=shifted))
    plain = build_chain(derive_natural_scale(refl), refl, N=128, horizon=1.0)
    chain = build_chain(derive_natural_scale(refl_sc), refl_sc, N=128, horizon=1.0)
    assert chain.left_rule == "reflect" and np.array_equal(chain.grid, plain.grid)
    assert chain.mean_hold[0] > plain.mean_hold[0]


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_occupation_sums_to_horizon(bm):
    _, _, chain = bm
    n = 400
    batch = sample_paths(chain, n, seed=3, T=0.75)
    assert int(batch.discarded.sum()) == 0
    assert abs(batch.occupation.sum() - n * 0.75) < 1e-9 * n


def test_occupation_stops_at_absorption():
    spec = build_model("gen_squared_bessel", {"m0": INF, "x0": 0.04, "r": 0.0})
    view = derive_natural_scale(spec)
    chain = build_chain(view, spec, N=64, horizon=1.0, exit_prob_bound=1e-7)
    batch = sample_paths(chain, 300, seed=5, T=1.0, hit_levels=[0])
    keep = batch.kept
    absorb_t = np.minimum(batch.hit_time[0][keep], 1.0)
    assert abs(batch.occupation.sum() - absorb_t.sum()) < 1e-9 * max(1.0, absorb_t.sum())
    # absorbed paths end at the boundary state
    absorbed = np.isfinite(batch.hit_time[0][keep])
    assert np.all(batch.terminal_state[keep][absorbed] == 0)
    assert absorbed.mean() > 0.5  # started close to the boundary


def test_absorbed_price_tail_is_settled_exactly():
    # a weight on the absorbing state only: live paths never hold it, so the
    # payoff is the analytic tail of the price parked at q(u_0), discounting
    # from the absorption time tau to the horizon
    spec = load_model_spec(
        {
            "model_id": "absorbed_at_one",
            "state_interval": {"alpha": 1, "beta": "inf", "alpha_closed": True},
            "scale": {"node": "affine", "a": 1, "b": 0},
            "speed": {"ac": {"node": "const", "c": 1}, "atoms": [[1, "inf"]]},
            "x0": 1.5,
            "r": 0.5,
        }
    )
    chain = build_chain(derive_natural_scale(spec), spec, N=64)
    assert chain.left_rule == "absorb" and chain.q_grid[0] != 0.0
    table = np.zeros(chain.n_states)
    table[0] = 1.0
    T, r = spec.horizon, spec.r
    batch = sample_paths(chain, 3000, 4, T, hit_levels=[0], position_table=table)
    tau = batch.hit_time[0]
    absorbed = np.isfinite(tau)
    assert absorbed.sum() > 1000
    expected = np.zeros(batch.n_paths)
    expected[absorbed] = (math.exp(-r * T) - np.exp(-r * tau[absorbed])) * chain.q_grid[0]
    assert np.array_equal(batch.payoff, expected)


def test_terminal_martingale(bm):
    _, _, chain = bm
    batch = sample_paths(chain, 20_000, seed=11, T=1.0)
    term = chain.grid[batch.terminal_state[batch.kept]]
    se = term.std(ddof=1) / math.sqrt(term.size)
    assert abs(term.mean() - 0.0) < 3 * se


def test_reflected_chain_stays_above_boundary():
    spec = build_model("sticky_reflected_bm", {"r": 0.0, "rho": 0.0})
    view = derive_natural_scale(spec)
    chain = build_chain(view, spec, N=128, horizon=1.0)
    batch = sample_paths(chain, 500, seed=21, T=1.0)
    assert chain.up_prob[0] == 1.0
    assert np.all(chain.grid[batch.terminal_state[batch.kept]] >= 1.0)
    assert batch.occupation[0] > 0.0  # the boundary is actually visited


def test_sampler_determinism(bm):
    _, _, chain = bm
    b1 = sample_paths(chain, 700, seed=9, T=0.5)
    b2 = sample_paths(chain, 700, seed=9, T=0.5)
    assert np.array_equal(b1.terminal_state, b2.terminal_state)
    assert np.array_equal(b1.occupation, b2.occupation)
    b3 = sample_paths(chain, 700, seed=10, T=0.5)
    assert not np.array_equal(b1.terminal_state, b3.terminal_state)


# The fused batch of each chain below, pinned at the commit that made the
# sampler carry one compacted path state: the terminal-state counts (all 65
# states) and the sums of payoff, residual and finite hit times per level.
# Any change to the draws or to the accumulator arithmetic moves them.
_PINNED_BATCHES = {
    "sticky_reflected_bm": (
        [579, 36, 34, 44, 36, 47, 42, 35, 44, 35, 36, 40, 33, 25, 37, 29, 39, 24, 16, 29, 34, 22, 30, 22, 20, 18]
        + [13, 15, 11, 9, 5, 10, 11, 3, 6, 3, 6, 4, 2, 2, 1, 2, 4, 2, 1, 1, 1, 0, 0, 1, 0, 0, 1] + [0] * 12,
        -11.33242087149282,
        -29.232435063844328,
        (228.14071611126454, 297.63614786250866),
    ),
    "gen_squared_bessel": (
        [885, 5, 8, 6, 12, 21, 9, 10, 21, 27, 31, 12, 25, 22, 21, 20, 24, 28, 25, 19, 25, 24, 31, 29, 15, 20, 13]
        + [11, 12, 13, 8, 10, 7, 8, 4, 4, 10, 6, 4, 2, 0, 3, 0, 3, 1, 2, 0, 1, 0, 1, 1, 0, 0, 1] + [0] * 11,
        11.120049317155917,
        -22.608805248807826,
        (221.05619990384096, 290.69637023220866),
    ),
    "brownian_motion": (
        [244, 3, 2, 4, 7, 4, 8, 9, 9, 11, 12, 11, 15, 15, 17, 20, 21, 22, 23, 15, 20, 24, 22, 14, 19, 28, 24, 28]
        + [26, 27, 15, 27, 21, 23, 34, 19, 20, 30, 24, 30, 28, 30, 28, 27, 25, 21, 19, 20, 17, 14, 18, 15, 10, 7]
        + [11, 13, 6, 4, 6, 7, 5, 4, 0, 2, 216],
        -1.1474851329509421,
        -48.26170175725648,
        (307.0110091865008, 159.1718117114142),
    ),
}


def _accumulators(chain, view):
    """The keyword arguments of each accumulator, by name: two hit levels, a
    position table, the drift residual and the occupation of three states
    (the left end, its neighbour and the start)."""
    table = np.zeros(chain.n_states)
    table[1] = 1.0
    table[chain.n_states // 2] = -0.5
    return {
        "hit_levels": {"hit_levels": [chain.start_index // 2, 0]},
        "position_table": {"position_table": table},
        "residual_rates": {"residual_rates": gamma_drift_rates(chain, view)},
        "occupation_states": {"occupation_states": [0, 1, chain.start_index]},
    }


@pytest.mark.parametrize(
    "name, params, build_kw",
    [
        ("sticky_reflected_bm", {"r": 0.5, "rho": 1.0}, {}),
        ("gen_squared_bessel", {"r": 0.5, "x0": 0.3}, {}),
        ("brownian_motion", {"r": 0.3}, {"exit_prob_bound": 0.3}),
    ],
    ids=["reflecting", "absorbing", "padded"],
)
def test_accumulators_do_not_perturb_paths(name, params, build_kw):
    spec = build_model(name, params)
    view = derive_natural_scale(spec)
    chain = build_chain(view, spec, N=64, **build_kw)
    T = spec.horizon
    n = chain.n_states
    extras = _accumulators(chain, view)
    fused = sample_paths(chain, 1500, 31, T, stream=7, **{k: v for kw in extras.values() for k, v in kw.items()})
    if chain.left_rule == "absorb":
        assert np.any(fused.terminal_state == 0)  # absorptions happen
    if build_kw:
        assert np.any(fused.discarded)  # pad exits happen
    counts, payoff, residual, hits = _PINNED_BATCHES[name]
    assert np.array_equal(np.bincount(fused.terminal_state, minlength=n), counts)
    assert fused.payoff.sum() == pytest.approx(payoff, rel=1e-12)
    assert fused.residual.sum() == pytest.approx(residual, rel=1e-12)
    for times, pinned in zip(fused.hit_time.values(), hits):
        assert times[np.isfinite(times)].sum() == pytest.approx(pinned, rel=1e-12)
    # a path's occupation of a state, written when it ends, sums to the batch occupation
    for s, occ in fused.state_occupation.items():
        assert occ.sum() == pytest.approx(fused.occupation[s], rel=1e-12)
    if chain.left_rule == "reflect":
        assert fused.state_occupation[0].sum() > 0.0
    for key, kw in extras.items():
        alone = sample_paths(chain, 1500, 31, T, stream=7, **kw)
        assert np.array_equal(fused.terminal_state, alone.terminal_state), key
        assert np.array_equal(fused.discarded, alone.discarded), key
        assert np.array_equal(fused.occupation, alone.occupation), key
        for lv, times in alone.hit_time.items():
            assert np.array_equal(fused.hit_time[lv], times), key
        for s, occ in alone.state_occupation.items():
            assert np.array_equal(fused.state_occupation[s], occ), key
        for field in ("payoff", "residual"):
            if getattr(alone, field) is not None:
                assert np.array_equal(getattr(fused, field), getattr(alone, field)), key


def test_cell_exit_statistics_match_chain(bm):
    _, _, chain = bm
    i = chain.start_index
    st = cell_exit_statistics(chain, i, 40_000, seed=2)
    assert abs(st["mean_hold"] - chain.mean_hold[i]) < 3 * st["se_hold"]
    assert abs(st["up_frac"] - chain.up_prob[i]) < 3 * st["se_up"]


_ORACLE_CHAINS = {
    "reflecting": ("sticky_reflected_bm", {"r": 0.5, "rho": 1.0}),
    "absorbing": ("gen_squared_bessel", {"r": 0.5, "x0": 0.3, "m0": INF}),
    "padded": ("brownian_motion", {"r": 0.3}),
}


@functools.lru_cache(maxsize=None)
def _oracle_case(case):
    """A chain, its horizon and exact occupation, and the per-state mean
    occupation of each of 40 one-chunk batches of 500 paths (streams 0-39)."""
    # a wide exit bound puts pad states in reach, so every interior state is
    # visited often and pad exits (killed paths) happen on every chain
    name, params = _ORACLE_CHAINS[case]
    spec = build_model(name, params)
    chain = build_chain(derive_natural_scale(spec), spec, N=32, exit_prob_bound=0.3)
    T = spec.horizon
    means = np.array([sample_paths(chain, 500, 1, T, stream=s).occupation / 500 for s in range(40)])
    return chain, T, exact_occupation(chain, T), means


@pytest.mark.parametrize("case", list(_ORACLE_CHAINS))
def test_sampled_occupation_matches_exact_oracle(case):
    chain, T, exact, means = _oracle_case(case)
    mean = means.mean(axis=0)
    se = means.std(axis=0, ddof=1) / math.sqrt(len(means))
    live = se > 0
    assert np.all(np.abs(mean - exact)[live] < 4 * se[live])
    # terminal states: a path entering one is killed, so neither side counts time there
    assert np.array_equal(mean[~live], exact[~live])
    assert not live[-1] and (chain.left_rule == "reflect") == live[0]


# ---------------------------------------------------------------------------
# chunks and worker processes
# ---------------------------------------------------------------------------

_THREE_CHUNKS = 2 * 8192 + 1  # three chunks of 5,461 or 5,462 paths

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="worker processes need os.fork")


def _cpus(monkeypatch, n):
    """Let sample_paths see n CPUs, so it runs min(n, chunks) worker processes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _assert_same_batch(a, b):
    for field in ("terminal_state", "discarded", "occupation", "payoff", "residual"):
        x, y = getattr(a, field), getattr(b, field)
        assert (x is None) == (y is None), field
        if x is not None:
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), field
    for rows in ("hit_time", "state_occupation"):
        x, y = getattr(a, rows), getattr(b, rows)
        assert list(x) == list(y), rows
        for s, row in x.items():
            assert row.tobytes() == y[s].tobytes(), (rows, s)


@needs_fork
@pytest.mark.parametrize(
    "name, params, build_kw",
    [
        ("sticky_reflected_bm", {"r": 0.5, "rho": 1.0}, {}),
        ("brownian_motion", {"r": 0.3}, {"exit_prob_bound": 0.3}),
    ],
    ids=["reflecting", "padded"],
)
def test_batch_does_not_depend_on_worker_count(name, params, build_kw, monkeypatch):
    spec = build_model(name, params)
    view = derive_natural_scale(spec)
    chain = build_chain(view, spec, N=64, **build_kw)
    T = spec.horizon
    kw = {k: v for extra in _accumulators(chain, view).values() for k, v in extra.items()}
    _cpus(monkeypatch, 2)
    pooled = sample_paths(chain, _THREE_CHUNKS, 31, T, stream=7, **kw)
    _assert_no_children()
    _cpus(monkeypatch, 1)
    alone = sample_paths(chain, _THREE_CHUNKS, 31, T, stream=7, **kw)
    if build_kw:
        assert np.any(pooled.discarded)  # pad exits happen
    _assert_same_batch(pooled, alone)


@needs_fork
def test_more_workers_than_cpus(bm, monkeypatch):
    # five chunks on five workers, more than most test hosts have CPUs
    _, _, chain = bm
    n, kw = 4 * 8192 + 1, {"hit_levels": [chain.start_index + 3]}
    _cpus(monkeypatch, 1)
    alone = sample_paths(chain, n, 5, T=0.05, **kw)
    _cpus(monkeypatch, 8)
    pooled = sample_paths(chain, n, 5, T=0.05, **kw)
    _assert_no_children()
    _assert_same_batch(pooled, alone)


@needs_fork
@pytest.mark.parametrize("case", list(_ORACLE_CHAINS))
def test_multi_chunk_batch_matches_exact_oracle(case, monkeypatch):
    # one pooled three-chunk batch; the 500-path batches give the spread of
    # a path's occupation, so the standard error of the batch mean
    chain, T, exact, means = _oracle_case(case)
    _cpus(monkeypatch, 2)
    n = _THREE_CHUNKS
    mean = sample_paths(chain, n, 1, T, stream=len(means)).occupation / n
    se = means.std(axis=0, ddof=1) * math.sqrt(500 / n)
    live = se > 0
    assert np.all(np.abs(mean - exact)[live] < 4 * se[live])
    assert np.array_equal(mean[~live], exact[~live])


@needs_fork
def test_a_failing_chunk_raises_once_from_the_caller(bm, monkeypatch, capfd):
    _, _, chain = bm
    sample_chunk = mc_engine._sample_chunk

    def fails_on_chunk_1(job, i):
        if i == 1:
            raise RuntimeError("chunk 1 failed")
        sample_chunk(job, i)

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(mc_engine, "_sample_chunk", fails_on_chunk_1)
    with pytest.raises(RuntimeError, match="chunk 1 failed"):
        sample_paths(chain, _THREE_CHUNKS, 5, T=0.05)
    _assert_no_children()
    assert capfd.readouterr().err == ""  # the worker printed no traceback of its own


@needs_fork
def test_a_failed_worker_is_resampled_in_process(bm, monkeypatch):
    # worker 0 samples chunks 0 and 2 and dies on chunk 2 after writing
    # chunk 0; the caller samples both again and gets the same batch
    _, _, chain = bm
    _cpus(monkeypatch, 1)
    alone = sample_paths(chain, _THREE_CHUNKS, 5, T=0.05, hit_levels=[chain.start_index + 3])
    caller = os.getpid()
    sample_chunk = mc_engine._sample_chunk

    def worker_dies_on_chunk_2(job, i):
        if i == 2 and os.getpid() != caller:
            raise MemoryError
        sample_chunk(job, i)

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(mc_engine, "_sample_chunk", worker_dies_on_chunk_2)
    pooled = sample_paths(chain, _THREE_CHUNKS, 5, T=0.05, hit_levels=[chain.start_index + 3])
    _assert_no_children()
    _assert_same_batch(pooled, alone)


def _child_pids(pid):
    """The children of a process: from /proc/<pid>/task/<pid>/children where
    the kernel has it, otherwise from the parent field of every
    /proc/<n>/stat."""
    listing = Path(f"/proc/{pid}/task/{pid}/children")
    if listing.exists():
        return [int(c) for c in listing.read_text().split()]
    kids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # the process ended while we looked
            continue
        if int(fields[1]) == pid:
            kids.append(int(stat.parent.name))
    return kids


def _running(pid):
    """Is the process there and not a zombie waiting to be reaped?"""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


_SAMPLES_FOR_LONG = """
from diffarb.diffusion_model import derive_natural_scale
from diffarb.mc_engine import build_chain, sample_paths
from diffarb.model_catalog import build_model

spec = build_model("brownian_motion", {"x0": 0.0})
chain = build_chain(derive_natural_scale(spec), spec, N=256, horizon=1.0)
sample_paths(chain, 2 * 8192 + 1, 1, T=1000.0)  # far longer than the test waits
"""


@needs_fork
@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads the process table under /proc")
@pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2, reason="one worker needs two CPUs"
)
def test_a_killed_caller_leaves_no_worker():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.Popen([sys.executable, "-c", _SAMPLES_FOR_LONG], env=env)
    forks = min(3, len(os.sched_getaffinity(0)))  # one worker per chunk or CPU
    workers = []
    try:
        deadline = time.monotonic() + 120
        while len(workers) < forks and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
            workers = _child_pids(proc.pid)
        assert len(workers) == forks, f"the caller forked {workers} (exit code {proc.poll()})"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == -signal.SIGTERM
        deadline = time.monotonic() + 2
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, workers)), "a worker outlived its caller"
    finally:
        proc.kill()
        proc.wait()
        for pid in workers:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)


@pytest.mark.parametrize(
    "name, params",
    [
        ("sticky_reflected_bm", {"r": 0.5, "rho": 1.0}),
        ("gen_squared_bessel", {"r": 0.5, "x0": 0.3, "m0": INF}),
        ("cubed_bm", {}),
        ("squared_bessel", {"delta": 1.5}),
    ],
    ids=["reflecting", "absorbing", "padded", "stiff"],
)
def test_exact_occupation_matches_dense_eigendecomposition(name, params):
    spec = build_model(name, params)
    view = derive_natural_scale(spec)
    for N in (32, 256):
        chain = build_chain(view, spec, N=N)
        for T in (0.05, spec.horizon):
            ref = dense_occupation(chain, T)
            assert np.max(np.abs(exact_occupation(chain, T) - ref)) <= 1e-10 * np.max(ref), (N, T)


def test_exact_occupation_conserves_time_on_a_stiff_chain():
    # squared_bessel delta=3/2 has speed density 4u^2 at natural scale, so the
    # reflecting cell at 0 holds for about h^4: the largest jump rate times T
    # is about 8.6e7 at N = 512. With its pad end made reflecting no path is killed, and the
    # occupation must add up to T (the zero eigenvalue included).
    spec = build_model("squared_bessel", {"delta": 1.5})
    view = derive_natural_scale(spec)
    chain = build_chain(view, spec, N=512)
    T = spec.horizon
    assert chain.left_rule == "reflect" and np.max(1.0 / chain.mean_hold) * T > 5e7
    hold = chain.mean_hold.copy()
    hold[-1] = hold[-2]
    closed = dataclasses.replace(chain, mean_hold=hold, right_rule="reflect")
    occ = exact_occupation(closed, T)
    assert abs(occ.sum() - T) <= 1e-11 * T
    assert np.all(occ >= -1e-12 * T)
    # the padded chain loses mass only to the pad exit
    assert 0.999 * T < exact_occupation(chain, T).sum() <= occ.sum()


def test_tradeoff_ladder_cost_does_not_follow_the_jump_rates():
    # the CLI's default ladder (128/256/512) on the stiff squared_bessel
    # chain: a solver whose work grows with the largest rate times T needs
    # about 9e7 steps on the top level; the contour solve takes a few ms a level
    spec = build_model("squared_bessel", {"delta": 1.5})
    view = derive_natural_scale(spec)
    t0 = time.perf_counter()
    tr = estimate_tradeoff(view, spec, base_grid=128)
    assert time.perf_counter() - t0 < 10.0
    assert all(math.isfinite(k) and k >= 0.0 for k in tr.estimates)


def test_pad_is_probed_on_the_padded_side_only():
    # squared_bessel delta=1.9: the speed density at natural scale vanishes
    # at the reflecting end 0 and explodes far out on the padded right side.
    # A probe over both sides of s(x0) put the right window end on s(x0), so
    # the start was a terminal pad state and the K ladder read 0 on every level.
    spec = build_model("squared_bessel", {"delta": 1.9})
    view = derive_natural_scale(spec)
    chain = build_chain(view, spec, N=128)
    assert 0 < chain.start_index < chain.n_states - 1
    assert math.isfinite(chain.mean_hold[chain.start_index])
    tr = estimate_tradeoff(view, spec, base_grid=64)  # the ladder of simulate --grid 128
    assert all(0.0 < k < math.inf for k in tr.estimates)
    with pytest.raises(ValueError, match="terminal"):
        build_chain(view, spec, N=64, window=(0.0, view.s_x0))


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def test_local_time_never_visited_is_zero(bm):
    _, _, chain = bm
    batch = sample_paths(chain, 50, seed=1, T=0.01)
    lt = estimate_local_time_field(batch, chain)
    far = chain.n_states - 2
    assert lt[far] == 0.0


def test_local_time_at_start_matches_tanaka(bm):
    _, _, chain = bm
    batch = sample_paths(chain, 40_000, seed=12, T=1.0)
    lt = estimate_local_time_field(batch, chain)[chain.start_index]
    expect = math.sqrt(2.0 / math.pi)  # mean local time of BM at its start
    assert abs(lt - expect) / expect < 0.05


def test_local_time_zero_mass_cell_raises(bm):
    _, _, chain = bm
    import dataclasses

    crippled = dataclasses.replace(
        chain, cell_mass=np.where(np.arange(chain.n_states) == 3, 0.0, chain.cell_mass)
    )
    batch = sample_paths(crippled, 10, seed=1, T=0.01)
    # local time is undefined on a cell without speed mass
    assert np.isnan(estimate_local_time_field(batch, crippled)[3])


def test_local_time_oracle_matches_exact_on_a_padded_chain():
    # a path discarded at the pad exit is killed, as in exact_occupation, so
    # it counts in the denominator; per kept path the field was biased up by
    # n_paths over the kept paths, about 1.4 on this chain
    spec = build_model("brownian_motion", {"r": 0.3})
    view = derive_natural_scale(spec)
    chain = build_chain(view, spec, N=32, exit_prob_bound=0.3)
    T = spec.horizon
    exact = local_time_field(exact_occupation(chain, T), chain)
    n_batches = 40
    batches = [sample_paths(chain, 500, 1, T, stream=s) for s in range(n_batches)]
    fields = np.array([estimate_local_time_field(b, chain) for b in batches])
    mean = fields.mean(axis=0)
    se = fields.std(axis=0, ddof=1) / math.sqrt(n_batches)
    live = se > 0
    assert np.all(np.abs(mean - exact)[live] < 4 * se[live])


def test_sticky_occupation_consistent_with_neighbor_local_time():
    rho = 1.0
    spec = build_model("sticky_reflected_bm", {"r": 0.5, "rho": rho})
    view = derive_natural_scale(spec)
    chain = build_chain(view, spec, N=256, horizon=1.0)
    batch = sample_paths(chain, 20_000, seed=4, T=1.0)
    occ0 = batch.occupation[0] / np.sum(batch.kept)
    lt = estimate_local_time_field(batch, chain)
    # occupation at the sticky atom per unit stickiness tracks the local
    # time just inside the boundary
    assert abs(occ0 / rho - lt[1]) / lt[1] < 0.10


def test_occupation_identity_exact(bm):
    _, _, chain = bm
    batch = sample_paths(chain, 2_000, seed=13, T=0.5)
    lt = estimate_local_time_field(batch, chain)
    f = np.cos(chain.grid)
    lhs = float(np.sum(f * batch.occupation))
    rhs = float(np.sum(f * np.where(np.isnan(lt), 0.0, lt) * chain.cell_mass * np.sum(batch.kept)))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_tradeoff_zero_for_driftless_bm(bm):
    spec, view, _ = bm
    tr = estimate_tradeoff(view, spec, base_grid=64)
    assert tr.estimates == (0.0, 0.0, 0.0)
    assert not tr.divergence


def test_tradeoff_divergence_cubed_bm():
    spec = build_model("cubed_bm")
    view = derive_natural_scale(spec)
    tr = estimate_tradeoff(view, spec, base_grid=128)
    assert tr.divergence
    assert all(rho > 1.5 for rho in tr.ratios[-2:])


def test_tradeoff_stable_sticky_reflected():
    spec = build_model("sticky_reflected_bm", {"r": 0.5, "rho": 1.0})
    view = derive_natural_scale(spec)
    tr = estimate_tradeoff(view, spec, base_grid=128)
    assert not tr.divergence
    assert all(abs(rho - 1.0) < 0.10 for rho in tr.ratios)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


def test_post_hitting_hold_reflected_bm_arbitrage():
    spec = build_model("sticky_reflected_bm", {"r": 0.0, "rho": 0.0, "x0": 1.5})
    view = derive_natural_scale(spec)
    res = run_strategy(view, spec, "post_hitting_hold", n_paths=4000, seed=17, N=256)
    assert res.min_payoff >= -2 * res.grid_step
    assert res.wilson_low > 0.0
    assert res.frac_positive > 0.3


def test_post_hitting_hold_never_triggered_is_flat(bm):
    spec, view, chain = bm
    res = run_strategy(
        view, spec, "post_hitting_hold", chain=chain, n_paths=1000, seed=2, level=chain.grid[0]
    )
    assert res.min_payoff == 0.0 and res.frac_positive == 0.0
    assert not res.wilson_low > 0.0


def test_boundary_sit_no_increasing_profit_when_identity_holds():
    spec = build_model("sticky_reflected_bm", {"r": 0.5, "rho": 1.0})
    view = derive_natural_scale(spec)
    res = run_strategy(view, spec, "boundary_sit", n_paths=4000, seed=19, N=1024, horizon=0.5)
    assert abs(res.mean) < 3 * res.se


def test_custom_table_strategy_runs(bm):
    spec, view, chain = bm
    table = np.zeros(chain.n_states)
    table[chain.start_index] = 2.0
    res = run_strategy(view, spec, table, chain=chain, n_paths=500, seed=23)
    assert res.name == "custom_table"
    assert math.isfinite(res.mean)


# ---------------------------------------------------------------------------
# martingale diagnostics
# ---------------------------------------------------------------------------


def test_u_minus_half_l_reflected_bm():
    spec = build_model("sticky_reflected_bm", {"r": 0.0, "rho": 0.0})
    view = derive_natural_scale(spec)
    d = martingale_diagnostic(view, spec, "U_minus_half_L", n_paths=3000, N=256, seed=29)
    assert d.passes(3.0)


def test_u_minus_half_l_two_sided_compensates_both_boundaries():
    # with reflection on both sides, each boundary's local time enters the
    # compensator with its own sign; the increments stay centered
    import sys

    sys.path.insert(0, __file__.rsplit("/", 1)[0])
    from test_classifier import _two_sided_spec

    spec = _two_sided_spec()
    view = derive_natural_scale(spec)
    chain = build_chain(view, spec, N=64, horizon=1.0)
    d = martingale_diagnostic(view, spec, "U_minus_half_L", chain=chain, n_paths=4000, seed=5)
    assert "2 reflecting compensator(s)" in d.note
    assert d.passes(3.0)


def test_u_minus_half_l_requires_reflection(bm):
    spec, view, _ = bm
    with pytest.raises(ValueError, match="reflecting"):
        martingale_diagnostic(view, spec, "U_minus_half_L", n_paths=10, N=64)


def test_drift_residual_sticky_skew_identity():
    spec = build_model("sticky_skew", {"r": 1.0})
    view = derive_natural_scale(spec)
    chain = build_chain(view, spec, N=800, grid_in="state", horizon=0.5)
    idx = chain.state_of(0.0)
    d = martingale_diagnostic(
        view, spec, "discounted_price_drift", chain=chain, n_paths=3000, seed=31,
        target_states=[idx], horizon=0.5,
    )
    assert d.passes(3.0)


def test_drift_residual_sticky_skew_violation_detected():
    spec = build_model("sticky_skew", {"r": 0.8})  # identity off by 20%
    view = derive_natural_scale(spec)
    chain = build_chain(view, spec, N=800, grid_in="state", horizon=0.5)
    idx = chain.state_of(0.0)
    d = martingale_diagnostic(
        view, spec, "discounted_price_drift", chain=chain, n_paths=3000, seed=31,
        target_states=[idx], horizon=0.5,
    )
    assert not d.passes(3.0)


def test_one_sample_statistics_never_pass(bm):
    spec, view, chain = bm
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ddof >= n standard deviation
        d = martingale_diagnostic(view, spec, "discounted_price_drift", chain=chain, n_paths=1)
        res = run_strategy(view, spec, np.zeros(chain.n_states), chain=chain, n_paths=1)
    assert d.n_samples == 1 and d.se == math.inf
    assert not d.passes()
    assert res.n_used == 1 and res.se == math.inf


def test_gamma_drift_rates_vanish_for_driftless_bm(bm):
    _, view, chain = bm
    rates = gamma_drift_rates(chain, view)
    assert np.allclose(rates, 0.0)


def test_drift_residual_regression_all_states_centered():
    # on a model where every condition holds, the price drift is fully
    # explained by the market-price-of-risk field over the whole grid
    spec = build_model("sticky_skew", {"r": 1.0})
    view = derive_natural_scale(spec)
    d = martingale_diagnostic(
        view, spec, "discounted_price_drift", n_paths=3000, seed=43, N=600,
        grid_in="state", horizon=0.5,
    )
    assert d.passes(3.0)


def test_chain_window_must_contain_start(bm):
    spec, view, _ = bm
    with pytest.raises(ValueError, match="window"):
        build_chain(view, spec, N=64, window=(5.0, 9.0))


def test_unknown_diagnostic_target(bm):
    spec, view, _ = bm
    with pytest.raises(ValueError, match="unknown"):
        martingale_diagnostic(view, spec, "nonsense", n_paths=10, N=64)


# ---------------------------------------------------------------------------
# distribution helpers
# ---------------------------------------------------------------------------


def test_ks_distance_against_itself():
    rng = np.random.default_rng(0)
    xs = rng.standard_normal(20_000)
    assert ks_distance(xs, normal_cdf) < 0.02


def test_wilson_interval_behaviour():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi < 0.05
    lo, hi = wilson_interval(60, 100)
    assert 0.49 < lo < 0.6 < hi < 0.7
    assert wilson_interval(5, 0) == (0.0, 1.0)


def test_terminal_law_gaussian(bm):
    _, _, chain = bm
    batch = sample_paths(chain, 20_000, seed=37, T=1.0)
    term = chain.grid[batch.terminal_state[batch.kept]]
    d = ks_distance(term, lambda x: normal_cdf(np.asarray(x, float)))
    assert d < 0.02
