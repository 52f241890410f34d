"""Monte Carlo cross-validation via a grid CTMC at natural scale.

The diffusion U at natural scale is approximated by a continuous-time
Markov chain on a grid u_0 < ... < u_N. The construction encodes scale and
speed exactly at cell resolution:

* jump probabilities follow the natural-scale martingale rule
  up_prob[i] = (u_i - u_{i-1}) / (u_{i+1} - u_{i-1}),
* expected holding times are Green-function integrals of the speed measure,
  mean_hold[i] = 2 * integral of G_i(u_i, y) mU(dy) over the neighbour span,
  with G_i(x, y) = (x^y - u_{i-1})(u_{i+1} - x v y)/(u_{i+1} - u_{i-1}),
  so speed atoms (stickiness) enter the holding times exactly,
* a reflecting boundary forces an up-move with holding time
  2 * integral of (u_1 - y) mU(dy) over [u_0, u_1), including the boundary
  atom; an absorbing boundary is an absorbing state; truncated inaccessible
  boundaries are padded and exiting paths are discarded and counted.

One quadrature computes these Green integrals for densities: a 12-point
Gauss-Legendre rule per half-cell, two-sided on interior cells and
one-sided on a reflecting boundary cell. It integrates the speed density
for the holding times (one pass over the speed measure also yields the cell
masses) and the drift density for the per-state drift rates of the price
diagnostic. Speed atoms and the binned singular-continuous part are point
masses, and one helper gives them the same Green weight.

Sampling is vectorized over paths with a counter-based generator (Philox).
A batch splits into equal chunks of at most 8,192 paths, each drawing from
its own key, and the chunks run on forked worker processes, one per CPU the
process may use, writing into shared memory. So a batch is bit-reproducible
for a fixed seed and stream, and the same on any number of CPUs. The
sampler carries one row per quantity for the live paths of a chunk and
compacts the rows in place when paths die. Its accumulators are hit
times, per-path state occupations and price integrals: the strategy payoff
is the integral of a position against the discounted price, and the drift
residual is the same integral less a predicted drift rate. Each is a
carried row written once, when its path ends. The accumulators never change
which numbers are drawn, so one pass that carries several of them samples
the same paths as separate passes would: strategies and martingale
diagnostics are planned on a chain, each plan naming the accumulators it
reads, and evaluated on one batch that carries them all. The U - L/2
diagnostic reads one sample per path, its terminal increment of U less
the boundary occupation over twice the boundary cell mass.

Expectations that need no pathwise statistic are exact: the chain is a
birth-death process, so its expected occupation up to T follows from a
tridiagonal resolvent and a contour inversion of the Laplace transform
(``exact_occupation``), and the tradeoff ladder reads it.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .diffusion_model import DiffusionSpec, NaturalScaleView
from .measure_kit import DecomposedMeasure, _leggauss

__all__ = [
    "ChainModel",
    "PathBatch",
    "TradeoffEstimate",
    "StrategyResult",
    "DiagnosticResult",
    "build_chain",
    "sample_paths",
    "local_time_field",
    "exact_occupation",
    "estimate_tradeoff",
    "StrategyPlan",
    "plan_strategy",
    "evaluate_strategy",
    "DiagnosticPlan",
    "plan_diagnostic",
    "evaluate_diagnostic",
    "gamma_drift_rates",
    "wilson_interval",
    "subseed",
]

# the most paths in one chunk; a batch splits into equal chunks of at most this
_CHUNK = 8192
# 12-point Gauss-Legendre nodes and weights on (0, 1) for the cell quadrature
_GL_T, _GL_W = _leggauss(12)
_GL_T, _GL_W = 0.5 * (_GL_T + 1.0), 0.5 * _GL_W


def subseed(seed: int, stream: int) -> tuple[int, int]:
    """Key for a named substream; every (seed, stream) pair is independent."""
    return (int(seed) & (2**63 - 1), int(stream) & (2**63 - 1))


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=subseed(seed, stream)))


def normal_quantile(p: float) -> float:
    lo, hi = -10.0, 10.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    """Sample mean and standard error; the error is inf below two samples."""
    mean = float(np.mean(x)) if x.size else 0.0
    if x.size < 2:
        return mean, math.inf
    return mean, float(np.std(x, ddof=1) / math.sqrt(x.size))


def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """Wilson 95% confidence interval for a binomial proportion."""
    if n == 0:
        return (0.0, 1.0)
    z = 1.959963984540054
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return (lo, hi)


# ---------------------------------------------------------------------------
# Chain construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainModel:
    """Grid CTMC in natural-scale coordinates."""

    grid: np.ndarray
    up_prob: np.ndarray
    mean_hold: np.ndarray
    cell_mass: np.ndarray
    q_grid: np.ndarray
    left_rule: str  # 'absorb' | 'reflect' | 'pad'
    right_rule: str
    r: float
    start_index: int  # a live state: build_chain refuses a terminal start

    @property
    def n_states(self) -> int:
        return self.grid.size

    def state_of(self, u: float) -> int:
        return int(np.argmin(np.abs(self.grid - u)))


def _cell_edges(grid: np.ndarray) -> np.ndarray:
    """Cell boundaries: the grid ends and the midpoints between neighbours."""
    return np.concatenate([[grid[0]], 0.5 * (grid[:-1] + grid[1:]), [grid[-1]]])


def _green_integrals(
    f: Callable[[np.ndarray], np.ndarray], grid: np.ndarray, reflect: tuple[bool, bool]
) -> np.ndarray:
    """2 * integral of G_i(u_i, y) f(y) dy for every state i.

    Interior states integrate the two-sided Green function over the
    neighbour span, one Gauss-Legendre rule per half-cell; a reflecting
    boundary state (flags ``reflect`` = (left, right)) integrates the
    one-sided G = distance to the first interior node over the boundary
    cell; terminal boundary states get 0.
    """
    out = np.zeros(grid.size)
    lo, mid, hi = grid[:-2], grid[1:-1], grid[2:]
    den = hi - lo
    # left half: y in (lo, mid): G = (y - lo)(hi - mid)/den
    y_l = lo[:, None] + (mid - lo)[:, None] * _GL_T[None, :]
    f_l = np.asarray(f(y_l.ravel()), float).reshape(y_l.shape)
    g_l = (y_l - lo[:, None]) * (hi - mid)[:, None] / den[:, None]
    # right half: y in (mid, hi): G = (mid - lo)(hi - y)/den
    y_r = mid[:, None] + (hi - mid)[:, None] * _GL_T[None, :]
    f_r = np.asarray(f(y_r.ravel()), float).reshape(y_r.shape)
    g_r = (mid - lo)[:, None] * (hi[:, None] - y_r) / den[:, None]
    out[1:-1] = 2.0 * ((mid - lo) * np.dot(f_l * g_l, _GL_W) + (hi - mid) * np.dot(f_r * g_r, _GL_W))
    for i, u0, u1 in ((0, grid[0], grid[1]), (-1, grid[-2], grid[-1])):
        if reflect[i]:
            y = u0 + (u1 - u0) * _GL_T
            dist = (u1 - y) if i == 0 else (y - u0)
            out[i] = 2.0 * ((u1 - u0) * float(np.dot(np.asarray(f(y), float) * dist, _GL_W)))
    return out


def _add_point_masses(
    hold: np.ndarray, mass: np.ndarray, grid: np.ndarray, reflect: tuple[bool, bool], y: np.ndarray, m: np.ndarray
) -> None:
    """Add speed masses ``m`` at points ``y`` (inside the grid) in place.

    A point adds 2 m G_i(u_i, y) to the holding time of each interior state
    whose neighbour span holds it (G as in ``_green_integrals``), 2 m times
    its distance to the first interior node to a reflecting boundary state
    whose cell holds it, and m to the mass of the cell between the
    neighbouring midpoints that holds it.
    """
    n = grid.size
    j = np.searchsorted(grid, y, side="right") - 1  # grid[j] <= y
    i = np.concatenate([j, j + 1])
    inner = (i >= 1) & (i <= n - 2)
    i, yi, mi = i[inner], np.tile(y, 2)[inner], np.tile(m, 2)[inner]
    lo, u, hi = grid[i - 1], grid[i], grid[i + 1]
    g = (np.minimum(yi, u) - lo) * (hi - np.maximum(yi, u)) / (hi - lo)
    hold += np.bincount(i, weights=2.0 * mi * g, minlength=n)
    for b, node in ((0, grid[1]), (-1, grid[-2])):
        if reflect[b]:
            near = y < node if b == 0 else y > node
            hold[b] += np.sum(2.0 * m[near] * np.abs(y[near] - node))
    cell = np.clip(np.searchsorted(_cell_edges(grid), y) - 1, 0, n - 1)
    mass += np.bincount(cell, weights=m, minlength=n)


def _speed_pass(
    mU: DecomposedMeasure, grid: np.ndarray, reflect: tuple[bool, bool]
) -> tuple[np.ndarray, np.ndarray]:
    """Mean holding times and cell masses of the speed measure.

    mean_hold[i] = 2 * integral of G_i(u_i, y) mU(dy) (see
    ``_green_integrals``; 0 at terminal boundary states) and cell_mass[i] =
    mU of the cell between the neighbouring midpoints. The ac density goes
    through the cell quadrature; the finite atoms (on grid points, as the
    grid is built) and the singular-continuous part, binned on a 4097-point
    grid, are point masses sharing one Green weight (``_add_point_masses``).
    """
    n = grid.size
    hold = np.zeros(n)
    mass = np.zeros(n)
    if mU.ac_density is not None:
        hold = _green_integrals(mU.ac_density, grid, reflect)
        edges = _cell_edges(grid)
        lo, hi = edges[:-1], edges[1:]
        y = lo[:, None] + (hi - lo)[:, None] * _GL_T[None, :]
        rho = np.asarray(mU.ac_density(y.ravel()), float).reshape(y.shape)
        mass = (hi - lo) * np.dot(rho, _GL_W)

    # an infinite atom makes an absorbing state, whose hold is infinite anyway
    pts = [(p, m) for p, m in mU.atoms if math.isfinite(m) and grid[0] <= p <= grid[-1]]
    y, m = np.array(pts, float).reshape(-1, 2).T
    if mU.sc is not None:
        us = np.linspace(grid[0], grid[-1], 4097)
        mids = 0.5 * (us[:-1] + us[1:])
        dm = np.asarray(mU.sc.multiplier(mids), float) * np.diff(np.asarray(mU.sc.base_cdf(us), float))
        y, m = np.concatenate([y, mids]), np.concatenate([m, dm])
    _add_point_masses(hold, mass, grid, reflect, y, m)
    return hold, mass


def build_chain(
    view: NaturalScaleView,
    spec: DiffusionSpec,
    N: int = 512,
    window: Optional[tuple[float, float]] = None,
    grid_in: str = "natural",
    exit_prob_bound: float = 1e-4,
    horizon: Optional[float] = None,
) -> ChainModel:
    """Grid CTMC for the natural-scale diffusion.

    The window spans the accessible part of s(J); inaccessible boundaries
    are truncated with padding chosen so a Gaussian bound puts the exit
    probability below ``exit_prob_bound``. Interior speed atoms and the
    start point are snapped onto grid points.
    """
    if N < 16:
        raise ValueError("grid size N must be at least 16")
    T = spec.horizon if horizon is None else float(horizon)
    s_lo, s_hi = view.sJ
    u_start = view.s_x0

    if window is None:
        # local variance rate of U is 1/mU_ac; pad by a high-quantile
        # Gaussian excursion bound, P(max |N(0,1)| excursion > k) <=
        # 4(1 - Phi(k)) = exit_prob_bound, iterating once to update the rate.
        # The rate is probed on the padded sides of the start only: a speed
        # density vanishing at a finite boundary would otherwise widen the
        # first probe so far that the second skips the start's neighbourhood
        # and collapses the pad onto the start.
        k = normal_quantile(1.0 - exit_prob_bound / 4.0)
        width = k * math.sqrt(T)
        for _ in range(2):
            probe_lo = u_start if math.isfinite(s_lo) else u_start - width
            probe_hi = u_start if math.isfinite(s_hi) else u_start + width
            us = np.linspace(probe_lo, probe_hi, 65)[1:-1]
            if view.mU.ac_density is None:
                rate = 1.0
            else:
                dens = np.asarray(view.mU.ac_density(us), float)
                dens = dens[np.isfinite(dens) & (dens > 0)]
                rate = 1.0 / float(np.min(dens)) if dens.size else 1.0
            width = k * math.sqrt(rate * T)
        lo = s_lo if math.isfinite(s_lo) else u_start - width
        hi = s_hi if math.isfinite(s_hi) else u_start + width
        window = (lo, hi)
    lo, hi = window
    if not (lo < u_start < hi) and not (lo == u_start or hi == u_start):
        raise ValueError("window does not contain the start point")

    # a window end on an accessible boundary image takes that boundary's rule
    left_rule, right_rule = (
        {"absorbing": "absorb", "reflecting": "reflect"}[beh.kind]
        if beh.accessible and abs(end - beh.image) <= 1e-12 * (1 + abs(beh.image))
        else "pad"
        for (_, beh), end in zip(view.boundaries, (lo, hi))
    )

    # pin the speed atoms, the atoms of q'' and the singular points of phi
    # (flat spots of q, annotated poles) so refinement ladders see them at
    # exactly one grid point
    points = [p for p, _ in view.mU.atoms] + [p for p, _ in view.qpp.atoms]
    points += [p for ab in spec.qprime_zero_set for p in ab] + [beh.point for beh in spec.phi_behaviors]
    anchors = {lo, hi, u_start} | {float(p) for p in points if lo < p < hi}

    def fill(ends: list[float]) -> np.ndarray:
        """About N cells between the first and last of the sorted anchors,
        each gap between neighbouring anchors split evenly."""
        target = (ends[-1] - ends[0]) / N
        parts = [
            np.linspace(a, b, max(1, int(round((b - a) / target))) + 1)[:-1] for a, b in zip(ends[:-1], ends[1:])
        ]
        return np.concatenate(parts + [[ends[-1]]])

    if grid_in == "state":
        # uniform in the original coordinate, mapped through the scale;
        # reproduces the skew jump probability on symmetric state grids
        xs = fill(sorted(float(view.q.value(np.asarray(a))) for a in anchors))
        grid = np.asarray(spec.scale.value(xs), float)
    else:
        grid = fill(sorted(anchors))
    grid = np.unique(grid)
    if grid.size < 3:
        raise ValueError("degenerate grid")

    n = grid.size
    up = np.zeros(n)
    up[1:-1] = (grid[1:-1] - grid[:-2]) / (grid[2:] - grid[:-2])
    hold, mass = _speed_pass(view.mU, grid, (left_rule == "reflect", right_rule == "reflect"))
    if np.any(~np.isfinite(hold[1:-1])) or np.any(hold[1:-1] <= 0):
        bad = int(np.argmin(hold[1:-1])) + 1
        raise ValueError(f"non-positive or infinite expected holding time at interior cell {bad}")

    # boundary cells: a reflecting state moves inward; absorbing and pad
    # states are terminal (paths entering a pad state are discarded)
    up[0] = 0.0 if left_rule == "absorb" else 1.0
    if left_rule != "reflect":
        hold[0] = math.inf
    if right_rule != "reflect":
        hold[-1] = math.inf

    start_index = int(np.argmin(np.abs(grid - u_start)))
    if not math.isfinite(hold[start_index]):
        raise ValueError(f"the chain starts on a terminal state: window [{lo:g}, {hi:g}] ends at s(x0) = {u_start:g}")
    q_grid = np.asarray(view.q.value(grid), float)
    return ChainModel(
        grid=grid,
        up_prob=up,
        mean_hold=hold,
        cell_mass=mass,
        q_grid=q_grid,
        left_rule=left_rule,
        right_rule=right_rule,
        r=spec.r,
        start_index=start_index,
    )


def gamma_drift_rates(chain: ChainModel, view: NaturalScaleView) -> np.ndarray:
    """Per-state drift rate of the price predicted by the market-price-of-
    risk field.

    For each interior cell this is the Green-weighted Lebesgue integral of
    gamma(x) [q'(x)]^2 (the density of the compensator against quadratic-
    variation occupation), divided by the expected holding time. At a
    reflecting boundary cell the one-sided Green function (u_1 - y) is used.
    Absorbing and pad states get rate 0.
    """
    reflect = (chain.left_rule == "reflect", chain.right_rule == "reflect")
    num = _green_integrals(lambda u: view.drift_over_slope(view.chart(u), 0), chain.grid, reflect)
    with np.errstate(divide="ignore", invalid="ignore"):
        rates = num / chain.mean_hold
    return np.where(np.isfinite(rates), rates, 0.0)


# ---------------------------------------------------------------------------
# Path sampling
# ---------------------------------------------------------------------------


@dataclass
class PathBatch:
    """Summaries of a sampled batch.

    Re-running ``sample_paths`` with the same seed and stream reproduces the
    paths bit-exactly on any number of CPUs (counter-based generator, a key
    per chunk of a fixed layout), so estimators on one stream share a batch
    through its accumulators instead of storing full event logs.
    """

    chain: ChainModel
    n_paths: int
    T: float
    terminal_state: np.ndarray
    discarded: np.ndarray
    occupation: np.ndarray  # summed over paths, per state
    hit_time: dict[int, np.ndarray]
    state_occupation: dict[int, np.ndarray]  # per path, for each listed state
    payoff: Optional[np.ndarray] = None
    residual: Optional[np.ndarray] = None

    @property
    def kept(self) -> np.ndarray:
        return ~self.discarded


def _entering(s_next: np.ndarray, states: Sequence[int], live: np.ndarray) -> Optional[np.ndarray]:
    """Mask of live paths jumping into one of ``states``; None when there are none."""
    if not states:
        return None
    hit = s_next == states[0]
    for s in states[1:]:
        hit |= s_next == s
    hit &= live
    return hit


@dataclass
class _Sampler:
    """One ``sample_paths`` call: what each chunk reads and the arrays it fills.

    Chunk i samples paths ``bounds[i]:bounds[i + 1]`` and writes only their
    rows of the per-path arrays and its own row of ``occupation``.
    """

    chain: ChainModel
    seed: int
    stream: int
    T: float
    bounds: list[int]
    # per-state columns, gathered once per step: hold, up, then each
    # integral's weight and rate; spans holds their column indices
    table: np.ndarray
    spans: list[tuple[int, Optional[int]]]
    terminal: np.ndarray
    discarded: np.ndarray
    occupation: np.ndarray  # (chunks, states)
    totals: dict[str, np.ndarray]
    hits: dict[int, np.ndarray]
    occ: dict[int, np.ndarray]


def _shared_full(shape, fill_value, dtype) -> np.ndarray:
    """``np.full`` in shared anonymous memory, which forked workers write into."""
    dtype = np.dtype(dtype)
    count = int(np.prod(shape))
    out = np.frombuffer(mmap.mmap(-1, max(count * dtype.itemsize, 1)), dtype, count).reshape(shape)
    out.fill(fill_value)
    return out


def sample_paths(
    chain: ChainModel,
    n_paths: int,
    seed: int,
    T: float,
    hit_levels: Sequence[int] = (),
    position_table: Optional[np.ndarray] = None,
    residual_rates: Optional[np.ndarray] = None,
    residual_weight: Optional[np.ndarray] = None,
    occupation_states: Sequence[int] = (),
    stream: int = 0,
) -> PathBatch:
    """Sample CTMC paths to the horizon with occupation bookkeeping.

    Exponential holding times with the chain's means, Bernoulli up/down
    jumps; deterministic for a fixed (seed, stream). Optional accumulators
    are price integrals, the sum over a path of w(state) (dS - rate(state)
    dt) for the discounted price S and the discounted clock dt:
    position_table H(state) is the weight of the strategy payoff, which has
    no rate term; residual_rates is the rate of the drift residual, weighted
    per state by residual_weight. hit_levels records first hitting times
    and occupation_states the time each path spends in those states. Every
    accumulator is a row carried per live path and written once, when the
    path ends.

    The batch splits into k = ceil(n_paths / 8192) equal chunks; chunk i
    holds paths [i n/k, (i+1) n/k) and draws from its own Philox key
    (stream * 1_000_003 + i + 1). The chunks run on up to k forked worker
    processes, one per CPU this process may run on, and the occupation is
    summed in chunk order, so the batch is the same on any number of CPUs.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    n_states = chain.n_states
    k = -(-n_paths // _CHUNK)
    affinity = getattr(os, "sched_getaffinity", None)
    workers = 1 if affinity is None else min(k, len(affinity(0)))

    integrals = {}  # name: (weight, rate or None) per state
    if position_table is not None:
        integrals["payoff"] = (position_table, None)
    if residual_rates is not None:
        integrals["residual"] = (np.ones(n_states) if residual_weight is None else residual_weight, residual_rates)
    cols = [chain.mean_hold, chain.up_prob]
    spans = []
    for w, rate in integrals.values():
        spans.append((len(cols), None if rate is None else len(cols) + 1))
        cols += [w] if rate is None else [w, rate]
    job = _Sampler(
        chain=chain,
        seed=seed,
        stream=stream,
        T=T,
        bounds=[i * n_paths // k for i in range(k + 1)],
        table=np.column_stack([np.asarray(c, float) for c in cols]),
        spans=spans,
        terminal=_shared_full(n_paths, -1, np.int64),
        discarded=_shared_full(n_paths, False, bool),
        occupation=_shared_full((k, n_states), 0.0, float),
        totals={name: _shared_full(n_paths, 0.0, float) for name in integrals},
        hits={int(s): _shared_full(n_paths, np.inf, float) for s in hit_levels},
        occ={int(s): _shared_full(n_paths, 0.0, float) for s in occupation_states},
    )
    _run_chunks(job, k, workers)
    occupation = job.occupation[0].copy()
    for row in job.occupation[1:]:
        occupation += row

    return PathBatch(
        chain=chain,
        n_paths=n_paths,
        T=T,
        terminal_state=job.terminal,
        discarded=job.discarded,
        occupation=occupation,
        hit_time=job.hits,
        state_occupation=job.occ,
        payoff=job.totals.get("payoff"),
        residual=job.totals.get("residual"),
    )


def _run_chunks(job: _Sampler, k: int, workers: int) -> None:
    """Sample the k chunks of a batch, on forked workers when ``workers`` > 1.

    Worker w samples chunks w, w + workers, ... into the shared arrays. The
    parent reaps every worker, then samples in-process the chunks of any
    worker that failed or could not be forked, so an exception raised by a
    chunk surfaces once, from the parent. A chunk draws the same numbers on
    every run, so what a failed worker wrote is overwritten with the same
    values. Workers run numpy array code and the generator only, no BLAS
    call and no thread, so a fork beside idle BLAS threads is safe for them.
    """
    redo = range(workers)
    if workers > 1:
        pids = {}
        parent = os.getpid()
        try:
            for w in range(workers):
                pid = os.fork()
                if pid == 0:
                    # the worker leaves through os._exit alone: no traceback,
                    # no unwinding into the caller's frames
                    status = 1
                    try:
                        if _tie_to_parent(parent):
                            for i in range(w, k, workers):
                                _sample_chunk(job, i)
                            status = 0
                    finally:
                        os._exit(status)
                pids[w] = pid
        except OSError:
            pass  # no more processes: the parent samples the rest
        finally:
            redo = [w for w in range(workers) if w not in pids or os.waitpid(pids[w], 0)[1] != 0]
    for w in redo:
        for i in range(w, k, workers):
            _sample_chunk(job, i)


def _tie_to_parent(parent: int) -> bool:
    """Have the kernel kill this forked worker when ``parent`` ends (Linux
    ``PR_SET_PDEATHSIG``), so a killed caller leaves no worker behind; False
    when the parent ended before that took effect."""
    try:
        import ctypes

        ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # 1 = PR_SET_PDEATHSIG
    except (OSError, AttributeError):  # not Linux: nothing to ask
        pass
    return os.getppid() == parent


def _sample_chunk(job: _Sampler, i: int) -> None:
    """Sample chunk i of a batch and write its rows of the output arrays."""
    chain, table, spans, T = job.chain, job.table, job.spans, job.T
    n_states = chain.n_states
    q_grid = chain.q_grid
    r = chain.r
    discount = r != 0.0
    hits, occ = job.hits, job.occ
    edges = ((0, chain.left_rule), (n_states - 1, chain.right_rule))
    pad_states = [s for s, rule in edges if rule == "pad"]
    absorb_states = [s for s, rule in edges if rule == "absorb"]
    # offsets of the row groups of the carried state
    j_hit = 5 + len(spans)
    j_occ = j_hit + len(hits)

    c0, c1 = job.bounds[i], job.bounds[i + 1]
    m = c1 - c0
    rng = _rng(job.seed, job.stream * 1_000_003 + i + 1)
    occupation = np.zeros(n_states)
    # the rows carried per live path, compacted together: path id, state,
    # clock, discount factor exp(-r t), discounted price, the price
    # integrals, the hit times and the state occupations
    S = [np.arange(c0, c1, dtype=np.int64), np.full(m, chain.start_index, dtype=np.int64), np.zeros(m)]
    S += [np.ones(m), np.full(m, q_grid[chain.start_index])]
    S += [np.zeros(m) for _ in spans] + [np.full(m, np.inf) for _ in hits] + [np.zeros(m) for _ in occ]

    while S[0].size:
        ids, st, tt, disc_old, price_old = S[:5]
        acc_int, acc_hit, acc_occ = S[5:j_hit], S[j_hit:j_occ], S[j_occ:]
        at = table.take(st, axis=0).T
        e = rng.standard_exponential(ids.size)
        uu = rng.random(ids.size)
        dwell = e * at[0]
        t_next = tt + dwell
        expire = t_next >= T
        any_expire = expire.any()
        if any_expire:
            dwell = np.where(expire, T - tt, dwell)
            t_next = np.minimum(t_next, T)

        occupation += np.bincount(st, weights=dwell, minlength=n_states)
        for s, acc in zip(occ, acc_occ):
            acc += dwell * (st == s)

        s_next = (uu < at[1]).astype(np.int64)
        s_next *= 2
        s_next -= 1
        s_next += st
        live = ~expire

        q_next = q_grid[np.where(expire, st, s_next) if any_expire else s_next]
        if discount:
            disc_new = np.exp(-r * t_next)
            price_new = disc_new * q_next
        else:
            disc_new, price_new = disc_old, q_next
        dS = price_new - price_old
        for acc, (w, rate) in zip(acc_int, spans):
            if rate is None:
                acc += at[w] * dS
            else:
                acc += at[w] * (dS - at[rate] * ((disc_old - disc_new) / r if discount else dwell))

        for lv, acc in zip(hits, acc_hit):
            arrived = s_next == lv
            if arrived.any():
                arrived &= live & np.isinf(acc)
                acc[arrived] = t_next[arrived]

        # deaths: horizon, pad exit (discard), absorbing entry (the
        # clock stops; occupation counts time up to absorption only)
        dead = expire
        dead_pad = _entering(s_next, pad_states, live)
        if dead_pad is not None:
            dead = dead | dead_pad
        absorbed = _entering(s_next, absorb_states, live)
        if absorbed is not None:
            dead = dead | absorbed
            if discount and acc_int and absorbed.any():
                # the price keeps discounting while parked at the absorbing
                # value; settle that increment analytically
                tail = np.where(absorbed, (math.exp(-r * T) - disc_new) * q_grid[s_next], 0.0)
                for acc, (w, _) in zip(acc_int, spans):
                    acc += table[s_next, w] * tail
        S[1:5] = s_next, t_next, disc_new, price_new
        if dead.any():
            rows = ids[dead]
            job.terminal[rows] = np.where(expire, st, s_next)[dead]
            if dead_pad is not None and dead_pad.any():
                job.discarded[ids[dead_pad]] = True
            for out, acc in zip([*job.totals.values(), *hits.values(), *occ.values()], acc_int + acc_hit + acc_occ):
                out[rows] = acc[dead]
            # compact each row into its own prefix, one at a time: no second
            # generation of rows is built
            keep = np.flatnonzero(~dead)
            for j, a in enumerate(S):
                a[: keep.size] = a[keep]
                S[j] = a[: keep.size]
    job.occupation[i] = occupation


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


def local_time_field(occupation: np.ndarray, chain: ChainModel) -> np.ndarray:
    """Local-time field from a per-path occupation: occupation / cell mass.

    Inverts the occupation identity at chain resolution. States with zero
    cell mass get NaN.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        lt = occupation / chain.cell_mass
    return np.where(chain.cell_mass > 0, lt, np.nan)


@dataclass(frozen=True)
class TradeoffEstimate:
    """Mean-variance-tradeoff estimates over a refinement ladder."""

    grid_sizes: tuple[int, ...]
    estimates: tuple[float, ...]
    ratios: tuple[float, ...]
    divergence: bool


# Midpoint rule, upper half, on the optimized cotangent contour of Trefethen,
# Weideman & Schmelzer (2006), w = n (0.5017 t cot(0.6407 t) - 0.6122 +
# 0.2645 i t): f(T) ~ Re sum_k c_k F(w_k / T) / T for a Laplace transform F
# analytic off (-inf, 0]. For F(z) = 1 / (z - x) it is a rational
# approximation of exp(x T) with error about 3.89^-n uniformly in x <= 0, so
# a stiff spectrum costs nothing; n = 32 reaches the double-precision floor.
_t = math.pi * (2 * np.arange(16) + 1) / 32
_TALBOT_W = 32 * (0.5017 * _t / np.tan(0.6407 * _t) - 0.6122 + 0.2645j * _t)
_TALBOT_DW = 32 * (0.5017 / np.tan(0.6407 * _t) - 0.5017 * 0.6407 * _t / np.sin(0.6407 * _t) ** 2 + 0.2645j)
_TALBOT_C = 2.0 * np.exp(_TALBOT_W) * _TALBOT_DW / 32j


def exact_occupation(chain: ChainModel, T: float) -> np.ndarray:
    """Expected occupation time of each state up to T, per path.

    The occupation is e_start^T (integral of e^(Qt) over [0, T]) for the
    generator Q of the live (finite-hold) states, and its Laplace transform
    is x(z) / z with x(z) = e_start^T (zI - Q)^(-1). That row of the
    tridiagonal resolvent comes from two continued-fraction sweeps toward
    the start state, whose pivots keep an imaginary part of at least Im z,
    so no pivot nears zero; the Talbot rule inverts the transform. The
    cost is set by the number of states, not by the jump rates, and the
    result is exact to about 1e-13 relative. A path entering an absorbing
    or pad state is killed, as in ``sample_paths``, so
    ``sample_paths(...).occupation / n_paths`` estimates this vector.
    """
    occ = np.zeros(chain.n_states)
    live = np.flatnonzero(np.isfinite(chain.mean_hold))
    rate = 1.0 / chain.mean_hold[live]
    up = rate * chain.up_prob[live]  # i -> i+1; a flow into a terminal state leaves
    down = rate - up  # i -> i-1
    flow = up[:-1] * down[1:]  # Q[i, i+1] Q[i+1, i]
    s = chain.start_index - live[0]
    z = _TALBOT_W / T
    # pivots of zI - Q eliminated from both ends toward s, one column per node
    piv = z[None, :] + rate[:, None]
    for i in range(1, s + 1):
        piv[i] -= flow[i - 1] / piv[i - 1]
    for i in range(live.size - 2, s, -1):
        piv[i] -= flow[i] / piv[i + 1]
    if s < live.size - 1:
        piv[s] -= flow[s] / piv[s + 1]
    x = np.empty_like(piv)
    x[s] = 1.0 / piv[s]
    x[s + 1 :] = x[s] * np.cumprod(up[s:-1, None] / piv[s + 1 :], axis=0)
    x[:s] = (x[s] * np.cumprod((down[1 : s + 1, None] / piv[:s])[::-1], axis=0))[::-1]
    occ[live] = np.real((x / z) @ _TALBOT_C) / T
    return occ


def estimate_tradeoff(
    view: NaturalScaleView,
    spec: DiffusionSpec,
    base_grid: int = 256,
    levels: int = 3,
) -> TradeoffEstimate:
    """K_T across a grid-refinement ladder, exact on each level's chain
    (``exact_occupation``), and a divergence flag.

    The flag is raised when the last two level-to-level ratios both reach
    1.5: a 1/x-type pole of phi doubles the estimate per refinement, while
    an integrable phi keeps the ladder flat.
    """
    if levels < 3:
        raise ValueError("the refinement ladder needs at least 3 levels")
    grids = [base_grid * 2**lv for lv in range(levels)]
    ests = []
    for N in grids:
        # K = sum of phi(u_i)^2 * local time * cell width over interior states
        chain = build_chain(view, spec, N=N)
        lt = local_time_field(exact_occupation(chain, spec.horizon), chain)
        lt[[0, -1]] = np.nan
        vals = np.asarray(view.phi(chain.grid), float) ** 2 * lt * np.diff(_cell_edges(chain.grid))
        ests.append(float(np.sum(np.where(np.isfinite(lt), vals, 0.0))))
    ratios = tuple(
        (ests[i + 1] / ests[i]) if ests[i] > 0 else math.inf if ests[i + 1] > 0 else 1.0
        for i in range(len(ests) - 1)
    )
    divergence = len(ratios) >= 2 and all(rho >= 1.5 for rho in ratios[-2:])
    return TradeoffEstimate(
        grid_sizes=tuple(grids),
        estimates=tuple(ests),
        ratios=ratios,
        divergence=divergence,
    )


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StrategyResult:
    name: str
    n_paths: int
    n_used: int
    mean: float
    se: float
    min_payoff: float
    frac_positive: float
    wilson_low: float
    wilson_high: float
    grid_step: float


@dataclass(frozen=True)
class StrategyPlan:
    """A strategy resolved on a chain: the post-hitting hold reads the first
    hitting time of ``hit_level``, the others integrate ``table``."""

    name: str
    hit_level: Optional[int] = None
    table: Optional[np.ndarray] = None

    @property
    def accumulators(self) -> dict:
        """The ``sample_paths`` keyword arguments the plan reads."""
        if self.hit_level is not None:
            return {"hit_levels": [self.hit_level]}
        return {"position_table": self.table}


def plan_strategy(view: NaturalScaleView, chain: ChainModel, strategy: str) -> StrategyPlan:
    """Resolve a named strategy on a chain.

    'post_hitting_hold' enters one unit after first hitting the accessible
    boundary (its payoff telescopes to S_T - S at the hit); 'boundary_sit'
    holds one unit only while at the reflecting boundary state.
    """
    if strategy == "post_hitting_hold":
        acc = [b for _, b in view.boundaries if b.accessible]
        if not acc:
            raise ValueError("post_hitting_hold needs an accessible boundary")
        level = acc[0].image
        return StrategyPlan(f"post_hitting_hold@{float(level):g}", hit_level=chain.state_of(float(level)))
    if strategy == "boundary_sit":
        refl = [b for _, b in view.boundaries if b.kind == "reflecting"]
        if not refl:
            raise ValueError("boundary_sit requires a reflecting boundary")
        table = np.zeros(chain.n_states)
        table[chain.state_of(refl[0].image)] = 1.0
        return StrategyPlan("boundary_sit", table=table)
    raise ValueError(f"unknown strategy {strategy!r}")


def evaluate_strategy(batch: PathBatch, plan: StrategyPlan) -> tuple[StrategyResult, np.ndarray]:
    """Payoffs of the kept paths of a batch and their statistics.

    The post-hitting hold telescopes to the discounted S_T minus the
    discounted S at the first hit (zero on paths that never hit); a table
    strategy reads the batch's payoff accumulator.
    """
    chain = batch.chain
    keep = batch.kept
    if plan.hit_level is None:
        pay = batch.payoff[keep]
    else:
        lv_idx = plan.hit_level
        ht = batch.hit_time[lv_idx][keep]
        term = batch.terminal_state[keep]
        if chain.start_index == lv_idx:
            ht = np.zeros_like(ht)  # the start state counts as hit at time 0
        hit = np.isfinite(ht)
        pay = np.zeros(term.size)
        if chain.r != 0.0:
            pay[hit] = np.exp(-chain.r * batch.T) * chain.q_grid[term[hit]] - np.exp(
                -chain.r * ht[hit]
            ) * chain.q_grid[lv_idx]
        else:
            pay[hit] = chain.q_grid[term[hit]] - chain.q_grid[lv_idx]

    n_used = pay.size
    k_pos = int(np.sum(pay > 0))
    lo, hi = wilson_interval(k_pos, n_used)
    mean, se = _mean_se(pay)
    result = StrategyResult(
        name=plan.name,
        n_paths=batch.n_paths,
        n_used=n_used,
        mean=mean,
        se=se,
        min_payoff=float(np.min(pay)) if n_used else 0.0,
        frac_positive=k_pos / n_used if n_used else 0.0,
        wilson_low=lo,
        wilson_high=hi,
        grid_step=float(np.max(np.diff(chain.grid))),
    )
    return result, pay


# ---------------------------------------------------------------------------
# Martingale diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagnosticResult:
    target: str
    t_stat: float
    mean: float
    se: float
    n_samples: int
    note: str = ""

    def passes(self, threshold: float = 3.0) -> bool:
        """|t| below the threshold, on at least two samples."""
        return self.n_samples >= 2 and abs(self.t_stat) < threshold


@dataclass(frozen=True)
class DiagnosticPlan:
    """A martingale diagnostic resolved on a chain: the ``sample_paths``
    keyword arguments it reads and, for 'U_minus_half_L', one (state, sign,
    cell mass) compensator per reflecting boundary."""

    target: str
    accumulators: dict
    compensators: tuple[tuple[int, float, float], ...] = ()


def plan_diagnostic(
    view: NaturalScaleView,
    chain: ChainModel,
    target: str,
    target_states: Optional[Sequence[int]] = None,
) -> DiagnosticPlan:
    """Resolve a martingale diagnostic target on a chain.

    'U_minus_half_L': with a reflecting boundary, each path's increment of
    U - L/2 from the start to its end (the horizon, or absorption) must be
    centered; L is the path's boundary occupation over the boundary cell
    mass. Increments of a martingale over disjoint times are uncorrelated,
    so the mean of a path's increments over a mesh of times is its terminal
    increment over the mesh size, with a standard error smaller by the same
    factor: a mesh gives, to first order, the same t statistic.

    'discounted_price_drift': price increments minus the drift predicted by
    the market-price-of-risk field (Green-averaged per cell) must be
    centered; restricted to ``target_states`` when given, e.g. the sticky
    cell. A violated singular-part identity shows up as a biased residual
    at the affected cell.
    """
    if target == "U_minus_half_L":
        refl = [s for s, b in view.boundaries if b.kind == "reflecting"]
        if not refl:
            raise ValueError("U_minus_half_L requires a reflecting boundary")
        # left reflection pushes up (compensator -L/2), right reflection
        # pushes down (+L/2); with both present, both enter
        comps = []
        for side in refl:
            b_idx = 0 if side == "left" else chain.n_states - 1
            comps.append((b_idx, 1.0 if side == "left" else -1.0, chain.cell_mass[b_idx]))
        return DiagnosticPlan(target, {"occupation_states": [c[0] for c in comps]}, tuple(comps))
    if target == "discounted_price_drift":
        weight = np.zeros(chain.n_states)
        if target_states is None:
            weight[1:-1] = 1.0
        else:
            weight[[int(s) for s in target_states]] = 1.0
        return DiagnosticPlan(target, {"residual_rates": gamma_drift_rates(chain, view), "residual_weight": weight})
    raise ValueError(f"unknown diagnostic target {target!r}")


def evaluate_diagnostic(batch: PathBatch, plan: DiagnosticPlan) -> DiagnosticResult:
    """The diagnostic's t statistic on the kept paths of a batch that
    carries the plan's accumulators, one sample per path: for
    'U_minus_half_L' the increment of U - L/2 from the start state to the
    terminal state, read from the values written when the path ended."""
    chain = batch.chain
    keep = batch.kept
    if plan.target == "U_minus_half_L":
        samples = chain.grid[batch.terminal_state[keep]] - chain.grid[chain.start_index]
        for b, sign, cm in plan.compensators:
            samples = samples - sign * batch.state_occupation[b][keep] / (2.0 * cm)
        note = f"terminal increment per path, {len(plan.compensators)} reflecting compensator(s)"
    else:
        samples = batch.residual[keep]
        note = "per-path residual of price increments against the predicted drift"
    mean, se = _mean_se(samples)
    return DiagnosticResult(
        target=plan.target,
        t_stat=mean / se if se > 0 else 0.0,
        mean=mean,
        se=se,
        n_samples=samples.size,
        note=note,
    )
