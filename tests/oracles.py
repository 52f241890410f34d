"""Reference statistics read only by the test suite."""

import math
from typing import Callable

import numpy as np

from diffarb.mc_engine import local_time_field, subseed


def normal_cdf(x) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in arr])
    return out.reshape(np.shape(x)) if np.shape(x) else float(out[0])


def ks_distance(samples: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Kolmogorov-Smirnov distance of an empirical sample to a given cdf."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    F = np.asarray(cdf(xs), dtype=float)
    upper = np.max(np.arange(1, n + 1) / n - F)
    lower = np.max(F - np.arange(0, n) / n)
    return float(max(upper, lower))


def cell_exit_statistics(chain, index: int, n: int, seed: int) -> dict[str, float]:
    """Empirical holding time and up-move frequency at one cell.

    Uses the same generator family as the path sampler; checks that the
    sampled exponential clock and Bernoulli jumps match the chain fields.
    """
    rng = np.random.Generator(np.random.Philox(key=subseed(seed, 999)))
    holds = rng.standard_exponential(n) * chain.mean_hold[index]
    ups = rng.random(n) < chain.up_prob[index]
    return {
        "mean_hold": float(np.mean(holds)),
        "se_hold": float(np.std(holds, ddof=1) / math.sqrt(n)),
        "up_frac": float(np.mean(ups)),
        "se_up": float(math.sqrt(chain.up_prob[index] * (1 - chain.up_prob[index]) / n)),
    }


def estimate_local_time_field(batch, chain) -> np.ndarray:
    """Mean local-time field of a sampled batch: occupation per kept path / cell mass."""
    return local_time_field(batch.occupation / max(batch.n_kept, 1), chain)


def dense_occupation(chain, T: float) -> np.ndarray:
    """Reference for ``exact_occupation``: the same killed occupation from a
    dense eigendecomposition of the symmetrized generator (O(N^3) time and
    O(N^2) memory, so only for small chains)."""
    occ = np.zeros(chain.n_states)
    live = np.flatnonzero(np.isfinite(chain.mean_hold))
    if chain.start_index not in live:
        occ[chain.start_index] = T
        return occ
    rate = 1.0 / chain.mean_hold[live]
    up = rate * chain.up_prob[live]
    down = rate - up
    # Q[i, i+1] d_i = Q[i+1, i] d_(i+1) makes D^(1/2) Q D^(-1/2) symmetric
    off = np.sqrt(up[:-1] * down[1:])
    lam, V = np.linalg.eigh(np.diag(-rate) + np.diag(off, 1) + np.diag(off, -1))
    with np.errstate(divide="ignore", invalid="ignore"):
        integral = np.where(lam == 0.0, T, np.expm1(lam * T) / lam)
    half_log_d = np.concatenate([[0.0], np.cumsum(0.5 * np.log(up[:-1] / down[1:]))])
    k = chain.start_index - live[0]
    occ[live] = np.exp(half_log_d - half_log_d[k]) * (V @ (integral * V[k]))
    return occ
