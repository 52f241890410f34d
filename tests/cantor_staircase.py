"""The Cantor staircase, a singular-continuous base cdf shared by the tests."""

import numpy as np


def cantor_cdf(x):
    """Cantor staircase on [0, 1] from the ternary digits of x."""
    z = np.clip(np.asarray(x, float), 0.0, 1.0)
    val = np.zeros_like(z)
    done = np.zeros(z.shape, dtype=bool)
    step = 0.5
    for _ in range(40):
        z = 3.0 * z
        digit = np.minimum(np.floor(z), 2.0)
        z = z - digit
        val = np.where(~done & (digit >= 1), val + step, val)
        done |= digit == 1
        step *= 0.5
    return val
