"""Random valid market models for implication-chain fuzzing.

Models are built inverse-scale-first: a random increasing q (piecewise
affine with kinks, or a cubic with a flat point) plus a natural-scale speed
measure with atoms that are either matched to the kink jumps (making the
singular-part identity hold) or deliberately mismatched. The state-space
scale and speed are derived from q, so every generated spec is a valid
market model with exact annotations.
"""

from __future__ import annotations

import math

import numpy as np

from diffarb.diffusion_model import DiffusionSpec, StateInterval, inverse_piece
from diffarb.measure_kit import (
    Affine,
    Const,
    DecomposedMeasure,
    LocalBehavior,
    Piecewise,
    PowerSigned,
    Product,
    SmoothPiece1D,
    Sum,
)

INF = math.inf


def _piecewise_affine_q(rng, n_kinks: int, u_lo: float, u_hi: float):
    """Increasing piecewise-affine q on (u_lo, u_hi) with interior kinks."""
    pts = np.sort(rng.uniform(u_lo + 0.5, u_hi - 0.5, size=n_kinks)) if n_kinks else np.array([])
    pts = [float(p) for p in pts]
    slopes = rng.uniform(0.3, 3.0, size=n_kinks + 1)
    anchor_u = u_lo + 1.0 if math.isfinite(u_lo) else 0.0
    anchor_val = float(rng.uniform(-1.0, 3.0))
    # chain intercepts for continuity
    pieces = []
    # evaluate the value at each breakpoint by walking from the anchor
    knots = [anchor_u] + pts
    vals = [anchor_val]

    def seg_slope(u):
        idx = 0
        for p in pts:
            if u > p:
                idx += 1
        return slopes[idx]

    # build from left breakpoint structure: compute piece intercepts
    # pieces[i] valid on (pts[i-1], pts[i])
    b_vals = {}
    # value at pts: integrate slopes from anchor
    def value_at(u):
        v = anchor_val
        a, b = sorted((anchor_u, u))
        sign = 1.0 if u >= anchor_u else -1.0
        cuts = [a] + [p for p in pts if a < p < b] + [b]
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            mid = 0.5 * (lo + hi)
            v += sign * seg_slope(mid) * (hi - lo)
        return v

    for i in range(n_kinks + 1):
        if i == 0:
            ref = pts[0] if pts else anchor_u
        else:
            ref = pts[i - 1]
        val = value_at(ref)
        pieces.append(Affine(float(slopes[i]), float(val - slopes[i] * ref)))
    if not pts:
        return pieces[0], []
    q = Piecewise(pts, pieces)
    kinks = []
    for i, p in enumerate(pts):
        kinks.append((p, float(slopes[i + 1] - slopes[i])))
    return q, kinks


def random_spec(seed: int) -> DiffusionSpec:
    return random_model(seed)[0]


def random_model(seed: int) -> tuple[DiffusionSpec, SmoothPiece1D]:
    """``random_spec(seed)`` and the piece q whose inverse is its scale."""
    rng = np.random.default_rng(seed)
    r = float(rng.choice([0.0, 0.0, 0.25, 1.0, -0.5]))
    shape = rng.choice(["real_line", "halfline", "halfline", "real_line"])
    family = rng.choice(["kinky", "kinky", "cubic"])

    if shape == "real_line":
        u_lo, u_hi = -INF, INF
        u_span = (-4.0, 4.0)
    else:
        u_lo, u_hi = float(rng.uniform(-2.0, 1.0)), INF
        u_span = (u_lo, u_lo + 8.0)

    phi_behaviors: list[LocalBehavior] = []
    zero_set: list[tuple[float, float]] = []

    if family == "cubic":
        v = float(rng.uniform(u_span[0] + 2.0, u_span[1] - 2.0))
        alpha = float(rng.uniform(0.3, 2.0))
        beta = float(rng.uniform(-1.0, 3.0))
        q_expr = Sum([Product([Const(alpha), PowerSigned(v, 3.0)]), Const(beta)])
        kinks = []
        zero_set.append((v, v))
        phi_behaviors.append(LocalBehavior(v, "both", -1.0, 1.0))
    else:
        q_expr, kinks = _piecewise_affine_q(rng, int(rng.integers(0, 3)), *u_span)

    lo_val = -INF if not math.isfinite(u_lo) else float(q_expr.value(np.asarray(u_lo)))

    # natural-scale speed: piecewise-constant density plus atoms
    dens0 = float(rng.uniform(0.4, 2.5))
    atoms: list[tuple[float, float]] = []
    for p, jump in kinks:
        q_at = float(q_expr.value(np.asarray(p)))
        if rng.random() < 0.6 and r != 0.0 and abs(q_at) > 1e-9:
            mass = 0.5 * jump / (r * q_at)  # matches the singular-part identity
            if mass > 1e-9:
                atoms.append((p, float(mass)))
                continue
        if rng.random() < 0.5:
            atoms.append((p, float(rng.uniform(0.2, 2.0))))
    if rng.random() < 0.25:
        extra = float(rng.uniform(u_span[0] + 1.0, u_span[1] - 1.0))
        if all(abs(extra - p) > 1e-6 for p, _ in atoms):
            atoms.append((extra, float(rng.uniform(0.2, 1.5))))
    atoms.sort()

    boundary_atom = None
    declared = []
    if shape == "halfline":
        b_val = float(q_expr.value(np.asarray(u_lo)))
        kind_roll = rng.random()
        d = float(q_expr.deriv(np.asarray(u_lo), 1))
        if kind_roll < 0.3:
            boundary_atom = (u_lo, INF)  # absorbing
            declared.append(("left", "absorbing"))
        else:
            if rng.random() < 0.5 and r * b_val > 1e-9:
                mass = 0.5 * d / (r * b_val)  # matches the boundary identity
            else:
                mass = float(rng.uniform(0.0, 2.0))
            if mass > 0:
                boundary_atom = (u_lo, mass)
            declared.append(("left", "reflecting"))

    all_atoms = list(atoms)
    if boundary_atom is not None:
        all_atoms = [boundary_atom] + all_atoms
    speed_nat = DecomposedMeasure(
        support=(u_lo, u_hi),
        ac_density=lambda u, d0=dens0: np.full_like(np.asarray(u, float), d0),
        atoms=tuple(all_atoms),
    )

    J_alpha = lo_val
    J = StateInterval(
        J_alpha,
        INF,
        alpha_closed=math.isfinite(J_alpha) and shape == "halfline",
    )
    q = SmoothPiece1D.from_expr(q_expr, (u_lo, u_hi))
    scale = inverse_piece(q, (J.alpha, J.beta))

    def m_density(x):
        return dens0 * np.asarray(scale.d_plus(x), float)

    x_atoms = tuple(
        (float(q_expr.value(np.asarray(p))), m) for p, m in all_atoms
    )
    x_breaks = tuple(
        sorted(
            float(q_expr.value(np.asarray(p)))
            for p, _ in kinks
            if J.alpha < float(q_expr.value(np.asarray(p))) < J.beta
        )
    )
    speed = DecomposedMeasure(
        support=(J.alpha, J.beta), ac_density=m_density, atoms=x_atoms, ac_breakpoints=x_breaks
    )

    u_start = float(rng.uniform(u_span[0] + 1.0, u_span[1] - 1.0))
    x0 = float(q_expr.value(np.asarray(u_start)))
    if shape == "halfline" and boundary_atom is not None and math.isinf(boundary_atom[1]):
        # keep the start away from the absorbing boundary
        x0 = max(x0, J_alpha + 0.5)

    return DiffusionSpec(
        J=J,
        scale=scale,
        speed=speed,
        x0=x0,
        r=r,
        model_id=f"fuzz_{seed}",
        q_expr=q_expr,
        speed_natural=speed_nat,
        qprime_zero_set=tuple(zero_set),
        phi_behaviors=tuple(phi_behaviors),
        declared_boundaries=tuple(declared),
    ), q
