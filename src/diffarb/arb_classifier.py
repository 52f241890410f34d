"""Deterministic NIP / NSA / NUPBR verdicts from diffusion characteristics.

The three notions are decided by deterministic conditions on the inverse
scale function q and the natural-scale speed measure mU:

* NIP -- boundary clauses (absorbing needs r = 0 or a zero boundary value;
  reflecting needs r b mU({s(b)}) to equal the one-sided q'(s(b))/2),
  matching of the singular parts r q(x) mU_si(dx) = q''_si(dx)/2 on the
  interior, and r q mU_ac = q''/2 a.e. on the zero set of q'.
* NSA -- NIP plus local square integrability of
  phi = (q''/2 - r q mU_ac)/q' on {q' != 0}, with an unweighted collar
  condition at every reflecting boundary.
* NUPBR -- NSA plus the distance-weighted collar condition at every
  absorbing boundary; with no absorbing boundary, NUPBR equals NSA.

Windows are placed in u and decided in the view's chart t, over phi**2
du/dt. A declared exponent e at u0 goes unchanged to t0: if u - u0 ~
|t - t0|^k, e becomes k(e + 1) - 1, which exceeds -1 exactly when e does.

Verdicts are tri-state: numeric inconclusiveness is reported, never mapped
silently to failure. Equality-type conditions carry their residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .diffusion_model import (
    DiffusionSpec,
    NaturalScaleView,
    SpecValidationError,
    WindowTable,
    check_semimartingale_assumption,
    derive_natural_scale,
    window_table,
)
from .measure_kit import (
    DEFAULT_QUAD,
    MeasureKitError,
    QuadConfig,
    _detect_suspicious,
    close_rel,
    decide_L2_local,
    decide_weighted_L2_boundary,
    window_nodes,
)

__all__ = [
    "ConditionReport",
    "Verdict",
    "check_nip",
    "check_nsa",
    "check_nupbr",
    "check_rp",
    "classify",
    "verdict_to_json",
]

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"

_ZERO_SET_SAMPLES = 10_000
_WINDOW_BLOCK = 4  # generic windows per phi evaluation; see _phi_l2_interior


@dataclass(frozen=True)
class ConditionReport:
    id: str
    status: str  # 'pass' | 'fail' | 'inconclusive'
    residual: Optional[float] = None
    note: str = ""


@dataclass(frozen=True)
class Verdict:
    nip: str
    nsa: str
    nupbr: str
    rp: str
    reports: tuple[ConditionReport, ...]
    impr: Optional[dict] = None

    def triple(self) -> tuple[str, str, str]:
        return (self.nip, self.nsa, self.nupbr)


# decider status -> condition status
_CONDITION = {"finite": "pass", "divergent": "fail", "inconclusive": "inconclusive"}


def _combine(statuses: Sequence[str]) -> str:
    """Conjunction of verdicts and condition statuses, in any mix."""
    if FAILS in statuses or "fail" in statuses:
        return FAILS
    if INCONCLUSIVE in statuses:
        return INCONCLUSIVE
    return HOLDS


def _within(residual: float, scale: float, cfg: QuadConfig) -> bool:
    """The NIP.ii equality test: |lhs - rhs| within eq_rel of the size of
    the two sides, floored at 1e-15."""
    return abs(residual) <= cfg.eq_rel * max(scale, 1e-15)


# ---------------------------------------------------------------------------
# NIP
# ---------------------------------------------------------------------------


def check_nip(
    view: NaturalScaleView, spec: DiffusionSpec, cfg: QuadConfig = DEFAULT_QUAD
) -> tuple[str, list[ConditionReport]]:
    reports: list[ConditionReport] = []
    r = spec.r

    # (i) boundary clauses
    for side, beh in view.boundaries:
        if not beh.accessible:
            continue
        b = beh.value
        if beh.kind == "absorbing":
            ok = (r == 0.0) or (b == 0.0)
            reports.append(
                ConditionReport(
                    "NIP.i.a",
                    "pass" if ok else "fail",
                    note=f"{side} absorbing at {b}, r = {r}",
                )
            )
        else:
            atom = view.mU.atom_mass_at(beh.image, cfg.atom_loc)
            lhs = r * b * atom
            rhs = 0.5 * view.boundary_slope(side)
            ok = close_rel(lhs, rhs, cfg.eq_rel)
            reports.append(
                ConditionReport(
                    "NIP.i.b",
                    "pass" if ok else "fail",
                    residual=lhs - rhs,
                    note=f"{side} reflecting: r b mU atom = {lhs}, one-sided q'/2 = {rhs}",
                )
            )

    # (ii) singular parts on the interior
    reports.extend(_check_singular_parts(view, spec, cfg))

    # (iii) a.e. identity on the declared zero set of q'
    reports.extend(_check_flat_spots(view, spec, cfg))

    return _combine([c.status for c in reports]), reports


def _check_singular_parts(
    view: NaturalScaleView, spec: DiffusionSpec, cfg: QuadConfig
) -> list[ConditionReport]:
    reports: list[ConditionReport] = []
    r = spec.r
    lo_u, hi_u = view.sJ
    q_val = view.q.value
    m_atoms = {p: m for p, m in view.mU.interior_atoms(lo_u, hi_u)}
    q_atoms = {p: m for p, m in view.qpp.interior_atoms(lo_u, hi_u)}

    # cluster atom locations within the matching tolerance, then compare
    # the pair of masses cluster by cluster
    locations = sorted(set(m_atoms) | set(q_atoms))
    clusters: list[list[float]] = []
    for p in locations:
        if clusters and p - clusters[-1][-1] <= cfg.atom_loc * (1 + abs(p)):
            clusters[-1].append(p)
        else:
            clusters.append([p])
    matched = [
        (group[0], sum(m_atoms.get(p, 0.0) for p in group), sum(q_atoms.get(p, 0.0) for p in group))
        for group in clusters
    ]

    if not matched:
        reports.append(ConditionReport("NIP.ii", "pass", residual=0.0, note="no interior atoms"))
    q_ats = np.asarray(q_val(np.array([p for p, _, _ in matched])), float).tolist() if matched else []
    for (p, mm, qm), q_at in zip(matched, q_ats):
        lhs = r * q_at * mm
        rhs = 0.5 * qm
        ok = _within(lhs - rhs, abs(r) * abs(q_at) * abs(mm) + 0.5 * abs(qm), cfg)
        reports.append(
            ConditionReport(
                "NIP.ii",
                "pass" if ok else "fail",
                residual=lhs - rhs,
                note=f"atom at {p}: r q mU mass = {lhs}, q'' mass / 2 = {rhs}",
            )
        )

    m_sc = view.mU.sc
    q_sc = view.qpp.sc
    if m_sc is None and q_sc is None:
        pass
    elif m_sc is not None and q_sc is not None and m_sc.base_id != q_sc.base_id:
        reports.append(
            ConditionReport(
                "NIP.ii",
                "inconclusive",
                note=(
                    f"singular-continuous parts live on different bases "
                    f"({m_sc.base_id!r} vs {q_sc.base_id!r}); equality on all "
                    "Borel sets is not numerically decidable"
                ),
            )
        )
    else:
        base = m_sc or q_sc
        us = np.linspace(base.support[0], base.support[1], 514)[1:-1]
        lhs = r * np.asarray(q_val(us), float) * (
            np.asarray(m_sc.multiplier(us), float) if m_sc is not None else 0.0
        )
        rhs = 0.5 * (np.asarray(q_sc.multiplier(us), float) if q_sc is not None else 0.0)
        worst = float(np.max(np.abs(lhs - rhs)))
        ok = _within(worst, float(np.max(np.abs(lhs)) + np.max(np.abs(rhs))), cfg)
        reports.append(
            ConditionReport(
                "NIP.ii",
                "pass" if ok else "fail",
                residual=worst,
                note=f"sc multipliers compared on {len(us)} base-support points",
            )
        )
    return reports


def _check_flat_spots(
    view: NaturalScaleView, spec: DiffusionSpec, cfg: QuadConfig
) -> list[ConditionReport]:
    """Condition (iii): r q mU_ac = q''/2 a.e. where q' vanishes.

    Isolated points are Lebesgue-null and impose nothing. Where q keeps a
    q'' table (``SmoothPiece1D.d2_segments``), each declared interval is
    read once per knot segment: q'' is the segment's exact constant, and
    with r != 0 r q mU_ac is read at the segment's midpoint. With r = 0 or
    no mU_ac that decides the condition; otherwise a mismatch fails it, and
    an interval that matches at every midpoint is also sampled at 10,000
    points against the table, since one point cannot show a varying product
    equal to a constant. A q without a table is sampled at those points,
    and a single violation fails the condition. Each pass reads every
    interval's points in one call.
    """
    r = spec.r
    intervals = [(a, b) for a, b in spec.qprime_zero_set if b > a]
    if not intervals:
        return [ConditionReport("NIP.iii", "pass", residual=0.0, note="zero set of q' is Lebesgue-null")]
    mU_ac = None if r == 0.0 else view.mU.ac_density

    def residuals(pieces, rhs):  # the worst |lhs - rhs| and a violation flag of each piece
        xs = np.concatenate(pieces)
        lhs = np.zeros_like(xs) if mU_ac is None else r * np.asarray(view.q.value(xs), float) * np.asarray(mU_ac(xs), float)
        diff = np.abs(lhs - rhs)
        bad = diff > cfg.eq_rel * np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-15)
        starts = np.cumsum([0, *map(len, pieces)][:-1])
        return np.maximum.reduceat(diff, starts).tolist(), np.logical_or.reduceat(bad, starts).tolist()

    def samples(a, b):
        return np.linspace(a, b, _ZERO_SET_SAMPLES + 2)[1:-1]

    tables = view.q.d2_segments(*np.array(intervals).T)
    if tables is None:
        pieces = [samples(a, b) for a, b in intervals]
        worst, failed = residuals(pieces, 0.5 * np.asarray(view.q.d2_ac(np.concatenate(pieces)), float))
        notes = [f"sampled {_ZERO_SET_SAMPLES} points of the flat interval [{a}, {b}]" for a, b in intervals]
    else:
        pieces = [0.5 * (edges[:-1] + edges[1:]) for edges, _ in tables]
        worst, failed = residuals(pieces, 0.5 * np.concatenate([d2 for _, d2 in tables]))
        notes = [
            f"q'' exact on {len(d2)} knot segment{'s' * (len(d2) > 1)} of the flat interval [{a}, {b}]"
            + ("" if mU_ac is None else ", r q mU_ac read at each midpoint")
            for (a, b), (_, d2) in zip(intervals, tables)
        ]
        matched = [] if mU_ac is None else [i for i, f in enumerate(failed) if not f]
        if matched:  # q'' at each sample is its segment's constant, the right one at a knot
            pieces = [samples(*intervals[i]) for i in matched]
            d2s = [tables[i] for i in matched]
            rhs = [0.5 * d2[np.clip(np.searchsorted(e, x, "right") - 1, 0, len(d2) - 1)] for x, (e, d2) in zip(pieces, d2s)]
            for i, w, f in zip(matched, *residuals(pieces, np.concatenate(rhs))):
                worst[i], failed[i] = max(worst[i], w), f
                notes[i] += f" and at {_ZERO_SET_SAMPLES} sampled points"
    return [
        ConditionReport("NIP.iii", "fail" if f else "pass", residual=w, note=note)
        for w, f, note in zip(worst, failed, notes)
    ]


# ---------------------------------------------------------------------------
# NSA / NUPBR
# ---------------------------------------------------------------------------


def _phi_l2_interior(view: NaturalScaleView, table: WindowTable) -> ConditionReport:
    """phi in L2_loc of the open image interval.

    Windows around every annotated interior singular point (decided by the
    exponent rule) plus a fixed panel of generic windows over a compact
    probe region around the start image, decided in order up to the first
    divergent one. The windows are rows of ``table``, in u and in the chart.
    The generic windows that its ``drift`` mask certifies take no sample;
    the others are screened 4 at a time, which keeps the rows in cache:
    ``view.phi_dt`` is evaluated once on their stacked ``window_nodes``
    (about 4,100 points) and ``_detect_suspicious`` reads the 4 rows in one
    call. Only a window with a detected point or an annotated behaviour goes
    on to ``decide_L2_local``; every other one is finite, as that decider
    finds it. When a block's evaluation raises, each of its windows
    evaluates phi_dt itself.
    """
    edges, t_edges = table.edges, table.t_edges
    moved = [replace(b, point=p) for b, (_, p, _) in table.behaviors]
    statuses: list[str] = []
    worst_note = ""

    for (beh, (a, _, b)), m in zip(table.behaviors, moved):
        v = decide_L2_local(view.phi_dt, (a, b), behaviors=[m], auto_detect=False)
        statuses.append(v.status)
        if v.status != "finite":
            worst_note = f"phi**2 {v.status} near interior point {beh.point}"
            break

    if "divergent" not in statuses:
        windows = list(zip(t_edges[:-1], t_edges[1:]))
        local = [[bb for bb in moved if lo <= bb.point <= hi] for lo, hi in windows]
        found = [[] for _ in windows]  # a certified window has no suspicious point
        pending = np.flatnonzero(~table.generic).tolist()
        for k, (a, b) in enumerate(windows):
            if pending and k == pending[0]:  # screen the next block of uncertified windows
                idx, pending = pending[:_WINDOW_BLOCK], pending[_WINDOW_BLOCK:]
                block = [windows[i] for i in idx]
                try:
                    rows = np.asarray(view.phi_dt(window_nodes(*np.array(block).T).ravel()), float).reshape(len(idx), -1)
                except MeasureKitError:  # each window evaluates phi_dt, so one past a divergent window never raises
                    screened = [None] * len(idx)
                else:
                    screened = _detect_suspicious(rows * rows, block, [[bb.point for bb in local[i]] for i in idx])
                for i, pts in zip(idx, screened):
                    found[i] = pts
            if found[k] is None:
                status = decide_L2_local(view.phi_dt, (a, b), behaviors=local[k]).status
            elif local[k] or found[k]:
                status = decide_L2_local(
                    view.phi_dt, (a, b), behaviors=local[k], suspicious=found[k], auto_detect=False
                ).status
            else:
                status = "finite"
            statuses.append(status)
            if status == "divergent":
                worst_note = f"phi**2 divergent on generic window [{edges[k]:.4g}, {edges[k + 1]:.4g}]"
                break
            if status == "inconclusive" and not worst_note:
                worst_note = f"phi**2 inconclusive on window [{edges[k]:.4g}, {edges[k + 1]:.4g}]"

    status = (
        "fail"
        if "divergent" in statuses
        else ("inconclusive" if "inconclusive" in statuses else "pass")
    )
    return ConditionReport("NSA.iv.loc", status, note=worst_note or "local square integrability of phi")


def _phi_collars(view: NaturalScaleView, spec: DiffusionSpec, kind: str, table: WindowTable) -> list[ConditionReport]:
    """The collar condition at every ``kind`` boundary over the chart: phi**2
    du/dt, times |u - s(b)| at an absorbing end, on the collars of ``table``."""
    reports = []
    for side, beh in view.boundaries:
        if beh.kind != kind:
            continue
        window, b_t, bb, certified = table.collar(side, spec.phi_behaviors, drift=True)
        cid, what = ("NSA.iv.refl", "") if kind == "reflecting" else ("NUPBR.v", "distance-weighted ")
        if not bb and certified:  # phi bounded up to the boundary: finite
            status = "finite"
        elif kind == "reflecting":
            status = decide_L2_local(view.phi_dt, window, behaviors=bb, suspicious=[b_t]).status
        else:
            status = decide_weighted_L2_boundary(
                view.phi_dt, b_t, window, behaviors=bb, distance=lambda t: np.abs(view.point(t)[0] - beh.image)
            ).status
        note = f"{what}collar integral of phi**2 at the {side} {kind} boundary: {status}"
        reports.append(ConditionReport(cid, _CONDITION[status], note=note))
    return reports


def check_nsa(
    view: NaturalScaleView, spec: DiffusionSpec, nip_status: str, table: Optional[WindowTable] = None
) -> tuple[str, list[ConditionReport]]:
    """NIP (its verdict ``nip_status``) and the square-integrability of phi
    on the windows of ``table`` (``window_table`` by default)."""
    table = table or window_table(view, spec)
    reports = [_phi_l2_interior(view, table)]
    reports.extend(_phi_collars(view, spec, "reflecting", table))
    return _combine([nip_status] + [c.status for c in reports]), reports


def check_nupbr(
    view: NaturalScaleView, spec: DiffusionSpec, nsa_status: str, table: Optional[WindowTable] = None
) -> tuple[str, list[ConditionReport]]:
    """NSA (its verdict ``nsa_status``) and the weighted collar condition at
    every absorbing boundary of ``table`` (``window_table`` by default)."""
    reports = _phi_collars(view, spec, "absorbing", table or window_table(view, spec))
    return _combine([nsa_status] + [c.status for c in reports]), reports


def check_rp(view: NaturalScaleView, spec: DiffusionSpec) -> tuple[str, ConditionReport]:
    """Representation property: the zero set of q' must be Lebesgue-null."""
    fat = [(a, b) for a, b in spec.qprime_zero_set if b > a]
    if fat:
        total = sum(b - a for a, b in fat)
        return FAILS, ConditionReport(
            "RP", "fail", residual=total, note=f"zero set of q' has Lebesgue measure {total:.6g}"
        )
    return HOLDS, ConditionReport("RP", "pass", residual=0.0, note="zero set of q' is Lebesgue-null")


# ---------------------------------------------------------------------------
# Aggregate
# ---------------------------------------------------------------------------


def classify(spec: DiffusionSpec, cfg: QuadConfig = DEFAULT_QUAD) -> Verdict:
    """Derive, validate, and produce the full tri-state verdict. Every
    window and point the checks map is a row of one ``window_table``."""
    view = derive_natural_scale(spec, cfg)
    table = window_table(view, spec)
    assumption = check_semimartingale_assumption(view, spec, table)
    if not assumption.passed:
        raise SpecValidationError(
            "the price process fails the semimartingale prerequisites: "
            + "; ".join(assumption.failures())
        )

    nip, nip_reports = check_nip(view, spec, cfg)
    nsa, nsa_reports = check_nsa(view, spec, nip, table)
    nupbr, nupbr_reports = check_nupbr(view, spec, nsa, table)
    rp, rp_report = check_rp(view, spec)

    # ordering: holds can only weaken along NUPBR -> NSA -> NIP
    order = {HOLDS: 2, INCONCLUSIVE: 1, FAILS: 0}
    if not order[nupbr] <= order[nsa] <= order[nip]:
        raise RuntimeError(
            f"internal inconsistency: NUPBR {nupbr}, NSA {nsa}, NIP {nip} break NUPBR => NSA => NIP"
        )

    us, ts = table.gamma
    impr = {
        "formula": "gamma(u) = (q''(u)/2 - r q(u) mU_ac(u)) / q'(u)^2 on {q' != 0}, 0 at boundary images",
        "samples": [[float(u), float(g)] for u, g in zip(us, view.drift_over_slope(ts, 2))],
    }
    return Verdict(
        nip=nip,
        nsa=nsa,
        nupbr=nupbr,
        rp=rp,
        reports=tuple(nip_reports + nsa_reports + nupbr_reports + [rp_report]),
        impr=impr,
    )


def verdict_to_json(spec: DiffusionSpec, v: Verdict) -> dict:
    """Stable-key-order report object for writing and diffing."""
    return {
        "model_id": spec.model_id,
        "r": spec.r,
        "nip": v.nip,
        "nsa": v.nsa,
        "nupbr": v.nupbr,
        "rp": v.rp,
        "reports": [
            {
                "id": c.id,
                "status": c.status,
                "residual": c.residual,
                "note": c.note,
            }
            for c in v.reports
        ],
        "impr": v.impr,
    }
