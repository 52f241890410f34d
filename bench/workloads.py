"""Seeded inputs for the benchmark workloads, with their expected verdicts.

Every input is generated from the workload seed alone. Numbers are small
rationals so that the expected verdicts can be decided in exact arithmetic;
the program receives them either as ``--params k=v`` strings (catalog
models) or as JSON model documents (un-annotated documents).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as F

HOLDS = "holds"
FAILS = "fails"

# ---------------------------------------------------------------------------
# catalog_classify
# ---------------------------------------------------------------------------

# The 15 parameter sets of the golden catalog table (acceptance criterion 1).
GOLDEN: tuple[tuple[str, str], ...] = (
    ("squared_bessel", "delta=1/2,r=0"),
    ("squared_bessel", "delta=1,r=0"),
    ("squared_bessel", "delta=3/2,r=0"),
    ("sticky_reflected_bm", "r=1/2,rho=1"),
    ("sticky_reflected_bm", "r=1/2,rho=9/10"),
    ("sticky_reflected_bm", "r=0,rho=1"),
    ("cubed_bm", "r=0"),
    ("fat_cantor", ""),
    ("sticky_skew", "kappa=3/4,c=1,xi=4/3,r=1"),
    ("sticky_skew", "kappa=3/4,c=1,xi=4/3,r=9/10"),
    ("gen_squared_bessel", "nu=-1/2,m0=inf,r=0"),
    ("gen_squared_bessel", "nu=-1/2,m0=inf,r=1/10"),
    ("gen_squared_bessel", "nu=-1/2,m0=0,r=0"),
    ("brownian_motion", "r=0"),
    ("brownian_motion", "r=3/10"),
)

# Seeded draws per catalog entry and pass; fixed so that every seed runs
# the same mix of models and only the parameters move. With the golden
# table, a pass holds 106 inputs, enough for a p90 with ten beyond it.
DRAWS_PER_ENTRY = 13


@dataclass(frozen=True)
class CatalogInput:
    label: str
    name: str
    params: str  # the --params argument, "k=v,..." with rational values


def _rat(rng: random.Random, lo: F, hi: F, dens: tuple[int, ...] = (1, 2, 3, 4, 5, 8)) -> F:
    """A small rational drawn from the open interval (lo, hi)."""
    while True:
        d = rng.choice(dens)
        n = rng.randint(int(lo * d) - 1, int(hi * d) + 1)
        x = F(n, d)
        if lo < x < hi:
            return x


def _nonzero(rng: random.Random, lo: F, hi: F) -> F:
    while True:
        x = _rat(rng, lo, hi)
        if x != 0:
            return x


def _fmt(params: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in params.items())


def _draw_catalog_params(rng: random.Random, name: str, on_predicate: bool) -> dict:
    """Parameters from the entry's documented ranges.

    For the two entries with an equality predicate, ``on_predicate`` places
    the draw on ``2 r rho = 1`` or ``r xi c = (2k-1)/(2k(1-k))``; otherwise
    the draw is off it, so both verdicts occur.
    """
    if name == "brownian_motion":
        return {"r": _rat(rng, F(-2), F(2)), "x0": _rat(rng, F(-3), F(3))}
    if name == "sticky_reflected_bm":
        r = _nonzero(rng, F(0), F(2))
        rho = 1 / (2 * r)
        if not on_predicate:
            rho *= rng.choice((F(1, 2), F(2, 3), F(3, 2), F(2)))
        return {"r": r, "rho": rho, "x0": 1 + _rat(rng, F(0), F(2))}
    if name == "squared_bessel":
        return {"delta": _rat(rng, F(0), F(2)), "r": 0, "x0": _rat(rng, F(0), F(3))}
    if name == "gen_squared_bessel":
        m0 = rng.choice(("inf", 0, _rat(rng, F(0), F(3))))
        return {"nu": _rat(rng, F(-1), F(0)), "r": _rat(rng, F(-1), F(1)), "m0": m0, "x0": _rat(rng, F(0), F(3))}
    if name == "cubed_bm":
        return {"r": 0, "x0": _nonzero(rng, F(-3), F(3))}
    if name == "sticky_skew":
        kappa = _rat(rng, F(0), F(1))
        while kappa == F(1, 2):
            kappa = _rat(rng, F(0), F(1))
        r = _nonzero(rng, F(-2), F(2))
        xi = _nonzero(rng, F(0), F(3))
        # c > 0 on the predicate needs r xi (2 kappa - 1) > 0
        if r * (2 * kappa - 1) < 0:
            xi = -xi
        c_eq = (2 * kappa - 1) / (2 * kappa * (1 - kappa) * r * xi)
        c = c_eq if on_predicate else c_eq * rng.choice((F(1, 2), F(3, 4), F(4, 3), F(2)))
        return {"kappa": kappa, "c": c, "xi": xi, "r": r}
    if name == "fat_cantor":
        return {"r": 0, "generations": rng.randint(6, 8), "u0": _rat(rng, F(1, 10), F(9, 10))}
    raise KeyError(name)


CATALOG_ENTRIES = (
    "brownian_motion",
    "sticky_reflected_bm",
    "squared_bessel",
    "gen_squared_bessel",
    "cubed_bm",
    "sticky_skew",
    "fat_cantor",
)


def _pass_rng(seed: int, pass_no: int) -> random.Random:
    """The generator of one pass; every pass of a run draws fresh numbers."""
    return random.Random(seed * 1_000_003 + pass_no)


def catalog_inputs(seed: int, pass_no: int = 0, reject=None) -> list[CatalogInput]:
    """The golden table plus ``DRAWS_PER_ENTRY`` seeded draws per entry.

    The draws take the entries in turn, so any prefix of a pass holds every
    entry in about equal shares. ``reject(input)`` names a known defect the
    input reproduces, or returns ""; a rejected draw is replaced by the next
    draw for the same slot.
    """
    rng = _pass_rng(seed, pass_no)
    out = [CatalogInput(f"golden{i:02d}_{name}", name, params) for i, (name, params) in enumerate(GOLDEN)]
    for j in range(DRAWS_PER_ENTRY):
        for name in CATALOG_ENTRIES:
            out.append(_redraw(lambda: CatalogInput(
                f"draw{j}_{name}", name, _fmt(_draw_catalog_params(rng, name, on_predicate=j % 2 == 0))), reject))
    return out


REDRAWS = 20


def _redraw(draw, reject):
    """The first draw that ``reject`` passes; the last one if none does
    within ``REDRAWS`` tries, so that a defect hit on every try still shows
    as a failed operation."""
    item = draw()
    for _ in range(REDRAWS):
        if reject is None or not reject(item):
            break
        item = draw()
    return item


def parse_params(text: str) -> dict:
    """The values the command line passes to the catalog entry, as plain floats."""
    out = {}
    for item in filter(None, text.split(",")):
        k, v = item.split("=", 1)
        out[k] = float("inf") if v == "inf" else float(F(v))
    return out


# ---------------------------------------------------------------------------
# docs_classify
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DocInput:
    label: str
    family: str
    doc: dict
    expected: str  # every notion holds, or every notion fails


def _const(c) -> dict:
    return {"node": "const", "c": float(c)}


def sticky_doc(alpha: F, a: F, r: F, rho: F, dens: F, x0: F) -> tuple[dict, str]:
    """Bachelier reflected at alpha > 0 with a speed atom rho there.

    The boundary clause of NIP reads r alpha rho = q'/2 = 1/(2a); the
    drift field phi = -r q mU_ac / q' is bounded, so every notion holds iff
    rho = 1/(2 r alpha a).
    """
    doc = {
        "model_id": "sticky",
        "state_interval": {"alpha": float(alpha), "beta": "inf", "alpha_closed": True},
        "scale": {"node": "affine", "a": float(a), "b": 0.0},
        "speed": {"ac": _const(dens), "atoms": [[float(alpha), float(rho)]], "sc": None},
        "x0": float(x0),
        "r": float(r),
        "boundaries": {"left": "reflecting"},
    }
    ok = r * alpha * rho * 2 * a == 1
    return doc, HOLDS if ok else FAILS


def skew_doc(points: list[F], slopes: list[F], atoms: list[F], r: F, dens: F, x0: F) -> tuple[dict, str]:
    """Continuous piecewise-affine scale on the real line, kinks at p > 0.

    The singular-part clause of NIP at the image of a kink p reads
    r p m({p}) = (1/a_{k+1} - 1/a_k)/2, so every notion holds iff each atom
    equals (1/a_{k+1} - 1/a_k)/(2 r p).
    """
    pieces = []
    intercept = F(0)  # s(0) = 0 on the first piece
    for k, a in enumerate(slopes):
        if k > 0:
            intercept += (slopes[k - 1] - a) * points[k - 1]  # continuous at the kink
        pieces.append({"node": "affine", "a": float(a), "b": float(intercept)})
    doc = {
        "model_id": "skew",
        "state_interval": {"alpha": "-inf", "beta": "inf"},
        "scale": {"node": "piecewise", "breakpoints": [float(p) for p in points], "pieces": pieces},
        "speed": {"ac": _const(dens), "atoms": [[float(p), float(m)] for p, m in zip(points, atoms)], "sc": None},
        "x0": float(x0),
        "r": float(r),
    }
    ok = all(
        2 * r * p * m == 1 / slopes[k + 1] - 1 / slopes[k] for k, (p, m) in enumerate(zip(points, atoms))
    )
    return doc, HOLDS if ok else FAILS


def absorbing_doc(alpha: F, a: F, r: F, dens: F, x0: F) -> tuple[dict, str]:
    """Bachelier absorbed at alpha: every notion holds iff r = 0 or alpha = 0.

    The boundary clause of NIP admits an absorbing boundary only at price
    zero or at zero rate; phi is bounded, so the collar conditions hold.
    """
    doc = {
        "model_id": "absorbing",
        "state_interval": {"alpha": float(alpha), "beta": "inf", "alpha_closed": True},
        "scale": {"node": "affine", "a": float(a), "b": 0.0},
        "speed": {"ac": _const(dens), "atoms": [[float(alpha), "inf"]], "sc": None},
        "x0": float(x0),
        "r": float(r),
        "boundaries": {"left": "absorbing"},
    }
    return doc, HOLDS if (r == 0 or alpha == 0) else FAILS


def cubic_doc(c: F, xc: F, r: F, dens: F, x0: F) -> tuple[dict, str]:
    """Scale x + c sign(x - xc)|x - xc|^3 on the real line: every notion holds.

    s' >= 1 keeps q smooth with q' > 0, both ends are inaccessible, and
    phi is continuous, hence locally square integrable.
    """
    scale = {
        "node": "sum",
        "terms": [
            {"node": "affine", "a": 1.0, "b": 0.0},
            {"node": "product", "factors": [_const(c), {"node": "power_signed", "center": float(xc), "p": 3.0}]},
        ],
    }
    doc = {
        "model_id": "cubic",
        "state_interval": {"alpha": "-inf", "beta": "inf"},
        "scale": scale,
        "speed": {"ac": _const(dens), "atoms": [], "sc": None},
        "x0": float(x0),
        "r": float(r),
    }
    return doc, HOLDS


def _mismatch(rng: random.Random) -> F:
    return rng.choice((F(1, 2), F(2, 3), F(3, 2), F(2)))


def _skew(rng: random.Random, n_kinks: int, want_holds: bool) -> tuple[dict, str]:
    points: list[F] = []
    while len(points) < n_kinks:
        points = sorted(set(points) | {_rat(rng, F(0), F(3))})
    r = _nonzero(rng, F(-2), F(2))
    # atoms are positive: slopes fall along the line when r > 0, rise when r < 0
    slopes: list[F] = []
    while len(slopes) < n_kinks + 1:
        slopes = sorted(set(slopes) | {_rat(rng, F(1, 4), F(3))}, reverse=r > 0)
    atoms = [(1 / slopes[k + 1] - 1 / slopes[k]) / (2 * r * p) for k, p in enumerate(points)]
    if not want_holds:
        k = rng.randrange(n_kinks)
        atoms[k] *= _mismatch(rng)
    return skew_doc(points, slopes, atoms, r, _rat(rng, F(1, 4), F(3)), points[0] / 2)


def _sticky(rng: random.Random, want_holds: bool) -> tuple[dict, str]:
    alpha = _rat(rng, F(0), F(2))
    a = _rat(rng, F(1, 4), F(3))
    r = _rat(rng, F(0), F(2))
    rho = 1 / (2 * r * alpha * a)
    if not want_holds:
        rho *= _mismatch(rng)
    return sticky_doc(alpha, a, r, rho, _rat(rng, F(1, 4), F(3)), alpha + _rat(rng, F(0), F(2)))


def _absorbing(rng: random.Random, alpha: F, zero_rate: bool) -> tuple[dict, str]:
    r = F(0) if zero_rate else _nonzero(rng, F(-2), F(2))
    a = _rat(rng, F(1, 4), F(3))
    return absorbing_doc(alpha, a, r, _rat(rng, F(1, 4), F(3)), alpha + _rat(rng, F(1, 4), F(3)))


def _cubic(rng: random.Random) -> tuple[dict, str]:
    return cubic_doc(
        _rat(rng, F(0), F(2)), _rat(rng, F(-2), F(2)), _nonzero(rng, F(-2), F(2)),
        _rat(rng, F(1, 4), F(3)), _rat(rng, F(-3), F(3)),
    )


# One pass of docs_classify: (family, generator). The seed and the pass
# move only the numbers. The structure that sets a document's cost is fixed
# per slot: the number of kinks, and r = 0, which halves the inversions
# because the drift term then skips q. The families take turns, so any
# prefix of a pass holds each in about its share.
DOC_SLOTS = (
    ("sticky", lambda rng: _sticky(rng, True)),
    ("skew", lambda rng: _skew(rng, 1, True)),
    ("absorbing", lambda rng: _absorbing(rng, F(0), zero_rate=False)),
    ("cubic", _cubic),
    ("cubic", _cubic),
    ("sticky", lambda rng: _sticky(rng, False)),
    ("skew", lambda rng: _skew(rng, 1, False)),
    ("absorbing", lambda rng: _absorbing(rng, F(1), zero_rate=True)),
    ("cubic", _cubic),
    ("cubic", _cubic),
    ("sticky", lambda rng: _sticky(rng, True)),
    ("skew", lambda rng: _skew(rng, 2, True)),
    ("absorbing", lambda rng: _absorbing(rng, F(1), zero_rate=False)),
    ("cubic", _cubic),
    ("cubic", _cubic),
    ("sticky", lambda rng: _sticky(rng, False)),
    ("skew", lambda rng: _skew(rng, 2, False)),
)


def doc_inputs(seed: int, pass_no: int = 0, reject=None) -> list[DocInput]:
    """One document per slot of ``DOC_SLOTS``; ``reject`` as in
    ``catalog_inputs``."""
    rng = _pass_rng(seed, pass_no)
    out = []
    for i, (family, make) in enumerate(DOC_SLOTS):
        label = f"doc{i:02d}_{family}"

        def draw():
            doc, expected = make(rng)
            doc["model_id"] = label
            return DocInput(label, family, doc, expected)

        out.append(_redraw(draw, reject))
    return out


# ---------------------------------------------------------------------------
# simulate_readme
# ---------------------------------------------------------------------------

README_SIMULATE = ("--catalog", "sticky_reflected_bm", "--params", "r=0.5,rho=1", "--paths", "10000", "--grid", "512")
# The warm-up runs the same command on a small chain: every code path, a
# small fraction of the sampling work.
WARMUP_SIMULATE = ("--catalog", "sticky_reflected_bm", "--params", "r=0.5,rho=1", "--paths", "200", "--grid", "64")


def simulate_args(seed: int, out: str, warmup: bool = False) -> list[str]:
    return ["simulate", *(WARMUP_SIMULATE if warmup else README_SIMULATE), "--seed", str(seed), "--out", out]
