"""Command-line front end: classify and simulate market models.

Commands
--------
classify  -- deterministic NIP/NSA/NUPBR/RP verdicts, written as a JSON
             report with stable key order (byte-identical across reruns).
simulate  -- chain Monte Carlo: the default arbitrage strategies and the
             martingale diagnostics read one sampled batch (substream 7 of
             --seed); the tradeoff refinement ladder is exact on each
             chain (a resolvent contour solve, no sampling); emits the report plus
             plot-ready CSV files (no plotting dependency).
catalog   -- list or show the named model builders.
report    -- merge prior classify/simulate outputs into one table.

Exit codes: 0 on a definitive run, 2 when any notion is inconclusive,
1 on validation and usage errors. Flags mirror the DIFFARB_* environment
variables.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import lru_cache
from pathlib import Path
from typing import Optional

import numpy as np

from .arb_classifier import INCONCLUSIVE, classify, verdict_to_json
from .diffusion_model import DiffusionSpec, SpecValidationError, derive_natural_scale, load_model_spec
from .measure_kit import DEFAULT_QUAD, MeasureKitError, QuadConfig, json_object
from .mc_engine import (
    build_chain,
    estimate_tradeoff,
    evaluate_diagnostic,
    evaluate_strategy,
    plan_diagnostic,
    plan_strategy,
    sample_paths,
)
from .model_catalog import CATALOG, build_model, catalog_names

__all__ = ["main", "cmd_classify", "cmd_simulate", "cmd_catalog", "cmd_report"]

_LABEL = re.compile(r"[A-Za-z0-9_.-]+")


def _parse_kv(text: str) -> dict:
    """``k=v,...`` as a dict of strings; the reader of each value (the
    catalog entry, the tolerance record) parses it."""
    out = {}
    for item in filter(None, (text or "").split(",")):
        if "=" not in item:
            raise ValueError(f"expected key=value, got {item!r}")
        k, v = item.split("=", 1)
        out[k.strip()] = v.strip()
    return out


_ENV = ("MODEL", "CATALOG", "PARAMS", "SEED", "OUT", "TOL", "ID", "GRID", "PATHS", "LEVELS")  # every name _env reads


def _env(name: str, fallback):
    return os.environ.get(f"DIFFARB_{name}", fallback)


def _env_int(name: str, fallback: int) -> int:
    raw = _env(name, fallback)
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"DIFFARB_{name} must be an integer, got {raw!r}") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is a validation error: exit 1, one line
        raise SpecValidationError(message)


def _build_parser() -> argparse.ArgumentParser:
    """The parser for the DIFFARB_* variables set now, which give its
    defaults. Building one takes about 0.9 ms, mostly argparse sizing a
    help formatter to the terminal for every argument: an eighth of a
    catalog classify. So a process that runs many commands keeps one per
    environment. The parser names the command and ``main`` looks its
    ``cmd_*`` function up when it runs, so a function rebound in this
    module after the parser was built (by a tracer, by a test) is the one
    that runs."""
    return _parser_for(tuple(os.environ.get(f"DIFFARB_{name}") for name in _ENV))


@lru_cache(maxsize=8)
def _parser_for(env: tuple) -> argparse.ArgumentParser:
    """The parser whose defaults ``_env`` reads; ``env``, the values of the
    DIFFARB_* names in ``_ENV``, is only the key of the cache."""
    p = _Parser(prog="diffarb", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def model_command(name, help):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--model", default=_env("MODEL", None), help="path to a model-spec JSON document")
        sp.add_argument("--catalog", default=_env("CATALOG", None), help="catalog model name")
        sp.add_argument("--params", default=_env("PARAMS", ""), help="catalog parameters k=v,...")
        sp.add_argument("--seed", type=int, default=_env_int("SEED", 42))
        sp.add_argument("--out", default=_env("OUT", "out"))
        sp.add_argument("--tol", default=_env("TOL", ""), help="tolerance overrides key=val,...")
        sp.add_argument("--id", dest="run_id", default=_env("ID", None), help="report label (default: the model id)")
        return sp

    model_command("classify", "deterministic verdicts")
    sim = model_command("simulate", "Monte Carlo cross-validation")
    sim.add_argument("--grid", type=int, default=_env_int("GRID", 512))
    sim.add_argument("--paths", type=int, default=_env_int("PATHS", 10_000))
    sim.add_argument("--levels", type=int, default=_env_int("LEVELS", 3))
    sim.add_argument("--dump-paths", action="store_true", help="also write a per-path CSV")
    cat = sub.add_parser("catalog", help="list or show catalog entries")
    cat.add_argument("action", choices=["list", "show"])
    cat.add_argument("name", nargs="?", default=None)
    rep = sub.add_parser("report", help="merge prior outputs into one table")
    rep.add_argument("--out", default=_env("OUT", "out"))
    return p


def _load_spec(args) -> DiffusionSpec:
    if args.model:
        with open(args.model) as fh:
            doc = json.load(fh)
        if isinstance(doc, dict) and "catalog" in doc:
            json_object(doc, "catalog reference", ("catalog", "params"), error=SpecValidationError)
            return build_model(doc["catalog"], doc.get("params"))
        return load_model_spec(doc)
    if args.catalog:
        return build_model(args.catalog, _parse_kv(args.params))
    raise SpecValidationError("no model given: use --model <path> or --catalog <name>")


def _quad(args) -> QuadConfig:
    return DEFAULT_QUAD.override(**_parse_kv(args.tol))


def _label(args, spec: DiffusionSpec) -> str:
    """Report label: ``--id`` or the model id; it names output files, so it
    is restricted to ``[A-Za-z0-9_.-]+``."""
    label = args.run_id or spec.model_id
    if not _LABEL.fullmatch(label):
        raise SpecValidationError(f"report label {label!r} must match [A-Za-z0-9_.-]+")
    return label


def _write_text(path: Path, text: str) -> None:
    """Overwrite ``path`` in place and cut it at the end of ``text``; ``"w"``
    would truncate an old report to zero first, at several times the cost."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as fh:
        fh.write(text)
        fh.truncate()


def _write_json(path: Path, obj: dict) -> None:
    _write_text(path, json.dumps(obj, indent=2) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [header, *([repr(v) if isinstance(v, float) else str(v) for v in row] for row in rows)]
    _write_text(path, "".join(",".join(line) + "\n" for line in lines))


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def cmd_classify(args) -> int:
    try:
        spec = _load_spec(args)
        label = _label(args, spec)
        verdict = classify(spec, _quad(args))
    except (SpecValidationError, MeasureKitError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = verdict_to_json(spec, verdict)
    report["model_id"] = label
    report["seed"] = args.seed
    out = Path(args.out) / f"classify_{label}.json"
    _write_json(out, report)
    line = f"{label}: NIP {verdict.nip}, NSA {verdict.nsa}, NUPBR {verdict.nupbr}, RP {verdict.rp}"
    print(line)
    print(f"report: {out}")
    if INCONCLUSIVE in (verdict.nip, verdict.nsa, verdict.nupbr):
        return 2
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    try:
        if args.paths < 2:
            raise SpecValidationError("--paths must be at least 2 (standard errors need two samples)")
        if args.levels < 3:
            raise SpecValidationError("--levels must be at least 3 (the refinement ladder)")
        spec = _load_spec(args)
        label = _label(args, spec)
        view = derive_natural_scale(spec, _quad(args))
        chain = build_chain(view, spec, N=args.grid)
    except (SpecValidationError, MeasureKitError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    T = spec.horizon
    reflecting = [s for s, b in view.boundaries if b.kind == "reflecting"]
    accessible = [s for s, b in view.boundaries if b.accessible]
    plans = []
    if accessible:
        plans.append(plan_strategy(view, chain, "post_hitting_hold"))
    if reflecting:
        plans.append(plan_strategy(view, chain, "boundary_sit"))
    diag_plans = [plan_diagnostic(view, chain, "U_minus_half_L")] if reflecting else []
    diag_plans.append(plan_diagnostic(view, chain, "discounted_price_drift"))
    # one stream-7 batch feeds the strategies, the diagnostics, the payoff
    # histogram, the discarded count and the path dump; each plan reads its
    # own accumulators (hit level, position table, boundary occupation, residual)
    accumulators = {k: v for p in plans + diag_plans for k, v in p.accumulators.items()}
    batch = sample_paths(chain, args.paths, args.seed, T, stream=7, **accumulators)
    evaluated = [evaluate_strategy(batch, p) for p in plans]
    strategies = [res for res, _ in evaluated]
    diagnostics = [evaluate_diagnostic(batch, p) for p in diag_plans]
    tr = estimate_tradeoff(view, spec, base_grid=max(64, args.grid // 4), levels=args.levels)

    report = {
        "model_id": label,
        "r": spec.r,
        "horizon": T,
        "seed": args.seed,
        "grid": args.grid,
        "n_paths": args.paths,
        "discarded_paths": int(batch.discarded.sum()),
        "tradeoff": {
            "grid_sizes": list(tr.grid_sizes),
            "estimates": list(tr.estimates),
            "ratios": list(tr.ratios),
            "divergence": tr.divergence,
        },
        "strategies": [
            {
                "name": s.name,
                "n_used": s.n_used,
                "mean": s.mean,
                "se": s.se,
                "min_payoff": s.min_payoff,
                "frac_positive": s.frac_positive,
                "wilson95": [s.wilson_low, s.wilson_high],
                "grid_step": s.grid_step,
            }
            for s in strategies
        ],
        "diagnostics": [
            {
                "target": d.target,
                "t_stat": d.t_stat,
                "mean": d.mean,
                "se": d.se,
                "n_samples": d.n_samples,
                "pass": bool(d.passes()),
            }
            for d in diagnostics
        ],
    }
    out_dir = Path(args.out)
    _write_json(out_dir / f"simulate_{label}.json", report)

    _write_csv(
        out_dir / f"kladder_{label}.csv",
        ["grid_size", "K_estimate", "ratio_to_previous"],
        [
            [n, k, tr.ratios[i - 1] if i > 0 else ""]
            for i, (n, k) in enumerate(zip(tr.grid_sizes, tr.estimates))
        ],
    )

    if strategies:
        pay = _payoff_histogram(evaluated[0][1])
        _write_csv(out_dir / f"payoffs_{label}.csv", ["bin_left", "bin_right", "count"], pay)

    if args.dump_paths:
        rows = [
            [
                i,
                float(chain.grid[batch.terminal_state[i]]),
                float(chain.q_grid[batch.terminal_state[i]]),
                int(batch.discarded[i]),
            ]
            for i in range(batch.n_paths)
        ]
        _write_csv(out_dir / f"paths_{label}.csv", ["path", "terminal_u", "terminal_value", "discarded"], rows)

    print(
        f"{label}: K ladder {['%.4g' % k for k in tr.estimates]} "
        f"divergence={tr.divergence}; discarded={report['discarded_paths']}"
    )
    for d in report["diagnostics"]:
        print(f"  diagnostic {d['target']}: t = {d['t_stat']:.2f} ({'ok' if d['pass'] else 'FAIL'})")
    for s in report["strategies"]:
        print(
            f"  strategy {s['name']}: mean {s['mean']:.4g} se {s['se']:.3g} "
            f"min {s['min_payoff']:.4g} P(>0) CI [{s['wilson95'][0]:.3g}, {s['wilson95'][1]:.3g}]"
        )
    print(f"reports in {out_dir}")
    return 0


def _payoff_histogram(pay: np.ndarray) -> list[list]:
    """40-bin histogram rows over the payoff range."""
    lo, hi = float(pay.min()), float(pay.max())
    if hi <= lo:
        hi = lo + 1.0
    counts, edges = np.histogram(pay, bins=40, range=(lo, hi))
    return [[float(edges[i]), float(edges[i + 1]), int(counts[i])] for i in range(40)]


# ---------------------------------------------------------------------------
# catalog / report
# ---------------------------------------------------------------------------


def cmd_catalog(args) -> int:
    action, name = args.action, args.name
    if action == "list":
        for n in catalog_names():
            entry = CATALOG[n]
            params = ", ".join(f"{k}={v[0]}" for k, v in entry.params.items())
            print(f"{n}: {params}")
        return 0
    if name is None or name not in CATALOG:
        print(f"error: unknown catalog model {name!r}", file=sys.stderr)
        return 1
    entry = CATALOG[name]
    print(f"name: {entry.name}")
    print("params:")
    for k, (default, rng) in entry.params.items():
        print(f"  {k}: default {default}, range {rng}")
    print(f"notes: {entry.rationale}")
    return 0


def cmd_report(args) -> int:
    out_dir = Path(args.out)
    rows = []
    classified = sorted(out_dir.glob("classify_*.json"))
    simulated = {p.name.replace("simulate_", ""): p for p in out_dir.glob("simulate_*.json")}
    if not classified and not simulated:
        print(f"error: no prior outputs in {out_dir}", file=sys.stderr)
        return 1
    for path in classified:
        with open(path) as fh:
            rep = json.load(fh)
        row = {
            "model_id": rep["model_id"],
            "r": rep["r"],
            "nip": rep["nip"],
            "nsa": rep["nsa"],
            "nupbr": rep["nupbr"],
            "rp": rep["rp"],
            "k_divergence": "",
            "arbitrage_detected": "",
            "diagnostics_ok": "",
        }
        sim_path = simulated.get(path.name.replace("classify_", ""))
        if sim_path is not None:
            with open(sim_path) as fh:
                sim = json.load(fh)
            row["k_divergence"] = sim["tradeoff"]["divergence"]
            pos = [s for s in sim["strategies"] if s["name"].startswith("post_hitting_hold")]
            if pos:
                row["arbitrage_detected"] = pos[0]["wilson95"][0] > 0
            row["diagnostics_ok"] = all(d["pass"] for d in sim["diagnostics"])
        rows.append(row)

    header = ["model_id", "r", "nip", "nsa", "nupbr", "rp", "k_divergence", "arbitrage_detected", "diagnostics_ok"]
    _write_csv(out_dir / "report_table.csv", header, [[row[h] for h in header] for row in rows])
    widths = {h: max([len(h)] + [len(str(row[h])) for row in rows]) for h in header}
    print("  ".join(h.ljust(widths[h]) for h in header))
    for row in rows:
        print("  ".join(str(row[h]).ljust(widths[h]) for h in header))

    # summary grid: which notions admit reflecting boundaries, by rate regime
    print()
    print("summary (reflecting boundaries admitted among these rows):")
    refl = [r_ for r_ in rows if r_["model_id"].startswith(("sticky_reflected", "squared_bessel"))]
    for regime, sel in (("r = 0", lambda r_: r_["r"] == 0), ("r != 0", lambda r_: r_["r"] != 0)):
        hits = [r_ for r_ in refl if sel(r_)]
        cells = []
        for notion in ("nip", "nsa", "nupbr"):
            ok = any(r_[notion] == "holds" for r_ in hits)
            cells.append(f"{notion.upper()}: {'possible' if ok else 'not seen'}")
        print(f"  {regime:7s} " + " | ".join(cells))
    print(f"table: {out_dir / 'report_table.csv'}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except (SpecValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        rc = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left (``| head``): drop what is still buffered
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
