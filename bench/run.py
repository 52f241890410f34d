#!/usr/bin/env python3
"""diffarb benchmark: three workloads timed end to end, or traced per module.

    python3 bench/run.py --workload catalog_classify --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from the repository root. Every operation is one user command,
``diffarb classify`` or ``diffarb simulate``, invoked in-process through
``diffarb.cli_app.main`` on inputs generated from ``--seed``. Every output
is checked. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-module metrics with ``--trace 1``.
See bench/README.md for the workloads and metrics.
"""

import os

# One thread for every BLAS/OpenMP pool; set before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import bisect
import contextlib
import hashlib
import importlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
OUT = WORK / "out"
DOCS = WORK / "docs"
DIGESTS = WORK / "simulate_digests.json"

sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from spans import DECIDERS, MODULES, Tracer  # noqa: E402

WORKLOADS = ("catalog_classify", "docs_classify", "simulate_readme")
SETUP_REPEATS = 5
CAL_REF_MS = 1.7  # reference time of the calibration kernel
CAL_WINDOW_S = 1.0  # host speed of an operation: kernel times within this of it
CAL_SHARE = 0.1  # the kernel runs this share of the operations' time
CAL_LEAD_S = 0.5  # and this long before the first operation
ORDER = {"holds": 2, "inconclusive": 1, "fails": 0}
P90_MIN_SAMPLES = 100  # a p90 needs ten samples beyond it


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    label: str
    seconds: float
    result: object  # verdict tuple or output digest; None when the command failed
    failed: bool = False  # raised, exit code 1, or an output check failed
    bad_output: bool = False  # an output check failed
    wrong: bool = False  # a definite verdict contradicts the expected one
    inconclusive: bool = False
    defect: str = ""  # the known defect the failure matches
    note: str = ""
    span: tuple = ()  # perf_counter at the start and end of the operation
    scaled: float = 0.0  # seconds at the reference host speed


# Defects of the program that the generated inputs reach. A generated input
# that reproduces one (``Workload.screen``) is reported by name, set aside
# and drawn again, so that the timed operations do not fail on it. A failure
# of a timed operation that matches one is counted and reported with its
# base; a wrong output that matches none makes the run incorrect. When the
# program is fixed, the reports stop and the entry can go.
KNOWN_DEFECTS = {
    "kink_inverse": "KinkMismatchError: without inverse_scale, the numeric inverse of a "
    "piecewise-affine scale lands one ulp past a kink",
    "nsa_window": "NSA fails on a generic window: the windows around the start image are "
    "not clipped to the open image interval, so a start within 0.5 of a finite boundary "
    "pulls the boundary's singularity into one",
}


def known_defect(error: str, report: Optional[dict], expected: tuple) -> str:
    if "disagrees with derivatives" in error:
        return "kink_inverse"
    if report is not None and expected[1] == "holds" and report["nsa"] == "fails" and any(
        c["id"] == "NSA.iv.loc" and c["status"] == "fail" and "generic window" in c["note"]
        for c in report["reports"]
    ):
        return "nsa_window"
    return ""


def invoke(argv: list[str]) -> tuple[Optional[int], float, str]:
    """One user command through ``cli_app.main``: exit code (None when it
    raised), wall seconds, and the first line of its error output."""
    cli_app = sys.modules["diffarb.cli_app"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli_app.main(argv)
        except Exception:
            rc = None
            traceback.print_exc(file=err)
        dt = time.perf_counter() - t0
    lines = err.getvalue().strip().splitlines() or [""]
    # a traceback ends with the exception; the command's own message comes first
    return rc, dt, lines[-1] if rc is None else lines[0]


def check_verdict(label: str, rc, dt: float, note: str, expected: tuple) -> Outcome:
    if rc not in (0, 2):
        return Outcome(label, dt, None, failed=True, defect=known_defect(note, None, expected),
                       note=note or f"exit code {rc}")
    rep = json.loads((OUT / f"classify_{label}.json").read_text())
    got = (rep["nip"], rep["nsa"], rep["nupbr"], rep["rp"])
    wrong = any(g != e for g, e in zip(got, expected) if g != "inconclusive")
    problems = [f"got {got}, expected {expected}"] if wrong else []
    if not ORDER[got[2]] <= ORDER[got[1]] <= ORDER[got[0]]:
        problems.append(f"implication order violated: {got}")
    return Outcome(label, dt, got, failed=bool(problems), bad_output=bool(problems), wrong=wrong,
                   inconclusive="inconclusive" in got[:3],
                   defect=known_defect("", rep, expected) if problems else "", note="; ".join(problems))


class Workload:
    """Inputs of one workload and the operation that runs one of them."""

    name = ""
    max_ops: Optional[int] = None  # stop after this many operations even before the time is up
    scaled = True  # report times at the reference host speed (see Calibration)

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs: list = []  # the first pass over the workload
        self.set_aside: list[tuple[str, str]] = []  # (label, known defect) of rejected draws

    def generate(self) -> None:
        self.set_aside = []
        self.inputs = self.make_pass(0)

    def make_pass(self, pass_no: int) -> list:
        """The inputs of one pass; every pass draws fresh numbers."""
        raise NotImplementedError

    def screen(self, item) -> str:
        """The known defect ``item`` reproduces, or ""."""
        return ""

    def _reject(self, item) -> str:
        defect = self.screen(item)
        if defect:
            self.set_aside.append((item.label, defect))
        return defect

    def warmup_item(self):
        return self.inputs[0]

    def run(self, item) -> Outcome:
        raise NotImplementedError


class CatalogClassify(Workload):
    name = "catalog_classify"

    def make_pass(self, pass_no: int) -> list:
        return workloads.catalog_inputs(self.seed, pass_no, reject=self._reject)

    def screen(self, c) -> str:
        # nsa_window can only strike an absorbed generalised squared Bessel
        # whose start image x0**-nu lies near the boundary image 0; run
        # those draws once and set aside the ones that fail with it
        p = workloads.parse_params(c.params)
        if c.name == "gen_squared_bessel" and math.isinf(p["m0"]) and p["x0"] ** -p["nu"] < 1:
            o = self.run(c)
            return o.defect if o.failed else ""
        return ""

    def run(self, c) -> Outcome:
        from diffarb.model_catalog import expected_verdict

        e = expected_verdict(c.name, workloads.parse_params(c.params))
        argv = ["classify", "--catalog", c.name, "--params", c.params, "--out", str(OUT), "--id", c.label]
        rc, dt, note = invoke(argv)
        return check_verdict(c.label, rc, dt, note, (e.nip, e.nsa, e.nupbr, e.rp))


class DocsClassify(Workload):
    name = "docs_classify"

    def make_pass(self, pass_no: int) -> list:
        inputs = workloads.doc_inputs(self.seed, pass_no, reject=self._reject)
        DOCS.mkdir(parents=True, exist_ok=True)
        for d in inputs:
            (DOCS / f"{d.label}.json").write_text(json.dumps(d.doc, indent=1))
        return inputs

    def screen(self, d) -> str:
        # kink_inverse is raised while the natural scale is derived, before
        # any decider runs, so deriving it is enough to find the documents
        # that reproduce it
        if d.family != "skew":
            return ""
        dm = sys.modules["diffarb.diffusion_model"]
        try:
            dm.derive_natural_scale(dm.load_model_spec(d.doc))
        except sys.modules["diffarb.measure_kit"].KinkMismatchError:
            return "kink_inverse"
        return ""

    def run(self, d) -> Outcome:
        argv = ["classify", "--model", str(DOCS / f"{d.label}.json"), "--out", str(OUT)]
        rc, dt, note = invoke(argv)
        return check_verdict(d.label, rc, dt, note, (d.expected,) * 3 + (workloads.HOLDS,))


def _finite_numbers(obj) -> bool:
    if isinstance(obj, dict):
        return all(_finite_numbers(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite_numbers(v) for v in obj)
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True


class SimulateReadme(Workload):
    name = "simulate_readme"
    LABEL = "sticky_reflected_bm"
    max_ops = 1  # the README command alone runs about as long as a run
    # the host speed is measured between operations; before and after one
    # that lasts half a minute, it does not say how fast the host ran
    # during it, so this command's time is reported raw
    scaled = False

    def make_pass(self, pass_no: int) -> list:
        return [False]  # the README command; True is the small warm-up

    def warmup_item(self):
        return True

    def run(self, warmup: bool) -> Outcome:
        rc, dt, note = invoke(workloads.simulate_args(self.seed, str(OUT), warmup=warmup))
        if rc != 0:
            return Outcome("simulate", dt, None, failed=True, note=note or f"exit code {rc}")
        files = [OUT / f"{stem}_{self.LABEL}.{ext}" for stem, ext in
                 (("simulate", "json"), ("kladder", "csv"), ("payoffs", "csv"))]
        digest = hashlib.sha256(b"".join(p.read_bytes() for p in files)).hexdigest()
        report = json.loads(files[0].read_text())
        problems = []
        if not _finite_numbers(report):
            problems.append("a report number is not finite")
        diags = report["diagnostics"]
        if len(diags) != 2 or not all(abs(d["t_stat"]) < 3 for d in diags):
            problems.append(f"martingale diagnostics {[(d['target'], d['t_stat']) for d in diags]}")
        if not warmup:
            seen = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
            if seen.setdefault(str(self.seed), digest) != digest:
                problems.append(f"seed {self.seed}: report differs from an earlier run with this seed")
            DIGESTS.write_text(json.dumps(seen, indent=1, sort_keys=True))
        return Outcome("simulate", dt, digest, failed=bool(problems), bad_output=bool(problems), note="; ".join(problems))


WORKLOAD_CLASSES = {cls.name: cls for cls in (CatalogClassify, DocsClassify, SimulateReadme)}


# ---------------------------------------------------------------------------
# set-up, machine record, statistics
# ---------------------------------------------------------------------------


def fresh_import_seconds() -> float:
    """Interpreter start plus ``import diffarb.cli_app``, in a new process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import diffarb.cli_app"], env=env, check=True, timeout=120)
    return time.perf_counter() - t0


def setup(wl: Workload) -> list[float]:
    """Set the workload up ``SETUP_REPEATS`` times: import in a fresh
    interpreter, generate the inputs, run one untimed warm-up operation."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(WORK / "out", ignore_errors=True)
        shutil.rmtree(DOCS, ignore_errors=True)
        t0 = time.perf_counter()
        fresh_import_seconds()
        wl.generate()
        wl.run(wl.warmup_item())
        times.append(time.perf_counter() - t0)
    return times


def calibration_kernel() -> None:
    """A fixed numpy task, elementwise arithmetic and a sort over 20 000
    points, that uses no code of the program."""
    x = np.linspace(0.0, 1.0, 20_000)
    for _ in range(10):
        x = np.sort(np.sqrt(x * x + 1.0) - 0.5)


class Calibration:
    """Times of the calibration kernel, taken between operations.

    The host is shared, and its speed drifts by a fifth or more within a
    minute. The kernel runs between operations for a tenth of their time,
    and the median of its times in the seconds around an operation says how
    fast the host ran then. Operation times are reported scaled to the
    reference speed ``CAL_REF_MS``, so that the drift of the host does not
    read as a change of the program.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.times: list[float] = []
        self.total = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        calibration_kernel()
        dt = time.perf_counter() - t0
        self.starts.append(t0)
        self.times.append(dt)
        self.total += dt

    def sample_for(self, seconds: float) -> None:
        t_end = time.perf_counter() + seconds
        while time.perf_counter() < t_end:
            self.sample()

    def top_up(self, op_seconds: float) -> None:
        """Sample until the kernel has run ``CAL_SHARE`` of ``op_seconds``."""
        while self.total < CAL_SHARE * op_seconds:
            self.sample()

    def median_ms(self) -> float:
        return 1000 * statistics.median(self.times)

    def factor(self, start: float, end: float) -> float:
        """Multiply the time of an operation that ran from ``start`` to
        ``end`` by this to get its time at the reference speed."""
        lo = bisect.bisect_left(self.starts, start - CAL_WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + CAL_WINDOW_S)
        return CAL_REF_MS / (1000 * statistics.median(self.times[lo:hi] or self.times))


def calibration_ms() -> float:
    cal = Calibration()
    cal.sample_for(0.2)
    return cal.median_ms()


def machine_record() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "calibration_ms": round(calibration_ms(), 3),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile_ms(outcomes: list[Outcome], q: float, scaled: bool = False) -> Optional[float]:
    """Latency percentile, interpolated as numpy's default does, of the raw
    times or of the times at the reference host speed. A failed operation
    counts as slower than any success; None when the percentile lands on a
    failure."""
    n_failed = sum(o.failed for o in outcomes)
    vals = sorted(o.scaled if scaled else o.seconds for o in outcomes if not o.failed) + [math.inf] * n_failed
    pos = q * (len(vals) - 1)
    lo = math.floor(pos)
    v = vals[lo] if pos == lo else vals[lo] + (pos - lo) * (vals[lo + 1] - vals[lo])
    return 1000 * v if math.isfinite(v) else None


def measure(wl: Workload, seconds: float) -> tuple[list[Outcome], Calibration, float]:
    """Operations over fresh passes of inputs until ``seconds`` have been
    measured, with the calibration kernel timed between them."""
    cal = Calibration()
    if wl.scaled:
        cal.sample_for(CAL_LEAD_S)
    outcomes: list[Outcome] = []
    op_seconds = 0.0
    items, pass_no = wl.inputs, 0
    t0 = time.perf_counter()
    while True:
        for item in items:
            start = time.perf_counter()
            o = wl.run(item)
            o.span = (start, time.perf_counter())
            outcomes.append(o)
            op_seconds += o.seconds
            if wl.scaled:
                cal.top_up(op_seconds)
            if time.perf_counter() - t0 >= seconds or len(outcomes) == wl.max_ops:
                wall = time.perf_counter() - t0
                for done in outcomes:
                    done.scaled = done.seconds * cal.factor(*done.span) if wl.scaled else done.seconds
                return outcomes, cal, wall
        pass_no += 1
        items = wl.make_pass(pass_no)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def failure_summary(outcomes: list[Outcome]) -> dict[str, int]:
    notes: dict[str, int] = {}
    for o in outcomes:
        if o.failed:
            key = f"known defect {o.defect}: {o.note}" if o.defect else f"{o.label}: {o.note}"
            notes[key] = notes.get(key, 0) + 1
    return notes


def end_to_end(wl: Workload, setups: list[float], outcomes: list[Outcome], cal: Calibration) -> tuple[dict, list[str]]:
    """The gated metrics, and the report lines of every end-to-end metric.

    Times of operations are scaled to the reference speed of the host; the
    failure rates are over every attempted operation."""
    n = len(outcomes)
    n_failed = sum(o.failed for o in outcomes)
    ok = [o for o in outcomes if not o.failed]
    rate = len(ok) / sum(o.scaled for o in ok) if ok else 0.0
    raw_rate = len(ok) / sum(o.seconds for o in ok) if ok else 0.0
    p50 = percentile_ms(outcomes, 0.5, scaled=True)
    raw_p50 = percentile_ms(outcomes, 0.5)
    # the typical latency over the mix: unlike the median, it does not jump
    # between the clusters of cheap and costly inputs as the host jitters
    gmean = 1000 * statistics.geometric_mean(o.scaled for o in ok) if ok else None
    raw_gmean = 1000 * statistics.geometric_mean(o.seconds for o in ok) if ok else None
    gated = {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(rate, "1/s"),
        "op_gmean_ms": metric(gmean, "ms"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    if gmean is None:
        del gated["op_gmean_ms"]

    def ms(v):
        return f"{v:10.4f}" if v is not None else f"{math.nan:10.4f}"

    if wl.scaled:
        speed = (f"host speed: calibration kernel median {cal.median_ms():.4f} ms over {len(cal.times)} samples, "
                 f"reference {CAL_REF_MS} ms; times are at the reference speed, raw times in brackets")
    else:
        speed = "host speed: not measured; times are raw"
    lines = [
        speed,
        f"setup_s            {statistics.median(setups):10.4f} s     (median of {len(setups)} set-ups, raw)",
    ]
    basis = f"{n} operations"
    if wl.name == "simulate_readme":
        lines.append(f"simulate_s         {outcomes[0].scaled:10.4f} s     [{outcomes[0].seconds:.4f}]")
    else:
        lines.append(f"models_per_s       {rate:10.4f} models/s [{raw_rate:.4f}] ({len(ok)} of {basis})")
        lines.append(f"classify_gmean_ms  {ms(gmean)} ms    [{ms(raw_gmean).strip()}] ({len(ok)} of {basis})")
        lines.append(f"classify_p50_ms    {ms(p50)} ms    [{ms(raw_p50).strip()}] ({basis})")
        if n >= P90_MIN_SAMPLES:
            p90, raw_p90 = percentile_ms(outcomes, 0.9, scaled=True), percentile_ms(outcomes, 0.9)
            lines.append(f"classify_p90_ms    {ms(p90)} ms    [{ms(raw_p90).strip()}] ({basis})")
        else:
            lines.append(f"classify_p90_ms    not reported: {n} operations < {P90_MIN_SAMPLES}")
    lines.append(f"error_rate         {n_failed / n:10.4f}       ({n_failed}/{n} operations)")
    if wl.name != "simulate_readme":
        n_wrong = sum(o.wrong for o in outcomes)
        n_inc = sum(o.inconclusive for o in outcomes)
        lines.append(f"wrong_verdict_rate {n_wrong / n:10.4f}       ({n_wrong}/{n} operations)")
        lines.append(f"inconclusive_rate  {n_inc / n:10.4f}       ({n_inc}/{n} operations)")
    lines.append(f"peak_rss_mb        {peak_rss_mb():10.3f} MB")
    for note, count in sorted(failure_summary(outcomes).items()):
        lines.append(f"failure x{count}: {note}")
    for name in sorted({o.defect for o in outcomes if o.defect}):
        k = sum(o.defect == name for o in outcomes)
        lines.append(f"known defect {name}: {k}/{n} operations; {KNOWN_DEFECTS[name]}")
    return gated, lines


def per_layer(tr, overhead_s: float) -> tuple[dict, list[str]]:
    """The traced metrics of each module, named after the function they time."""
    m: dict[str, dict] = {}

    def put(name, value, unit):
        m[name] = metric(value, unit)

    inv = tr.stat("measure_kit.invert_monotone_vec")
    put("measure_kit.invert_monotone_vec.calls", inv.calls, "count")
    put("measure_kit.invert_monotone_vec.points", tr.inv_points, "count")
    put("measure_kit.invert_monotone_vec.self_s", inv.self, "s")
    put("measure_kit.invert_monotone_vec.ns_per_point", 1e9 * inv.self / tr.inv_points if tr.inv_points else 0.0, "ns")
    put("measure_kit.invert_monotone_vec.repeat_share", tr.inv_repeats / tr.inv_points if tr.inv_points else 0.0, "share")
    for name in (*DECIDERS, "gl_fixed"):
        st = tr.stat(f"measure_kit.{name}")
        put(f"measure_kit.{name}.calls", st.calls, "count")
        put(f"measure_kit.{name}.self_s", st.self, "s")
    n_verdicts = len(tr.verdicts)
    n_numeric = sum(method == "numeric-refinement" for _, method, _ in tr.verdicts)
    put("measure_kit.decide.numeric_share", n_numeric / n_verdicts if n_verdicts else 0.0, "share")
    put("measure_kit.decide.inconclusive", sum(status == "inconclusive" for *_, status in tr.verdicts), "count")
    put("measure_kit.pushforward.self_s", tr.stat("measure_kit.pushforward").self, "s")
    for name in ("load_model_spec", "derive_natural_scale", "classify_boundary", "check_semimartingale_assumption"):
        put(f"diffusion_model.{name}.self_ms", 1000 * tr.stat(f"diffusion_model.{name}").self, "ms")
    for name in ("check_nip", "check_nsa", "check_nupbr", "check_rp", "classify"):
        put(f"arb_classifier.{name}.self_ms", 1000 * tr.stat(f"arb_classifier.{name}").self, "ms")
    put("model_catalog.build_model.ms", 1000 * tr.stat("model_catalog.build_model").total, "ms")

    calls = tr.sample_calls
    sp = tr.stat("mc_engine.sample_paths")
    jumps = sum(c["path_jumps"] for c in calls)
    paths = sum(c["n_paths"] for c in calls)
    put("mc_engine.sample_paths.calls", sp.calls, "count")
    put("mc_engine.sample_paths.self_s", sp.self, "s")
    put("mc_engine.sample_paths.path_jumps", jumps, "count")
    put("mc_engine.sample_paths.ns_per_jump", 1e9 * sp.self / jumps if jumps else 0.0, "ns")
    put("mc_engine.sample_paths.unique_share", sum(c["unique"] for c in calls) / len(calls) if calls else 0.0, "share")
    put("mc_engine.sample_paths.discarded_share", sum(c["discarded"] for c in calls) / paths if paths else 0.0, "share")
    for name in ("build_chain", "estimate_tradeoff", "run_strategy", "martingale_diagnostic", "gamma_drift_rates"):
        put(f"mc_engine.{name}.s", tr.stat(f"mc_engine.{name}").total, "s")
    for name in ("cmd_classify", "cmd_simulate"):
        put(f"cli_app.{name}.self_ms", 1000 * tr.stat(f"cli_app.{name}").self, "ms")
    for layer, self_s in tr.layer_self_s().items():
        put(f"layer.{layer}.self_s", self_s, "s")
    put("trace.overhead_s", overhead_s, "s")

    lines = ["self time by module:"]
    for layer, self_s in sorted(tr.layer_self_s().items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:16s} {self_s:10.4f} s")
    lines.append("largest self times:")
    top = sorted(tr.stats.items(), key=lambda kv: -kv[1].self)[:8]
    for key, st in top:
        lines.append(f"  {key:50s} {st.self:10.4f} s  {st.calls:7d} calls")
    if calls:
        lines.append("sample_paths calls by caller and (paths, grid states):")
        groups: dict[tuple, list] = {}
        for c in calls:
            groups.setdefault((c["caller"], c["n_paths"], c["grid_states"]), []).append(c)
        for (caller, n_paths, states), cs in sorted(groups.items()):
            s = sum(c["self_s"] for c in cs)
            j = sum(c["path_jumps"] for c in cs)
            lines.append(
                f"  {caller:24s} paths {n_paths:6d} states {states:5d}: {len(cs)} calls, {s:8.3f} s, "
                f"{j:.4g} jumps, {1e9 * s / j if j else 0.0:6.1f} ns/jump, unique {sum(c['unique'] for c in cs)}/{len(cs)}"
            )
    return m, lines


# ---------------------------------------------------------------------------
# running a workload
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    wl = WORKLOAD_CLASSES[name](seed)
    machine = machine_record()
    setups = setup(wl)
    print(f"== {name} (seed {seed}, {'traced' if traced else 'untraced'})")
    print("machine " + json.dumps(machine))
    if not traced:
        outcomes, cal, wall = measure(wl, seconds)
        metrics, lines = end_to_end(wl, setups, outcomes, cal)
        correct = not any(o.bad_output and not o.defect for o in outcomes)
    else:
        t0 = time.perf_counter()
        plain = [wl.run(item) for item in wl.inputs]
        plain_wall = time.perf_counter() - t0
        tr = Tracer({m: importlib.import_module(f"diffarb.{m}") for m in MODULES})
        tr.install()
        outcomes = []
        t0 = time.perf_counter()
        try:
            for item in wl.inputs:
                tr.start_op()
                outcomes.append(wl.run(item))
        finally:
            tr.uninstall()
        wall = time.perf_counter() - t0
        same = [p.result == o.result for p, o in zip(plain, outcomes)]
        metrics, lines = per_layer(tr, wall - plain_wall)
        lines.insert(0, f"traced pass {wall:.3f} s, untraced pass {plain_wall:.3f} s, overhead {wall - plain_wall:.3f} s")
        lines.append(f"traced outputs equal untraced outputs: {sum(same)}/{len(same)}")
        correct = all(same) and not any(o.bad_output and not o.defect for o in outcomes + plain)
        tr.write(WORK / f"trace_{name}_seed{seed}.json", {"workload": name, "seed": seed, "machine": machine})
    print(f"measured {wall:.3f} s, {len(outcomes)} operations; calibration after {calibration_ms():.3f} ms")
    for line in lines:
        print("  " + line)
    for defect in sorted({d for _, d in wl.set_aside}):
        labels = [lab for lab, d in wl.set_aside if d == defect]
        print(f"  known defect {defect}: reproduced by {len(labels)} generated inputs, set aside and drawn again "
              f"({', '.join(labels)}); {KNOWN_DEFECTS[defect]}")
    return {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    # the program under test is the checkout's own source, never an installed copy
    if not (SRC / "diffarb" / "cli_app.py").is_file():
        print(f"error: no diffarb sources under {SRC}", file=sys.stderr)
        return 1
    importlib.import_module("diffarb.cli_app")
    WORK.mkdir(parents=True, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
