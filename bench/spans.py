"""In-memory span tracer for the diffarb modules.

``Tracer.install`` wraps every public function of the six modules and
rebinds the wrapper in every module namespace that holds the original, so
calls made through any of those names (``sample_paths`` from ``mc_engine``
and from ``cli_app``, ``invert_monotone_vec`` from ``measure_kit``,
``diffusion_model`` and ``model_catalog``) open a span. Spans nest: each
records its parent, so a function's self time is its duration minus the
time covered by its children. Time spent in code that is not wrapped
(private helpers, methods) counts as self time of the nearest wrapped
caller.

A few functions also record counts at the same boundary: points inverted,
decider methods and statuses, and the path jumps and reuse of
``sample_paths`` calls. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from types import ModuleType

import numpy as np

MODULES = ("model_catalog", "diffusion_model", "measure_kit", "arb_classifier", "mc_engine", "cli_app")
DECIDERS = ("decide_L2_local", "decide_weighted_L2_boundary", "decide_abs_integral")


def public_functions(mod: ModuleType) -> dict:
    return {
        name: fn
        for name, fn in vars(mod).items()
        if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_")
    }


class FunctionStats:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    """Collects spans and per-function counters while installed."""

    def __init__(self, modules: dict[str, ModuleType]):
        self.modules = modules
        self.spans: list[tuple] = []  # (span id, parent id, op id, "module.function", start, end)
        self.stats: dict[str, FunctionStats] = defaultdict(FunctionStats)
        self.op = 0
        self._stack: list[list] = []  # [span id, child time]
        self._saved: list[tuple[ModuleType, str, object]] = []
        # invert_monotone_vec
        self.inv_points = 0
        self.inv_repeats = 0
        self._inverted: dict[int, set] = {}
        # deciders
        self.verdicts: list[tuple[str, str, str]] = []  # (decider, method, status)
        # sample_paths
        self.sample_calls: list[dict] = []
        self._sampled: set = set()
        self._sample_sig = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer, mod in self.modules.items():
            for name, fn in public_functions(mod).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for mod in self.modules.values():
            for name, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._saved.append((mod, name, value))
                    setattr(mod, name, wrappers[id(value)][1])
        self._sample_sig = inspect.signature(self.modules["mc_engine"].sample_paths.__wrapped__)

    def uninstall(self) -> None:
        for mod, name, value in reversed(self._saved):
            setattr(mod, name, value)
        self._saved.clear()

    def start_op(self) -> None:
        """Marks the start of one user command: a new span group, and a
        fresh record of what it inverted and sampled."""
        self.op += 1
        self._inverted.clear()
        self._sampled.clear()

    def _wrap(self, key: str, fn):
        name = key.split(".", 1)[1]
        if name in DECIDERS:
            def hook(args, kwargs, out, self_s):
                self.verdicts.append((name, out.method, out.status))
        else:
            hook = getattr(self, "_after_" + name, None)
        stack = self._stack
        spans = self.spans
        stats = self.stats[key]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                stats.calls += 1
                stats.total += dur
                stats.self += dur - frame[1]
                spans[span_id] = (span_id, parent, self.op, key, t0, t1)
            if hook is not None:
                hook(args, kwargs, out, dur - frame[1])
                # the hook's own time is tracing overhead, not the caller's self time
                if stack:
                    stack[-1][1] += clock() - t1
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    # -- counters recorded at the boundaries -------------------------------

    def _after_invert_monotone_vec(self, args, kwargs, out, self_s) -> None:
        f = args[0] if args else kwargs["f"]
        ys = args[1] if len(args) > 1 else kwargs["ys"]
        seen = self._inverted.setdefault(id(f), set())
        flat = np.atleast_1d(np.asarray(ys, float)).ravel().tolist()
        before = len(seen)
        seen.update(flat)
        self.inv_points += len(flat)
        self.inv_repeats += len(flat) - (len(seen) - before)

    def _after_sample_paths(self, args, kwargs, out, self_s) -> None:
        bound = self._sample_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        chain = a["chain"]
        fingerprint = (chain.grid.tobytes(), chain.mean_hold.tobytes(), chain.up_prob.tobytes())
        key = (fingerprint, int(a["seed"]), int(a["stream"]), int(a["n_paths"]))
        unique = key not in self._sampled
        self._sampled.add(key)
        hold = np.asarray(chain.mean_hold, float)
        finite = np.isfinite(hold) & (hold > 0)
        jumps = float(np.sum(out.occupation[finite] / hold[finite]))
        # the caller is the frame that called the wrapper
        caller = sys._getframe(2).f_code.co_name
        self.sample_calls.append(
            {
                "caller": caller,
                "n_paths": int(a["n_paths"]),
                "grid_states": int(chain.n_states),
                "stream": int(a["stream"]),
                "unique": unique,
                "self_s": self_s,
                "path_jumps": jumps,
                "discarded": int(np.sum(out.discarded)),
            }
        )

    # -- results -----------------------------------------------------------

    def stat(self, key: str) -> FunctionStats:
        return self.stats.get(key) or FunctionStats()

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in self.modules}
        for key, st in self.stats.items():
            out[key.split(".", 1)[0]] += st.self
        return out

    def write(self, path, extra: dict) -> None:
        """Writes the spans and the per-function totals as one JSON file."""
        obj = dict(extra)
        obj["functions"] = {
            k: {"calls": s.calls, "total_s": s.total, "self_s": s.self}
            for k, s in sorted(self.stats.items())
            if s.calls
        }
        obj["sample_paths_calls"] = self.sample_calls
        obj["span_fields"] = ["id", "parent", "op", "function", "start_s", "end_s"]
        obj["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(obj, fh)
