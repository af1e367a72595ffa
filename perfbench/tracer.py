"""Layer timing from outside the program.

The tracer replaces each listed public function with a timing wrapper
wherever a caller looks it up: in the defining module, in every lacvar
module that imported the name (`lacvar.harness.variation_at`,
`lacvar.cli.write_function_csv`, the package namespace, ...), and on the
class for methods.  `restore()` puts the originals back.

Each call is a span (name, start, end, parent, thread).  Self time is the
span minus the time covered by the spans it directly encloses.  Every call
is folded into a per-name aggregate (calls, total, self); individual spans
are kept only for the first SPAN_CAP calls of a name per pass, because some
entries are very frequent (`indicator_identity` runs 36,864 times a pass)
and storing each would cost more than the wrapper itself.

Spans nest per thread, but the aggregates take no lock: the benchmark
traces at LACVAR_THREADS=1, where every call runs on one thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

from lacvar.harness import SCENARIO_KINDS

SPAN_CAP = 1000


def _level_points(a, result, dur):
    return {"avgops.level_points": int(np.size(a["x"])) * (a["spec"].k_max + 1)}


def _bmo_intervals(a, result, dur):
    return {"gridfn.bmo_norm.intervals": len(a["family"])}


def _csv_rows(a, result, dur):
    return {"gridfn.write_function_csv.rows": a["f"].n}


def _weight_intervals(a, result, dur):
    return {"weights.intervals": len(a["family"])}


def _xi_scale_evals(a, result, dur):
    return {"fourier.xi_scale_evals": int(np.size(a["xi"])) * (a["k_max"] + 1)}


def _scenario(a, result, dur):
    return {"harness.cases": len(result.cases), f"harness.kind_s.{a['sc'].kind}": dur}


# Work counts the counters above produce; they read 0 when nothing was called.
COUNTS = (
    "avgops.level_points",
    "gridfn.bmo_norm.intervals",
    "gridfn.write_function_csv.rows",
    "weights.intervals",
    "fourier.xi_scale_evals",
    "harness.cases",
)

# (span name, defining module, attribute, work counter or None)
TARGETS = (
    ("avgops.variation_at", "lacvar.avgops", "variation_at", _level_points),
    ("avgops.scale_stack_at", "lacvar.avgops", "scale_stack_at", None),
    ("avgops.vector_variation", "lacvar.avgops", "vector_variation", None),
    ("gridfn.antiderivative_edges", "lacvar.gridfn", "GridFunction.antiderivative_edges", None),
    ("gridfn.bmo_norm", "lacvar.gridfn", "bmo_norm", _bmo_intervals),
    ("gridfn.make_dyadic_family", "lacvar.gridfn", "make_dyadic_family", None),
    ("gridfn.make_family", "lacvar.gridfn", "make_family", None),
    ("gridfn.lp_norm", "lacvar.gridfn", "lp_norm", None),
    ("gridfn.write_function_csv", "lacvar.gridfn", "write_function_csv", _csv_rows),
    ("gridfn.read_function_csv", "lacvar.gridfn", "read_function_csv", None),
    ("weights.ap_constant", "lacvar.weights", "ap_constant", _weight_intervals),
    ("weights.a1_constant", "lacvar.weights", "a1_constant", _weight_intervals),
    ("fourier.multiplier_sums", "lacvar.fourier", "multiplier_sums", _xi_scale_evals),
    ("kernel.drlem_check", "lacvar.kernel", "drlem_check", None),
    ("kernel.shell_integrals", "lacvar.kernel", "shell_integrals", None),
    ("kernel.indicator_identity", "lacvar.kernel", "indicator_identity", None),
    ("lacunary.refine", "lacvar.lacunary", "refine", None),
    ("lacunary.parse_sequence", "lacvar.lacunary", "parse_sequence", None),
    ("harness.run_scenario", "lacvar.harness", "run_scenario", _scenario),
    ("harness.weak_sup", "lacvar.harness", "weak_sup", None),
    ("harness.emit_report", "lacvar.harness", "emit_report", None),
    ("cli.main", "lacvar.cli", "main", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.agg: dict[str, list] = {}
        self.counts: defaultdict[str, float] = defaultdict(int)
        self._kept: Counter = Counter()
        self._dropped: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, counter):
        sig = inspect.signature(fn) if counter else None
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            frame = [next(self._ids), 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                if self._kept[name] < SPAN_CAP:
                    self._kept[name] += 1
                    self.spans.append((frame[0], name, start, end, parent, threading.get_ident()))
                else:
                    self._dropped[name] += 1
            if counter is not None:
                for key, val in counter(sig.bind(*args, **kwargs).arguments, result, dur).items():
                    self.counts[key] += val
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "lacvar" or n.startswith("lacvar.")]
        for name, module, attr, counter in TARGETS:
            owner = importlib.import_module(module)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(name, original, counter))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counter)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def begin_pass(self) -> None:
        for agg in self.agg.values():
            agg[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self._kept.clear()

    def pass_metrics(self) -> dict[str, float]:
        """Per-name calls, inclusive and self seconds, plus work counts and
        the rates derived from them, for the pass since `begin_pass`."""
        m: dict[str, float] = dict.fromkeys(COUNTS, 0)
        m.update((f"harness.kind_s.{kind}", 0.0) for kind in SCENARIO_KINDS)
        for name, (calls, total, self_s) in self.agg.items():
            m[f"{name}.calls"] = calls
            m[f"{name}.total_s"] = total
            m[f"{name}.self_s"] = self_s
        m.update(self.counts)

        def rate(time_name: str, count_name: str, unit: float) -> float:
            n = m.get(count_name, 0)
            return m[time_name] / n * unit if n else 0.0

        m["avgops.ns_per_level_point"] = rate("avgops.variation_at.total_s", "avgops.level_points", 1e9)
        m["gridfn.us_per_bmo_interval"] = rate("gridfn.bmo_norm.total_s", "gridfn.bmo_norm.intervals", 1e6)
        m["fourier.ns_per_xi_scale_eval"] = rate(
            "fourier.multiplier_sums.total_s", "fourier.xi_scale_evals", 1e9
        )
        m["trace.self_s"] = sum(a[2] for a in self.agg.values())
        return m

    def dump(self) -> dict:
        return {
            "columns": ["id", "name", "start", "end", "parent", "thread"],
            "spans": self.spans,
            "dropped_spans": dict(self._dropped),
        }
