"""Span tracing of the program from outside it.

`Tracer.install` replaces each target function with a recording wrapper
at every name under which an `artifact` module holds it, which is where
callers look it up at call time. Spans (name, start, end, parent) stay in
memory until the run ends; self time is a span's duration minus the
durations of its direct children. A target the program no longer has is
recorded as absent, not as an error.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

ROOT = "bench.op"


def _distance_block(counts, args, kwargs, result):
    q, t = result.shape
    d = args[0].shape[1]
    counts["knn.distance_pairs"] += q * t
    counts["knn.distance_bytes_computed"] += 8 * (q * d + t * d + q * t)


def _ranked_neighbors(counts, args, kwargs, result):
    counts["knn.ranked_slots"] += result.shape[0] * result.shape[1]


def _queries(counts, args, kwargs, result):
    counts["knn.queries"] += len(result)


def _model_to_json(counts, args, kwargs, result):
    counts["knn.model_json_bytes"] += len(result)


def _model_from_json(counts, args, kwargs, result):
    counts["knn.model_json_bytes"] += len(args[0])


def _write_csv(counts, args, kwargs, result):
    counts["data.write_csv.bytes"] += Path(args[1]).stat().st_size


def _read_csv(counts, args, kwargs, result):
    counts["data.read_csv.rows"] += len(result)


def _simulate(counts, args, kwargs, result):
    counts["trajectories.simulate.lanes"] += result.n_traj


# (module, function, counter). The span name is "<module>.<function>".
TARGETS = (
    ("engine", "build_generator", None),
    ("counting", "steady_state", None),
    ("counting", "exchange_moment_ratios", None),
    ("counting", "cumulants", None),
    ("data", "generate", None),
    ("data", "write_csv", _write_csv),
    ("data", "read_csv", _read_csv),
    ("knn", "random_search", None),
    ("knn", "_distance_block", _distance_block),
    ("knn", "_ranked_neighbors", _ranked_neighbors),
    ("knn", "_votes_for", None),
    ("knn", "fit", None),
    ("knn", "model_to_json", _model_to_json),
    ("knn", "model_from_json", _model_from_json),
    ("knn", "predict_batch", _queries),
    ("knn", "predict_proba_batch", _queries),
    ("experiments", "run_scenario", None),
    ("experiments", "sample_scenario_features", None),
    ("metrics", "confusion_matrix", None),
    ("trajectories", "simulate", _simulate),
    ("trajectories", "compare_with_analytic", None),
    ("fdcheck", "fd_cumulants", None),
    ("cli", "main", None),
)


class Tracer:
    def __init__(self):
        self.spans = []    # [name, start, end, parent index]
        self.counts = defaultdict(float)
        self.absent = []
        self.uncounted = set()  # counters that no longer fit the program's signatures
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, counter):
        spans, stack, counts, uncounted = self.spans, self._stack, self.counts, self.uncounted

        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    counter(counts, args, kwargs, result)
                except (AttributeError, IndexError, TypeError, OSError):
                    uncounted.add(name)
            return result

        return wrapper

    def install(self):
        mods = [m for n, m in list(sys.modules.items())
                if n == "artifact" or n.startswith("artifact.")]
        self.absent = []
        for mod_name, fn_name, counter in TARGETS:
            home = sys.modules.get(f"artifact.{mod_name}")
            orig = getattr(home, fn_name, None)
            if orig is None:
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig, counter)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        self._patches.append((m, attr, orig))

    def uninstall(self):
        while self._patches:
            m, attr, orig = self._patches.pop()
            setattr(m, attr, orig)

    @contextmanager
    def root(self):
        """One traced operation: patches in place, a root span around it."""
        self.install()
        rec = [ROOT, perf_counter(), 0.0, -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()
            self.uninstall()

    def summary(self):
        """Per span name: calls, inclusive seconds, self seconds."""
        calls = defaultdict(int)
        incl = defaultdict(float)
        self_s = defaultdict(float)
        for name, start, end, parent in self.spans:
            dur = end - start
            calls[name] += 1
            incl[name] += dur
            self_s[name] += dur
            if parent >= 0:
                self_s[self.spans[parent][0]] -= dur
        return {n: {"calls": calls[n], "s": incl[n], "self_s": self_s[n]} for n in calls}

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {"names": names, "absent": self.absent, "uncounted": sorted(self.uncounted),
               "spans": [[index[n], round(a, 7), round(b, 7), p] for n, a, b, p in self.spans]}
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
