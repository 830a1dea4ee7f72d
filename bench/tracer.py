"""Outside-in per-layer tracing of degmap, recorded from the benchmark's files.

``Recorder.install`` replaces module attributes with timing wrappers at the
name each is looked up under: ``make_form`` is patched in every module that
imports it, ``check_homotopy_condition`` in ``degsets`` where it is called,
and the solver's inner stages (``_modq_unsolvable``, ``_definite_solutions``,
``_box_candidates``, ``_witness_stream``) by their module-level names.  A
target whose attribute no longer exists is skipped, and every metric that
depends only on missing targets is reported as absent.

Generators are timed per ``__next__``, so time spent by the consumer between
steps is never charged to the generator.  A span's self time is its
duration minus the time its child spans cover.  Spans stay in memory until
``write`` is called; the steps of one generator share one span record.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span).  One span may be entered through several names.
TARGETS = (
    ("cli", "preset", "catalog.load"),
    ("catalog", "preset", "catalog.load"),
    ("cli", "manifold_from_doc", "catalog.load"),
    ("cli", "manifold", "catalog.load"),
    ("cli", "make_form", "intform.make_form"),
    ("catalog", "make_form", "intform.make_form"),
    ("degsets", "make_form", "intform.make_form"),
    ("intform", "make_form", "intform.make_form"),
    ("cli", "parse_matrix_text", "intform.parse"),
    ("cli", "matrix_from_doc", "intform.parse"),
    ("intform", "matrix_from_doc", "intform.parse"),
    ("cli", "infer_symmetry", "intform.parse"),
    ("intform", "infer_symmetry", "intform.parse"),
    ("cli", "isomorphic", "intform.isomorphic"),
    ("cli", "congruence_solve", "solver.solve"),
    ("solver", "congruence_solve", "solver.solve"),
    ("solver", "open_search", "solver.prefilter"),
    ("solver", "_modq_unsolvable", "solver.modq"),
    ("solver", "_witness_stream", "solver.search"),
    ("solver", "_definite_solutions", "solver.definite_enum"),
    ("solver", "_box_candidates", "solver.box_enum"),
    ("solver", "verify_witness", "solver.verify"),
    ("degsets", "check_homotopy_condition", "homotopy.check"),
    ("degsets", "degree_realizable", "degsets.realizable"),
    ("degsets", "orthogonal_complement_form", "degsets.complement"),
    ("cli", "degree_set", "degsets.query"),
    ("cli", "degree_one_summand", "degsets.query"),
    ("cli", "selfmap_square", "degsets.query"),
    ("cli", "dominated_candidates", "degsets.query"),
)

CLI_SPAN = "cli.main"

# Counts taken from a call's result, at the same boundary as its span.
RESULT_COUNTS = {
    "solver.modq": lambda c, r: c.update({"solver.modq.hits": bool(r)}),
    "solver.definite_enum": lambda c, r: c.update({"solver.definite_vectors": len(r)}),
    "solver.prefilter": lambda c, r: c.update({"solver.prefilter.no": r[0] is not None}),
    "homotopy.check": lambda c, r: c.update({"homotopy.check.pass": bool(r.ok)}),
}
# Counts of the items a generator yields.
ITEM_COUNTS = {
    "solver.box_enum": "solver.box_candidates",
    "solver.search": "solver.witnesses",
}

# metric name -> (unit, span it depends on, how to compute it from one pass)
# "self": self time of the span; a string: that counter; a pair: ratio of
# two counters summed over every traced pass.
METRICS = {
    "solver.modq_s": ("s", "solver.modq", "self"),
    "solver.modq_calls": ("count", "solver.modq", "solver.modq.calls"),
    "solver.modq_hit_share": ("ratio", "solver.modq", ("solver.modq.hits", "solver.modq.calls")),
    "solver.box_enum_s": ("s", "solver.box_enum", "self"),
    "solver.box_candidates": ("count", "solver.box_enum", "solver.box_candidates"),
    "solver.definite_enum_s": ("s", "solver.definite_enum", "self"),
    "solver.definite_enum_calls": ("count", "solver.definite_enum", "solver.definite_enum.calls"),
    "solver.definite_vectors": ("count", "solver.definite_enum", "solver.definite_vectors"),
    "solver.search_s": ("s", "solver.search", "self"),
    "solver.witnesses": ("count", "solver.search", "solver.witnesses"),
    "solver.prefilter_s": ("s", "solver.prefilter", "self"),
    "solver.prefilter_no_share": ("ratio", "solver.prefilter", ("solver.prefilter.no", "solver.prefilter.calls")),
    "solver.solve_s": ("s", "solver.solve", "self"),
    "solver.verify_s": ("s", "solver.verify", "self"),
    "solver.verify_calls": ("count", "solver.verify", "solver.verify.calls"),
    "homotopy.check_s": ("s", "homotopy.check", "self"),
    "homotopy.checks": ("count", "homotopy.check", "homotopy.check.calls"),
    "homotopy.pass_share": ("ratio", "homotopy.check", ("homotopy.check.pass", "homotopy.check.calls")),
    "degsets.realizable_s": ("s", "degsets.realizable", "self"),
    "degsets.complement_s": ("s", "degsets.complement", "self"),
    "degsets.query_s": ("s", "degsets.query", "self"),
    "intform.make_form_s": ("s", "intform.make_form", "self"),
    "intform.make_form_calls": ("count", "intform.make_form", "intform.make_form.calls"),
    "intform.parse_s": ("s", "intform.parse", "self"),
    "intform.isomorphic_s": ("s", "intform.isomorphic", "self"),
    "catalog.load_s": ("s", "catalog.load", "self"),
    "cli.overhead_s": ("s", CLI_SPAN, "self"),
}


class _Frame:
    __slots__ = ("name", "start", "child", "record")

    def __init__(self, name, start, record):
        self.name = name
        self.start = start
        self.child = 0.0
        self.record = record


class Recorder:
    """Collects spans, per-span self time and boundary counts in memory."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.present = {CLI_SPAN}
        self.spans = []  # [query, name, parent record, start, end, self, steps]
        self.query = 0
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self._stack = []
        self._undo = []

    # -- installation ------------------------------------------------------

    def install(self):
        """Patch every target that exists; returns the recorder."""
        for module_name, attr, span in self.targets:
            module = importlib.import_module(f"degmap.{module_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self.present.add(span)
            self._undo.append((module, attr, fn))
            setattr(module, attr, self._wrap(span, fn))
        return self

    def uninstall(self):
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)

    def _wrap(self, span, fn):
        rec = self
        if inspect.isgeneratorfunction(fn):
            item_count = ITEM_COUNTS.get(span)

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                rec.counts[span + ".calls"] += 1
                return _TimedSteps(rec, span, fn(*args, **kwargs), item_count)

            return gen_wrapper
        on_result = RESULT_COUNTS.get(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.counts[span + ".calls"] += 1
            frame = rec.enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.exit(frame)
            if on_result is not None:
                on_result(rec.counts, result)
            return result

        return wrapper

    # -- spans -------------------------------------------------------------

    def _new_record(self, name, start):
        parent = self._stack[-1].record if self._stack else -1
        self.spans.append([self.query, name, parent, start, start, 0.0, 0])
        return len(self.spans) - 1

    def enter(self, name, record=None):
        start = perf_counter()
        if record is None:
            record = self._new_record(name, start)
        frame = _Frame(name, start, record)
        self._stack.append(frame)
        return frame

    def exit(self, frame):
        end = perf_counter()
        top = self._stack.pop()
        if top is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order")
        duration = end - frame.start
        own = duration - frame.child
        if self._stack:
            self._stack[-1].child += duration
        self.self_time[frame.name] += own
        rec = self.spans[frame.record]
        rec[4] = end
        rec[5] += own
        rec[6] += 1

    def call(self, name, fn, *args):
        """Run fn(*args) inside a span of its own, e.g. the CLI entry point."""
        self.counts[name + ".calls"] += 1
        frame = self.enter(name)
        try:
            return fn(*args)
        finally:
            self.exit(frame)

    # -- results -----------------------------------------------------------

    def take_pass(self):
        """Return this pass's self times and counts, and start a new pass."""
        snapshot = (dict(self.self_time), dict(self.counts))
        self.self_time = defaultdict(float)
        self.counts = Counter()
        return snapshot

    def write(self, path):
        """Write every span as one JSON line; times in seconds from the first."""
        origin = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (query, name, parent, start, end, own, steps) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "query": query, "name": name, "parent": parent,
                    "start": round(start - origin, 9), "end": round(end - origin, 9),
                    "self": round(own, 9), "steps": steps,
                }) + "\n")


class _TimedSteps:
    """Iterator proxy that times each step of a generator as one span."""

    __slots__ = ("_rec", "_name", "_gen", "_items", "_record")

    def __init__(self, rec, name, gen, item_count):
        self._rec = rec
        self._name = name
        self._gen = gen
        self._items = item_count
        self._record = None

    def __iter__(self):
        return self

    def __next__(self):
        rec = self._rec
        frame = rec.enter(self._name, self._record)
        self._record = frame.record
        try:
            item = next(self._gen)
        finally:
            rec.exit(frame)
        if self._items is not None:
            rec.counts[self._items] += 1
        return item


def summarize(passes, present):
    """Per-layer metrics from the per-pass snapshots of a traced run.

    Times and counts are medians over passes; shares are ratios of counts
    summed over all passes (0.0 when the base is empty).  A metric whose
    span has no patch target is None, meaning absent.
    """
    out = {}
    for metric, (unit, span, how) in METRICS.items():
        if span not in present:
            out[metric] = (None, unit)
            continue
        if isinstance(how, tuple):
            hits = sum(counts.get(how[0], 0) for _, counts in passes)
            base = sum(counts.get(how[1], 0) for _, counts in passes)
            out[metric] = (hits / base if base else 0.0, unit)
            continue
        values = sorted(
            times.get(span, 0.0) if how == "self" else counts.get(how, 0)
            for times, counts in passes
        )
        out[metric] = (_median(values), unit)
    return out


def _median(values):
    n = len(values)
    mid = n // 2
    return values[mid] if n % 2 else (values[mid - 1] + values[mid]) / 2
