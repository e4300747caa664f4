"""Spans around the public functions of each nlpflow module, from outside.

``Tracer.install`` replaces every module attribute that is one of the
traced functions, at every import site (``evaluate`` is bound by name in
``exprlang``, ``model``, ``field`` and ``solver``; ``field_eval`` in
``flow``, ``kkt``, ``checks``, ``solver`` and ``cli``), with a wrapper
that records one span per call: name, start, end, parent span and op id.
Spans stay in memory as one flat array until the run ends.
``Tracer.restore`` puts every original back, and ``assert_pristine``
proves that no wrapper is left in place.

Nothing under ``src/`` changes; the program does not know it is traced.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

_MARK = "__perfbench_span__"
# Fields per span in the flat record array.
_WIDTH = 6  # seq, name id, start, end, parent seq, op id


def _grad_sweeps(tracer, args, result):
    tracer.counters["exprlang.grad.sweeps"] += len(args[0].variables)


def _euler_steps(tracer, args, result):
    tracer.counters["flow.steps"] += len(result) - 1
    tracer.counters["flow.aborted"] += result.status != "completed"


def _samples_drawn(tracer, args, result):
    tracer.counters["io.sample_feasible.samples"] += len(result)


# (module, attribute, span name, hook run on each call's arguments and result).
# ``ReducedProblem.lift`` is a method and is patched on its class.
TARGETS = (
    ("nlpflow.exprlang", "parse", "exprlang.parse", None),
    ("nlpflow.exprlang", "evaluate", "exprlang.evaluate", None),
    ("nlpflow.exprlang", "grad", "exprlang.grad", _grad_sweeps),
    ("nlpflow.model", "residuals", "model.residuals", None),
    ("nlpflow.model", "jacobians", "model.jacobians", None),
    ("nlpflow.model", "is_feasible", "model.is_feasible", None),
    ("nlpflow.model", "reduce", "model.reduce", None),
    ("nlpflow.model", "ReducedProblem.lift", "model.lift", None),
    ("nlpflow.field", "field_eval", "field.field_eval", None),
    ("nlpflow.field", "projector_h", "field.projector_h", None),
    ("nlpflow.solver", "solve", "solver.solve", None),
    ("nlpflow.solver", "active_index_set", "solver.active_index_set", None),
    ("nlpflow.solver", "project_inexact", "solver.project_inexact", None),
    ("nlpflow.flow", "phase_grid", "flow.phase_grid", None),
    ("nlpflow.flow", "euler_flow", "flow.euler_flow", _euler_steps),
    ("nlpflow.kkt", "multipliers", "kkt.multipliers", None),
    ("nlpflow.kkt", "kkt_residual", "kkt.kkt_residual", None),
    ("nlpflow.checks", "identity_violations", "checks.identity_violations", None),
    ("nlpflow.checks", "criticality_agreement", "checks.criticality_agreement", None),
    ("nlpflow.io", "load_problem", "io.load_problem", None),
    ("nlpflow.io", "sample_feasible", "io.sample_feasible", _samples_drawn),
    ("nlpflow.io", "solve_report_csv", "io.solve_report_csv", None),
    ("nlpflow.io", "trajectory_csv_rows", "io.trajectory_csv_rows", None),
    ("nlpflow.io", "kkt_block", "io.kkt_block", None),
    ("nlpflow.cli", "main", "cli.main", None),
)

# Span names whose output is CSV/report text; ``io.csv.*`` sums over them.
CSV_SPANS = ("io.solve_report_csv", "io.trajectory_csv_rows", "io.kkt_block")


def _resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def originals():
    """Map id(function) -> (span name, function, hook) for every target.

    Raises if a target is already wrapped, so originals captured here are
    always the program's own functions.
    """
    out = {}
    for module_name, attr, name, hook in TARGETS:
        owner, leaf = _resolve(module_name, attr)
        fn = getattr(owner, leaf)
        if getattr(fn, _MARK, False):
            raise RuntimeError(f"{module_name}.{attr} is already wrapped")
        out[id(fn)] = (name, fn, hook)
    return out


def _import_sites():
    """Every loaded nlpflow module, plus classes that carry traced methods."""
    sites = [m for n, m in sorted(sys.modules.items())
             if m is not None and (n == "nlpflow" or n.startswith("nlpflow."))]
    for module_name, attr, _, _ in TARGETS:
        if "." in attr:
            owner, _ = _resolve(module_name, attr)
            if owner not in sites:
                sites.append(owner)
    return sites


def assert_pristine(expected):
    """Raise unless every import site holds the original functions.

    ``expected`` is the ``originals()`` map taken before any tracing.
    """
    for site in _import_sites():
        for attr, value in vars(site).items():
            if getattr(value, _MARK, False):
                raise AssertionError(f"{site.__name__}.{attr} is still wrapped")
    for module_name, attr, name, _ in TARGETS:
        owner, leaf = _resolve(module_name, attr)
        if id(getattr(owner, leaf)) not in expected:
            raise AssertionError(f"{module_name}.{attr} is not the original {name}")


class Tracer:
    """Span recorder; one instance per traced pass."""

    def __init__(self):
        self.names = []
        self.records = array("d")
        self.counters = defaultdict(float)
        self.op = -1
        self._seq = 0
        self._stack = []
        self._csv_depth = 0
        self._patches = []
        self._wrappers = None

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, hook):
        nid = len(self.names)
        self.names.append(name)
        stack = self._stack
        push, pop = stack.append, stack.pop
        extend = self.records.extend
        clock = time.perf_counter
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                # ``trajectory_csv_rows``: the span covers the iteration,
                # which the CLI drains in one ``list.extend``.
                seq = tracer._seq
                tracer._seq = seq + 1
                parent = stack[-1] if stack else -1
                push(seq)
                t0 = clock()
                size = 0
                try:
                    for row in fn(*args, **kwargs):
                        size += len(row) + 1
                        yield row
                finally:
                    t1 = clock()
                    pop()
                    extend((seq, nid, t0, t1, parent, tracer.op))
                    tracer.counters["io.csv.bytes"] += size
        elif name in CSV_SPANS:
            def wrapper(*args, **kwargs):
                # ``kkt_block`` inside ``solve_report_csv`` returns text the
                # enclosing report already counts: only the outermost counts.
                outer = tracer._csv_depth == 0
                tracer._csv_depth += 1
                seq = tracer._seq
                tracer._seq = seq + 1
                parent = stack[-1] if stack else -1
                push(seq)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    pop()
                    extend((seq, nid, t0, t1, parent, tracer.op))
                    tracer._csv_depth -= 1
                if outer:
                    tracer.counters["io.csv.bytes"] += len(result)
                return result
        else:
            def wrapper(*args, **kwargs):
                seq = tracer._seq
                tracer._seq = seq + 1
                parent = stack[-1] if stack else -1
                push(seq)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    pop()
                    extend((seq, nid, t0, t1, parent, tracer.op))
                if hook is not None:
                    hook(tracer, args, result)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self, expected):
        """Patch every import site of every target; ``restore`` undoes it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        if self._wrappers is None:
            self._wrappers = {fid: self._wrap(name, fn, hook)
                              for fid, (name, fn, hook) in expected.items()}
        wrappers = self._wrappers
        for site in _import_sites():
            for attr, value in list(vars(site).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((site, attr, value))
                    setattr(site, attr, wrapper)

    def restore(self):
        while self._patches:
            site, attr, value = self._patches.pop()
            setattr(site, attr, value)

    # -- results -----------------------------------------------------------

    def layers(self):
        """Per span name: ``(calls, self seconds)``; names never called are absent."""
        rec = self.spans()
        row_of = {int(seq): i for i, seq in enumerate(rec[:, 0])}
        parent = [row_of.get(int(p), -1) for p in rec[:, 4]]
        own = self_times(rec[:, 2], rec[:, 3], parent)
        calls, spent = defaultdict(int), defaultdict(float)
        for nid, t in zip(rec[:, 1].astype(int).tolist(), own):
            calls[self.names[nid]] += 1
            spent[self.names[nid]] += t
        return {name: (calls[name], spent[name]) for name in calls}

    def calls_within(self, name, parent_name):
        """Number of ``name`` spans whose direct parent is a ``parent_name`` span."""
        rec = self.spans()
        name_of = dict(zip(rec[:, 0].astype(int).tolist(), rec[:, 1].astype(int).tolist()))
        want, outer = self.names.index(name), self.names.index(parent_name)
        return sum(1 for nid, p in zip(rec[:, 1].astype(int).tolist(),
                                       rec[:, 4].astype(int).tolist())
                   if nid == want and name_of.get(p) == outer)

    def spans(self):
        """Spans as an (n, 6) array ordered by start: seq, name, t0, t1, parent, op."""
        rec = np.frombuffer(self.records, dtype=float).reshape(-1, _WIDTH)
        return rec[np.argsort(rec[:, 0], kind="stable")]

    def write(self, path):
        """Write every span as gzip CSV, start/end in ns from the first span."""
        rec = self.spans()
        origin = rec[:, 2].min() if len(rec) else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("op,span,parent,name,start_ns,end_ns\n")
            for seq, nid, t0, t1, parent, op in rec:
                fh.write(f"{int(op)},{int(seq)},{int(parent)},{self.names[int(nid)]},"
                         f"{round((t0 - origin) * 1e9)},{round((t1 - origin) * 1e9)}\n")


def self_times(start, end, parent):
    """Each span's duration minus the part of it its child spans cover.

    ``parent`` holds each span's parent row (-1 for roots).  Children are
    clipped to their parent's interval and merged where they overlap, so a
    stretch covered by two children is subtracted once.
    """
    start = [float(v) for v in start]
    end = [float(v) for v in end]
    parent = [int(v) for v in parent]
    own = [e - s for s, e in zip(start, end)]
    rows = sorted((p, start[i], i) for i, p in enumerate(parent) if p >= 0)
    p_prev, reach = -1, 0.0
    for p, _, row in rows:
        if p != p_prev:
            p_prev, reach = p, start[p]
        lo = max(start[row], reach)
        hi = min(end[row], end[p])
        if hi > lo:
            own[p] -= hi - lo
            reach = hi
    return own
