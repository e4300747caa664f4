"""Timed op loop, set-up probes, traced pass and metric assembly."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import stats, tracer
from .workloads import solve_stats

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPEATS = 7
# A timed run goes on past --seconds until it has this many ops, so that
# every workload has a tail percentile (stats.TAIL_BEYOND samples above it).
MIN_OPS = 22
# A probe solve that has not returned by then counts as failed (timeout).
PROBE_DEADLINE_S = 2.0

# name -> (unit, better, bound): the metrics of a --trace 0 run.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.2),
    "op_ms.p50": ("ms", "lower", 0.25),
    "op_ms.tail": ("ms", "lower", 0.25),
    "ok_frac": ("ratio", "higher", 0.05),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

_SPAN_METRICS = (
    ("exprlang.parse", True), ("exprlang.evaluate", True), ("exprlang.grad", True),
    ("model.residuals", True), ("model.jacobians", True), ("model.is_feasible", True),
    ("model.reduce", False), ("field.field_eval", True), ("field.projector_h", True),
    ("solver.solve", True), ("solver.active_index_set", True),
    ("solver.project_inexact", True), ("flow.phase_grid", False),
    ("flow.euler_flow", True), ("kkt.multipliers", True), ("kkt.kkt_residual", True),
    ("checks.identity_violations", True), ("checks.criticality_agreement", True),
    ("io.load_problem", False), ("io.sample_feasible", False), ("cli.main", False),
)
_TERMINATIONS = ("critical", "max_iter", "field_failure", "inner_cap")


def _per_layer_units():
    """name -> (unit, better) of every metric of a --trace 1 run, in order."""
    out = {}
    for span, with_calls in _SPAN_METRICS:
        if with_calls:
            out[f"{span}.calls"] = ("count", "lower")
        out[f"{span}.self_s"] = ("s", "lower")
    out.update({
        "exprlang.grad.sweeps": ("count", "lower"),
        "model.lift.calls": ("count", "lower"),
        "solver.iterations": ("count", "lower"),
        "solver.rejections": ("count", "lower"),
        "solver.accept_ratio": ("ratio", "higher"),
        "solver.accept_ratio.base": ("count", "lower"),
        "solver.snaps": ("count", "lower"),
    })
    for kind in _TERMINATIONS:
        out[f"solver.terminations.{kind}"] = ("count", "higher" if kind == "critical" else "lower")
    out.update({
        "flow.steps": ("count", "lower"),
        "flow.aborted": ("count", "lower"),
        "io.sample_feasible.accept_ratio": ("ratio", "higher"),
        "io.sample_feasible.accept_ratio.base": ("count", "lower"),
        "io.csv.self_s": ("s", "lower"),
        "io.csv.bytes": ("B", "lower"),
        "trace.overhead_s": ("s", "lower"),
        "trace.spans": ("count", "lower"),
        "probe.attempted": ("count", "higher"),
        "probe.failed": ("count", "lower"),
        "probe.timeouts": ("count", "lower"),
        "probe.fail_frac": ("ratio", "lower"),
        "probe.fail_frac.base": ("count", "higher"),
        "probe.op_ms.p50": ("ms", "lower"),
        "probe.op_ms.max": ("ms", "lower"),
    })
    return out


PER_LAYER = _per_layer_units()


# -- machine-speed reference ---------------------------------------------------
# The shared host's speed drifts by up to half over seconds to minutes (a
# fixed pure-Python loop measured 8.2-12.0 ms across 2 s windows of one
# 40 s run), which no statistic over raw latencies of a 20 s run absorbs.
# A fixed interpreter workload of the benchmark's own is timed between
# consecutive ops, and each op's latency is reported on a machine where
# that reference takes REF_S: latency * REF_S / (reference around the op).
# On 11 windows of 20 s of solve-r35-p42 this cut the quartile spread of
# the median from 0.13 to 0.03 and of throughput from 0.20 to 0.04.  The
# raw wall-clock figures are reported alongside in the info line.
#
# The scaling assumes the program slows under contention as the reference
# does; the correlation was 0.8-0.9 for the interpreter-bound program of
# today.  A change that moves work into native code can shift that, so a
# gain of a few percent from such a change should also show in the raw
# figures.
REF_S = 0.3e-3


class _Dual:
    __slots__ = ("val", "dot")

    def __init__(self, val, dot):
        self.val, self.dot = val, dot


class _Node:
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op, self.left, self.right = op, left, right


def _ref_tree(depth, var):
    if depth == 0:
        return var % 3
    return _Node("+*-"[depth % 3], _ref_tree(depth - 1, var + 1), _ref_tree(depth - 1, var + 2))


# Shaped like the program's hot path: a recursive walk over node objects
# that allocates one small dual number per node.
_REF_TREE = _ref_tree(8, 0)


def _ref_eval(node, duals):
    if isinstance(node, int):
        return duals[node]
    a = _ref_eval(node.left, duals)
    b = _ref_eval(node.right, duals)
    if node.op == "+":
        return _Dual(a.val + b.val, a.dot + b.dot)
    if node.op == "-":
        return _Dual(a.val - b.val, a.dot - b.dot)
    return _Dual(a.val * b.val, a.val * b.dot + a.dot * b.val)


def reference_seconds(reps=5):
    """Median time of a fixed dual-number tree walk, about 0.35 ms per rep."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for i in range(3):
            _ref_eval(_REF_TREE, [_Dual(0.5, float(i == j)) for j in range(3)])
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def speed_scaled(latency, refs):
    """Latencies on a machine where the reference takes REF_S.

    ``refs[i]`` and ``refs[i + 1]`` are the reference times just before
    and after op ``i``.
    """
    return [lat * REF_S / (0.5 * (refs[i] + refs[i + 1]))
            for i, lat in enumerate(latency)]


class OpTimeout(BaseException):
    """Raised by the probe's deadline alarm; not an Exception, so the CLI's
    own error handling cannot swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def call_cli(cli, argv, deadline=None):
    """One op: ``cli.main(argv)`` with output captured.

    Returns ``(exit code, stdout, stderr)``.  A usage error (SystemExit)
    becomes its exit code; a deadline overrun becomes exit code None.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if deadline is not None:
                signal.setitimer(signal.ITIMER_REAL, deadline)
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            finally:
                if deadline is not None:
                    signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        rc = None
    return rc, out.getvalue(), err.getvalue()


class Ops:
    """Outcome of a sequence of ops: latencies, failures and output digests."""

    def __init__(self, workload):
        self.workload = workload
        self.latency = []
        self.errors = []
        self.hashes = []
        self.solves = []
        self.by_argv = {}
        self.nondeterministic = 0

    def run(self, cli, argv, deadline=None, tracer_=None):
        if tracer_ is not None:
            tracer_.op = len(self.latency)
        t0 = time.perf_counter()
        rc, out, err = call_cli(cli, argv, deadline)
        self.latency.append(time.perf_counter() - t0)
        reason = ("timeout" if rc is None
                  else self.workload.check(argv, rc, out))
        self.errors.append(reason)
        h = hashlib.sha256(json.dumps([argv, rc, out, err]).encode()).digest()
        self.hashes.append(h)
        key = "\0".join(argv)
        if self.by_argv.setdefault(key, h) != h:
            self.nondeterministic += 1
        if argv[0] == "solve" and rc is not None:
            self.solves.append((argv, solve_stats(out)))

    @property
    def failed(self):
        return sum(e is not None for e in self.errors)

    def digest(self, count=None):
        hashes = self.hashes[:count]
        return {"ops": len(hashes),
                "sha256": hashlib.sha256(b"".join(hashes)).hexdigest()}


# setup_s is scaled like op latencies, but by a reference of its own
# shape: a fresh interpreter importing a fixed set of standard-library
# modules, run right before each timed start-up.  The in-process reference
# above tracks start-up poorly (it slows more under contention); this one
# cut the quartile spread of 7-sample medians from 0.21 to 0.06 over three
# minutes of this host.  REF_SETUP_S is that import's time on a machine
# where setup_s reads as measured.
REF_SETUP_S = 0.035
_REF_SETUP_CODE = ("import time\n"
                   "t0 = time.perf_counter()\n"
                   "import argparse, decimal, email.parser, fractions, http.client, json, statistics\n"
                   "print(repr(time.perf_counter() - t0))\n")


def _fresh_interpreter_seconds(code):
    proc = subprocess.run([sys.executable, "-I", "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def measure_setup(problem, repeats=SETUP_REPEATS):
    """Fresh interpreters' time to import nlpflow and load ``problem``.

    Returns ``(scaled, raw, reference)`` seconds per repeat.
    """
    code = ("import sys, time\n"
            "t0 = time.perf_counter()\n"
            "sys.path.insert(0, 'src')\n"
            "import nlpflow, nlpflow.io\n"
            f"nlpflow.io.load_problem({problem!r})\n"
            "print(repr(time.perf_counter() - t0))\n")
    raw, refs = [], []
    for _ in range(repeats):
        refs.append(_fresh_interpreter_seconds(_REF_SETUP_CODE))
        raw.append(_fresh_interpreter_seconds(code))
    scaled = [t * REF_SETUP_S / r for t, r in zip(raw, refs)]
    return scaled, raw, refs


def _import_program():
    import nlpflow
    import nlpflow.cli

    src = (ROOT / "src").resolve()
    if src not in Path(nlpflow.__file__).resolve().parents:
        raise RuntimeError(f"nlpflow imported from {nlpflow.__file__}, not {src}")
    return nlpflow.cli


def _info(workload, seed, trace, **extra):
    return {"workload": workload.name, "seed": seed, "trace": int(trace),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), **extra}


def _metric(name, value):
    return name, {"value": value, "unit": END_TO_END[name][0]}


def run(workload, seed, seconds, trace):
    cli = _import_program()
    expected = tracer.originals()
    signal.signal(signal.SIGALRM, _on_alarm)
    if trace:
        info, result = _run_traced(cli, workload, seed, seconds, expected)
    else:
        info, result = _run_timed(cli, workload, seed, seconds, expected)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


def _run_timed(cli, workload, seed, seconds, expected):
    tracer.assert_pristine(expected)
    setup, setup_raw, setup_refs = measure_setup(workload.problem)
    ops = Ops(workload)
    stream = workload.ops(seed)
    refs = [reference_seconds()]
    stop = time.perf_counter() + seconds
    while time.perf_counter() < stop or len(ops.latency) < MIN_OPS:
        ops.run(cli, next(stream))
        refs.append(reference_seconds())
    tracer.assert_pristine(expected)

    n = len(ops.latency)
    scaled = speed_scaled(ops.latency, refs)
    wall, raw_wall = sum(scaled), sum(ops.latency)
    tail, raw_tail = stats.tail(scaled), stats.tail(ops.latency)
    ok_frac, _ = stats.ratio(n - ops.failed, n)
    ops_per_s, _ = stats.ratio(n, wall)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = dict((
        _metric("setup_s", statistics.median(setup)),
        _metric("ops_per_s", ops_per_s),
        _metric("op_ms.p50", 1e3 * statistics.median(scaled)),
        _metric("op_ms.tail", 1e3 * tail[0]),
        _metric("ok_frac", ok_frac),
        _metric("peak_rss_mb", peak_kb / 1024.0),
    ))
    correct = (ops.failed == 0 and ops.nondeterministic == 0
               and n >= workload.digest_ops)
    info = _info(workload, seed, False,
                 ops_per_s_base={"ops": n, "seconds": wall},
                 ok_frac_base=n,
                 tail={"percentile": tail[1], "samples": tail[2]},
                 raw={"setup_s": statistics.median(setup_raw),
                      "ops_per_s": n / raw_wall, "wall_s": raw_wall,
                      "op_ms.p50": 1e3 * statistics.median(ops.latency),
                      "op_ms.tail": 1e3 * raw_tail[0]},
                 reference_ms={"min": 1e3 * min(refs), "median": 1e3 * statistics.median(refs),
                               "max": 1e3 * max(refs)},
                 setup_s_samples={"scaled": setup, "raw": setup_raw,
                                  "reference": setup_refs},
                 digest=ops.digest(), digest_prefix=ops.digest(workload.digest_ops),
                 errors=sorted({e for e in ops.errors if e}))
    return info, {"correct": correct, "attempted": n, "failed": ops.failed,
                  "metrics": metrics}


def _solver_metrics(ops):
    total = {"iterations": 0, "rejections": 0, "snaps": 0}
    terms = dict.fromkeys(_TERMINATIONS, 0)
    for argv, st in ops.solves:
        total["iterations"] += st["iterations"]
        total["rejections"] += st["rejections"]
        if "r35" in argv:
            total["snaps"] += st["snaps"]
        if st["termination"] in terms:
            terms[st["termination"]] += 1
    accept, base = stats.ratio(total["iterations"],
                               total["iterations"] + total["rejections"])
    out = {f"solver.{k}": v for k, v in total.items()}
    out["solver.accept_ratio"] = accept
    out["solver.accept_ratio.base"] = base
    out.update({f"solver.terminations.{k}": v for k, v in terms.items()})
    return out


def _probe(cli, workload, seed):
    """Unfiltered drawn starts under a deadline: the defect-exposure probe."""
    probe = Ops(workload)
    for argv in workload.probe_ops(seed):
        probe.run(cli, argv, deadline=PROBE_DEADLINE_S)
    n = len(probe.latency)
    frac, base = stats.ratio(probe.failed, n)
    return {"probe.attempted": n,
            "probe.failed": probe.failed,
            "probe.timeouts": sum(e == "timeout" for e in probe.errors),
            "probe.fail_frac": frac,
            "probe.fail_frac.base": base,
            "probe.op_ms.p50": 1e3 * statistics.median(probe.latency) if n else 0.0,
            "probe.op_ms.max": 1e3 * max(probe.latency) if n else 0.0}, probe


def _run_traced(cli, workload, seed, seconds, expected):
    """Each op of one cycle untraced, then traced, back to back.

    Pairing op by op keeps host speed drift out of ``trace.overhead_s``;
    a discarded first call takes the one-time costs of a first CLI call.
    """
    stream = workload.ops(seed)
    argvs = [next(stream) for _ in range(workload.trace_ops)]
    call_cli(cli, argvs[0])

    tr = tracer.Tracer()
    plain, traced = Ops(workload), Ops(workload)
    for argv in argvs:
        tracer.assert_pristine(expected)
        plain.run(cli, argv)
        tr.install(expected)
        try:
            traced.run(cli, argv, tracer_=tr)
        finally:
            tr.restore()
    tracer.assert_pristine(expected)

    layers = tr.layers()
    values = {}
    for span, with_calls in _SPAN_METRICS:
        calls, own = layers.get(span, (0, 0.0))
        if with_calls:
            values[f"{span}.calls"] = calls
        values[f"{span}.self_s"] = own
    counters = tr.counters
    values["exprlang.grad.sweeps"] = counters["exprlang.grad.sweeps"]
    values["model.lift.calls"] = layers.get("model.lift", (0, 0.0))[0]
    values.update(_solver_metrics(traced))
    values["flow.steps"] = counters["flow.steps"]
    values["flow.aborted"] = counters["flow.aborted"]
    sampled = tr.calls_within("model.is_feasible", "io.sample_feasible")
    accept, base = stats.ratio(counters["io.sample_feasible.samples"], sampled)
    values["io.sample_feasible.accept_ratio"] = accept
    values["io.sample_feasible.accept_ratio.base"] = base
    values["io.csv.self_s"] = sum(layers.get(s, (0, 0.0))[1] for s in tracer.CSV_SPANS)
    values["io.csv.bytes"] = counters["io.csv.bytes"]
    values["trace.overhead_s"] = sum(traced.latency) - sum(plain.latency)
    values["trace.spans"] = len(tr.records) // 6
    probe_values, probe = _probe(cli, workload, seed)
    values.update(probe_values)

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.csv.gz"
    tr.write(spans_path)

    same = plain.digest() == traced.digest()
    correct = (same and traced.failed == 0 and plain.failed == 0
               and traced.nondeterministic == 0)
    metrics = {name: {"value": float(values[name]), "unit": PER_LAYER[name][0]}
               for name in PER_LAYER}
    info = _info(workload, seed, True,
                 digest=traced.digest(), digest_untraced=plain.digest(),
                 untraced_s=sum(plain.latency), traced_s=sum(traced.latency),
                 spans_file=str(spans_path.relative_to(ROOT)),
                 probe_errors=[e for e in probe.errors],
                 errors=sorted({e for e in traced.errors if e}))
    return info, {"correct": correct, "attempted": len(traced.latency),
                  "failed": traced.failed, "metrics": metrics}
