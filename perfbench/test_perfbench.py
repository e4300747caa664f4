"""Tests of the benchmark's own arithmetic and tracing integrity.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
from pathlib import Path

import numpy as np
import pytest

from perfbench import harness, stats, tracer, workloads

ROOT = Path(__file__).resolve().parents[1]


def test_tail_needs_ten_samples_above():
    assert stats.tail(list(range(10))) is None
    value, pct, n = stats.tail(list(range(11)))
    assert (value, n) == (0, 11) and pct == pytest.approx(100 / 11)


@pytest.mark.parametrize("n, value, pct", [(20, 9, 50.0), (100, 89, 90.0), (1000, 989, 99.0)])
def test_tail_is_highest_percentile_with_ten_above(n, value, pct):
    samples = list(np.random.default_rng(n).permutation(n))
    got, got_pct, got_n = stats.tail(samples)
    assert (got, got_pct, got_n) == (value, pct, n)
    assert sum(s > got for s in samples) == stats.TAIL_BEYOND


def test_self_time_subtracts_nested_children_once():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 6]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 6.0]
    parent = [-1, 0, 1, 0]
    assert tracer.self_times(start, end, parent) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    # Children of root [0, 10]: [1, 5] and [3, 6] overlap on [3, 5];
    # [8, 12] runs past the parent's end and counts only up to 10.
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 5.0, 6.0, 12.0, 4.0]
    parent = [-1, 0, 0, 0, 1]
    own = tracer.self_times(start, end, parent)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[1] == pytest.approx(4.0 - 2.0)


def test_ratio_carries_its_base():
    assert stats.ratio(3, 4) == (0.75, 4)
    assert stats.ratio(0, 0) == (0.0, 0)


def test_spread_is_quartile_distance_over_median():
    assert stats.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)
    assert stats.spread([2.0] * 10) == 0.0


def _kkt_op(cli):
    return harness.call_cli(cli, ["kkt", "--problem", str(ROOT / workloads.P42),
                                  "--x", "0,1,2,-1", "--sigma", "0.2"])


def test_tracing_wraps_every_import_site_and_restores_them():
    import nlpflow.cli
    import nlpflow.field
    import nlpflow.kkt
    import nlpflow.solver

    expected = tracer.originals()
    plain = _kkt_op(nlpflow.cli)
    tr = tracer.Tracer()
    tr.install(expected)
    try:
        for fn in (nlpflow.evaluate, nlpflow.field.evaluate, nlpflow.solver.evaluate,
                   nlpflow.kkt.grad, nlpflow.cli.field_eval, nlpflow.kkt.field_eval):
            assert getattr(fn, "__perfbench_span__", False)
        traced = _kkt_op(nlpflow.cli)
        with pytest.raises(AssertionError):
            tracer.assert_pristine(expected)
    finally:
        tr.restore()
    tracer.assert_pristine(expected)
    assert traced == plain and plain[0] == 0

    layers = tr.layers()
    assert layers["cli.main"][0] == 1
    assert layers["io.load_problem"][0] == 1
    assert layers["field.field_eval"][0] == 1
    # Full-space kkt: field_eval evaluates the objective gradient once and
    # jacobians one gradient per constraint; kkt_residual repeats both.
    assert layers["exprlang.grad"][0] == 2 * (1 + 1 + 2)
    assert tr.counters["exprlang.grad.sweeps"] == 4 * layers["exprlang.grad"][0]
    # cmd_kkt prints kkt_block's text, a newline and a normF line.
    assert tr.counters["io.csv.bytes"] == len("\n".join(plain[1].splitlines()[:-1]))
    total = sum(own for _, own in layers.values())
    root = tr.spans()[tr.spans()[:, 4] == -1]
    assert total == pytest.approx(float((root[:, 3] - root[:, 2]).sum()))


def test_usage_error_is_a_failed_op_not_a_crash():
    import nlpflow.cli

    # The README's ``--x0 "-0.9,-1,2"`` form: argparse takes the value for
    # an option and exits 2.
    rc, out, err = harness.call_cli(
        nlpflow.cli, ["solve", "--problem", workloads.P42, "--x0", "-0.9,-1,2"])
    assert rc == 2 and out == "" and "expected one argument" in err


def test_inputs_depend_only_on_the_seed():
    for w in workloads.WORKLOADS.values():
        a, b, c = (w.ops(s) for s in (3, 3, 4))
        first = [next(a) for _ in range(4)]
        assert first == [next(b) for _ in range(4)]
        if not isinstance(w, workloads.Solve):
            assert first != [next(c) for _ in range(4)]
    draws = workloads.draw_p42_starts(5, 8)
    assert all(workloads.p42_max_g(x) <= 0 for x in draws)
    assert np.array_equal(draws, workloads.draw_p42_starts(5, 8))


def test_benchmark_json_lists_what_the_harness_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]}
    assert e2e == harness.END_TO_END
    layer = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert layer == harness.PER_LAYER
