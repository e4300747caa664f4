"""The BENCH file writer's summary and diff, on a synthetic report."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_file", ROOT / "tools" / "bench_file.py")
bench_file = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_file)


def _run(seed, ops_per_s, rss):
    return ({"seed": seed}, {"correct": True, "metrics": {
        "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"}}})


def test_summary_has_medians_and_quartiles():
    report = {"w": {"runs": [_run(1, 10.0, 60.0), _run(2, 12.0, 61.0),
                             _run(3, 11.0, 62.0), _run(4, 13.0, 60.0)]}}
    got = bench_file.summarize(report)["w"]
    assert got["seeds"] == [1, 2, 3, 4] and got["correct"]
    ops = got["metrics"]["ops_per_s"]
    assert ops["median"] == 11.5 and ops["values"] == [10.0, 12.0, 11.0, 13.0]
    assert (ops["q1"], ops["q3"]) == pytest.approx((10.25, 12.75))


def test_diff_judges_by_direction(capsys):
    old = {"workloads": {"w": {"metrics": {
        "ops_per_s": {"median": 10.0}, "peak_rss_mb": {"median": 60.0}}}}}
    new = {"workloads": {"w": {"metrics": {
        "ops_per_s": {"median": 15.0, "unit": "1/s"},
        "peak_rss_mb": {"median": 66.0, "unit": "MB"}}}}}
    bench_file.diff(old, new, {"ops_per_s": "higher", "peak_rss_mb": "lower"})
    out = capsys.readouterr().out.splitlines()
    assert "+50.0% better" in out[1] and "+10.0% worse" in out[2]
