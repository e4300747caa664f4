"""Write ``BENCH_<pr>.json`` from a perfbench report and diff it with the last one.

    python3 tools/bench_file.py 6                  # report.py --no-trace, seeds 1-3
    python3 tools/bench_file.py 6 --seeds 1-5      # further arguments go to report.py

Runs ``perfbench/report.py --no-trace`` from the root of the checkout, reads
the ``.perfbench_out/report.json`` it writes, and saves the median and the
first and third quartiles over the seeds of every end-to-end metric of
every workload as ``BENCH_<pr>.json`` at the root.  It then prints each
median next to the one in the newest earlier ``BENCH_*.json``, with the
relative change and whether that is better or worse by BENCHMARK.json's
direction for the metric.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def summarize(report):
    """Per workload and metric: unit, median, quartiles and per-seed values."""
    out = {}
    for workload, data in report.items():
        runs = [res for _, res in data["runs"]]
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [res["metrics"][name]["value"] for res in runs]
            median = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (median, median, median))
            metrics[name] = {"unit": first["unit"], "median": median,
                             "q1": q1, "q3": q3, "values": values}
        out[workload] = {"seeds": [info["seed"] for info, _ in data["runs"]],
                         "correct": all(res["correct"] for res in runs),
                         "metrics": metrics}
    return out


def previous(pr):
    """The newest BENCH file of an earlier PR, or None."""
    found = []
    for path in ROOT.glob("BENCH_*.json"):
        m = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if m and int(m.group(1)) < pr:
            found.append((int(m.group(1)), path))
    return max(found)[1] if found else None


def diff(old, new, better):
    for workload, data in new["workloads"].items():
        print(f"== {workload}")
        before = old["workloads"].get(workload, {}).get("metrics", {})
        for name, m in data["metrics"].items():
            if name not in before:
                print(f"   {name:12s} {m['median']:12.6g} {m['unit']} (new)")
                continue
            was = before[name]["median"]
            change = (m["median"] - was) / was if was else 0.0
            gain = change if better[name] == "higher" else -change
            verdict = "better" if gain > 0 else "worse" if gain < 0 else "same"
            print(f"   {name:12s} {was:12.6g} -> {m['median']:12.6g} {m['unit']:5s} "
                  f"{change:+8.1%} {verdict}")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if not argv or not argv[0].isdigit():
        print(__doc__, file=sys.stderr)
        return 2
    pr, extra = int(argv[0]), argv[1:]
    cmd = [sys.executable, str(ROOT / "perfbench" / "report.py"), "--no-trace", *extra]
    if subprocess.run(cmd, cwd=ROOT).returncode != 0:
        print(f"error: {' '.join(cmd)} failed", file=sys.stderr)
        return 1
    report = json.loads((ROOT / ".perfbench_out" / "report.json").read_text())
    bench = {"pr": pr, "command": ["perfbench/report.py", "--no-trace", *extra],
             "workloads": summarize(report)}
    path = ROOT / f"BENCH_{pr}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"\nwrote {path.name}")
    last = previous(pr)
    if last is None:
        print("no earlier BENCH_*.json to compare with")
        return 0
    print(f"against {last.name}:")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    diff(json.loads(last.read_text()), bench,
         {m["name"]: m["better"] for m in spec["end_to_end"]})
    return 0


if __name__ == "__main__":
    sys.exit(main())
