"""Run every workload over several seeds and print each metric with its unit.

    python3 perfbench/report.py                      # seeds 1-3, then one traced run
    python3 perfbench/report.py --seeds 1-10 --no-trace --workloads phase-p41

Each run is its own ``run.py`` process.  For every end-to-end metric the
table gives the per-seed values, their median and their spread (distance
between the first and third quartile as a share of the median, the
figure each metric's bound in BENCHMARK.json is set against).  The traced
run of the first seed then lists every per-layer metric.  All results
are also written to ``.perfbench_out/report.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-3"), help="e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--no-trace", action="store_true")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    everything = {}
    ok = True
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds, 0) for seed in args.seeds]
        everything[workload] = {"runs": runs}
        print(f"\n== {workload}  seeds {args.seeds}")
        for info, res in runs:
            ok &= res["correct"]
            print(f"   seed {info['seed']}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  f"tail=p{info['tail']['percentile']:.1f} of {info['tail']['samples']} "
                  f"prefix digest {info['digest_prefix']['sha256'][:12]}")
        for name, bound in bounds.items():
            values = [res["metrics"][name]["value"] for _, res in runs]
            unit = runs[0][1]["metrics"][name]["unit"]
            line = f"   {name:14s} {unit:6s} median {statistics.median(values):12.6g}"
            if len(values) >= 2:
                spread = stats.spread(values)
                line += f"  spread {spread:6.3f} (bound {bound}, third {bound / 3:.3f})"
            print(line + "  [" + " ".join(f"{v:.5g}" for v in values) + "]")
        if not args.no_trace:
            info, res = run_once(workload, args.seeds[0], args.seconds, 1)
            everything[workload]["traced"] = (info, res)
            ok &= res["correct"]
            print(f"   traced seed {info['seed']}: correct={res['correct']} "
                  f"digest traced == untraced: {info['digest'] == info['digest_untraced']}")
            for name, m in res["metrics"].items():
                print(f"     {name:40s} {m['value']:14.6g} {m['unit']}")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "report.json").write_text(json.dumps(everything, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
