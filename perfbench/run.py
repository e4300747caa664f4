"""Run one nlpflow benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload solve-r35-p42 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One op is one in-process call of ``nlpflow.cli.main(argv)``
with stdout and stderr captured in memory, in a closed loop with one
client.  ``--trace 0`` runs ops for ``--seconds`` and reports the
end-to-end metrics; ``--trace 1`` runs a fixed op list untraced, then
again with spans around every public nlpflow function, and reports the
per-layer metrics.  The last stdout line is the result object; the line
before it records the seed, versions, core count and output digests.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Must be set before numpy is first imported, here and in set-up probes.
PINNED_THREADS = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def parse_args(argv, workload_names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    os.environ.update(PINNED_THREADS)
    os.environ["NLPFLOW_LOG"] = "quiet"
    if not (ROOT / "src" / "nlpflow" / "__init__.py").is_file():
        print(f"error: no nlpflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness, workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    return harness.run(workloads.WORKLOADS[args.workload], args.seed,
                       args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
