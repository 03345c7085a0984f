"""Run-to-run spread of the end-to-end metrics, against the declared bounds.

    python3 bench/spread.py --workload verify [--runs 10] [--first-seed 1]

Runs ``bench/run.py`` once per seed, one process at a time, with the
``run_seconds`` of ``BENCHMARK.json``, and prints for every end-to-end
metric its median, the distance between the first and third quartile as a
share of the median, and that share as a fraction of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from report import run  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    values: dict = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        _, result = run(args.workload, seed, spec["run_seconds"], 0)
        if not result["correct"]:
            print(f"seed {seed}: incorrect output", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()),
              flush=True)
    worst = 0.0
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        median = statistics.median(vals)
        spread = (q3 - q1) / median if median else 0.0
        share = spread / m["bound"]
        if m["name"] != "setup_s":
            worst = max(worst, share)
        print(f"{args.workload} {m['name']}: median {median:.6g} {m['unit']}, "
              f"spread {spread:.4f} = {share:.2f} of bound {m['bound']}")
    print(f"{args.workload}: largest spread is {worst:.2f} of its bound (setup_s excluded)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
