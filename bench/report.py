"""Run every workload, untraced and traced, and print every metric.

    python3 bench/report.py [--seconds 30] [--seed 1] [--out FILE]

For each workload this runs ``bench/run.py`` twice, one process at a time:
with ``--trace 0`` for the end-to-end metrics and with ``--trace 1`` for the
per-layer metrics and the stage table (median self and total time per
public function, largest self time first).  With ``--out`` it also writes
all numbers to a JSON results file.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
from workloads import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=BENCH_DIR.parent, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    results = {}
    for workload in WORKLOADS:
        plain_log, plain = run(workload, args.seed, args.seconds, 0)
        log, traced = run(workload, args.seed, args.seconds, 1)
        fail_ratio = plain["failed"] / plain["attempted"]
        print(f"== {workload}: {plain['attempted']} operations, "
              f"fail_ratio = {fail_ratio:g}")
        for name, m in plain["metrics"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
        print("\n".join(line for line in plain_log if line.startswith("  (")))
        # the stage table, which the traced run prints before its own summary
        stages = [line.strip() for line in log if not line.startswith(f"{workload}: ")
                  and " = " not in line and "wall s" not in line]
        print("\n".join(f"  {line}" for line in stages))
        results[workload] = {
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "fail_ratio": fail_ratio,
            "correct": plain["correct"] and traced["correct"],
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
            "stages": stages,
        }
    if args.out:
        data = {"seconds": args.seconds, "seed": args.seed,
                "python": platform.python_version(), "machine": platform.machine(),
                "workloads": results}
        args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
        print(f"wrote {args.out}")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
