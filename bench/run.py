"""Benchmark runner: one workload, one seed, a closed loop of operations.

    python3 bench/run.py --workload classify|symbolic|verify --seed N \\
        --seconds S --trace 0|1

One client, no threads: each operation is a fresh interpreter running
``bench/child.py``, started only after the previous one has exited and its
output has been checked against ``bench/reference``.  Interpreter start and
import are part of every operation, and nothing is cached between them.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes one count
pass and then alternates traced (span) and untraced operations, and prints
the per-layer metrics with the tracing overhead.  The last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Scratch files go under ``.bench_build/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
SETUP_REPEATS = 7
# every run, including the operation in flight at the deadline, ends by this
HARD_LIMIT_S = 170.0
# Work in one reference operation (see end_to_end): (Fraction repeats,
# integer-loop repeats), each about 0.2 s.  Fixed per workload: the mix
# follows the workload's own work (classify spends most of its time in the
# long integer loop of rational_roots, the others in Fraction and MultiPoly
# arithmetic), and the total is long enough to average the machine's
# second-to-second jitter against operations of about 6 s, 0.9 s and 0.6 s.
REFERENCE_WORK = {"classify": (5, 5), "symbolic": (2, 0), "verify": (1, 0)}

sys.path.insert(0, str(BENCH_DIR))
import tracer  # noqa: E402
import workloads  # noqa: E402

# stages whose time per operation is reported as "<stage>.s"
TIMED_STAGES = (
    "poly.rational_roots", "poly.resultant", "poly.univariate_gcd",
    "sakuma.build_universal", "sakuma.associativity_defects",
    "sakuma.associativity_polynomials", "sakuma.rederive_products",
    "sakuma.solve_points", "sakuma.evaluate_point", "sakuma.discrepancy_quotient",
    "algebra.ideal_closure", "algebra.quotient", "algebra.check_axis",
    "algebra.miyamoto", "algebra.verify_form", "algebra.from_json",
    "linalg.rref", "linalg.det", "linalg.matmul", "cli.main",
)
# wrapped calls whose count per operation is reported as "<name>.calls"
COUNTED_CALLS = (
    "poly.rational_roots", "poly.resultant", "poly.mul", "poly.add",
    "sakuma.discrepancy_quotient", "algebra.check_axis", "algebra.multiply",
    "linalg.rref", "linalg.echelon_span", "linalg.det", "linalg.matmul",
    "linalg.inverse",
)


@dataclass
class Op:
    kind: str  # "plain" (untraced), "time" or "count"
    wall: float
    cpu: float
    rss_mb: float
    ok: bool
    reason: str = ""
    # mean wall and CPU time of the reference operations just before and after
    ref_wall: float = 0.0
    ref_cpu: float = 0.0


def spawn(argv, out_dir: Path, timeout: float):
    """Run one child to completion; (wall s, cpu s, peak RSS MiB, exit code).

    The child is killed if it outlives the timeout.  Its own resource usage
    comes from wait4, so the parent's CPU and memory are not counted.
    """
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin")}
    with open(out_dir / "stdout", "wb") as out, open(out_dir / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=out, stderr=err, env=env)
        old = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # interrupted (SIGINT, or SIGTERM via main): leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode


def child_argv(*args) -> list[str]:
    prefix = BUILD_DIR / "pycache"
    return [sys.executable, "-I", "-X", f"pycache_prefix={prefix}",
            str(BENCH_DIR / "child.py"), *map(str, args)]


def setup(workload: str, seed: int, run_dir: Path):
    """Load the reference, write the seeded inputs and warm the bytecode
    cache; repeated, and the median time reported."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ref = workloads.load_reference(workload)
        manifest = workloads.make_inputs(workload, seed, ref, run_dir / "inputs")
        _, _, _, code = spawn(child_argv("warm"), run_dir, 60)
        if code != 0:
            raise SystemExit(f"bench: the program does not import (exit {code})")
        times.append(time.perf_counter() - start)
    return ref, manifest, statistics.median(times)


def schedule(index: int, trace: bool) -> str:
    if not trace:
        return "plain"
    if index == 0:
        return "count"
    return "time" if index % 2 else "plain"


def reference(workload: str, run_dir: Path) -> tuple[float, float]:
    wall, cpu, _, code = spawn(child_argv("reference", *REFERENCE_WORK[workload]), run_dir, 60)
    if code != 0:
        raise SystemExit(f"bench: the reference operation failed (exit {code})")
    return wall, cpu


def measure(workload: str, seed: int, seconds: int, trace: bool, run_dir: Path,
            started: float):
    """The closed loop.  Untraced operations are bracketed by reference
    operations, so that each can be timed relative to the machine's speed at
    that moment."""
    ref, manifest, setup_s = setup(workload, seed, run_dir)
    ops: list[Op] = []
    traces: dict = {"time": [], "count": []}
    window_start = time.perf_counter()
    deadline = window_start + seconds
    refs = [] if trace else [reference(workload, run_dir)]
    index = 0
    while True:
        kind = schedule(index, trace)
        out_dir = run_dir / f"op{index}"
        out_dir.mkdir(parents=True)
        args = [workload, run_dir / "inputs", out_dir]
        if kind != "plain":
            args += [out_dir / "trace.json", kind, index]
        timeout = HARD_LIMIT_S - (time.monotonic() - started)
        wall, cpu, rss, code = spawn(child_argv(*args), out_dir, timeout)
        try:
            workloads.check_output(workload, ref, manifest, code, out_dir)
            ops.append(Op(kind, wall, cpu, rss, True))
        except workloads.CheckFailed as exc:
            ops.append(Op(kind, wall, cpu, rss, False, str(exc)))
        if kind != "plain" and (out_dir / "trace.json").exists():
            traces[kind].append(json.loads((out_dir / "trace.json").read_text()))
        shutil.rmtree(out_dir)
        if not trace:
            refs.append(reference(workload, run_dir))
            ops[-1].ref_wall = (refs[-2][0] + refs[-1][0]) / 2
            ops[-1].ref_cpu = (refs[-2][1] + refs[-1][1]) / 2
        index += 1
        done = {op.kind for op in ops}
        if time.perf_counter() >= deadline and (not trace or done >= {"count", "time", "plain"}):
            break
        if time.monotonic() - started >= HARD_LIMIT_S:
            break
    window = time.perf_counter() - window_start
    return ops, traces, setup_s, window


def end_to_end(ops: list[Op], setup_s: float) -> dict:
    """The declared end-to-end metrics of an untraced run.

    Operation time is the median over operations of wall (or CPU) time
    divided by that of the reference operations around it.  Other tenants
    of a shared machine slow both alike, which cancels in the ratio; the
    raw seconds drift by tens of percent between runs, the ratio by a few.
    The raw medians are printed alongside by ``informational``.
    """
    plain = [op for op in ops if op.kind == "plain"]
    ok = [op for op in plain if op.ok]
    # a failed operation may have stopped early; its time is not an operation's
    timed = ok or plain
    return {
        "op_p50_rel": (statistics.median(op.wall / op.ref_wall for op in timed), "ratio"),
        "op_cpu_p50_rel": (statistics.median(op.cpu / op.ref_cpu for op in timed), "ratio"),
        "ok_ratio": (len(ok) / len(plain), "ratio"),
        "peak_rss_mb": (max(op.rss_mb for op in plain), "MiB"),
        "setup_s": (setup_s, "s"),
    }


def informational(ops: list[Op], window: float) -> dict:
    plain = [op for op in ops if op.kind == "plain"]
    ok = [op for op in plain if op.ok]
    return {
        "op_p50_s": (statistics.median(op.wall for op in plain), "s"),
        "op_cpu_p50_s": (statistics.median(op.cpu for op in plain), "s"),
        "reference_p50_s": (statistics.median(op.ref_wall for op in plain), "s"),
        "ops_per_s": (len(ok) / window, "1/s"),
        "fail_ratio": (1 - len(ok) / len(plain), "ratio"),
        "samples": (len(plain), "count"),
    }


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_op_layers(spans) -> dict:
    """Per-layer values of one traced operation, from its spans."""
    stats = tracer.summarize(spans)
    out = {f"{stage}.s": stats.get(stage, {}).get("s", 0.0) for stage in TIMED_STAGES}
    out["poly.rational_roots.self_s"] = stats.get("poly.rational_roots", {}).get("self_s", 0.0)
    out["sakuma.classify.self_s"] = stats.get("sakuma.classify", {}).get("self_s", 0.0)
    out["cli.self_s"] = tracer.module_self_seconds(spans, "cli")
    out["fusion.s"] = tracer.module_seconds(spans, "fusion")
    attrs = {}
    for s in spans:
        if s[5] is not None:
            attrs.setdefault(s[0], []).append(s[5])
    out["poly.rational_roots.roots"] = sum(a["roots"] for a in attrs.get("poly.rational_roots", []))
    res = attrs.get("poly.resultant", [])
    out["poly.resultant.out_degree_max"] = max((a["degree"] for a in res), default=0)
    out["poly.resultant.coeff_bits_max"] = max((a["bits"] for a in res), default=0)
    quotients = attrs.get("sakuma.discrepancy_quotient", [])
    last_per_point = {a["point"]: a["ideal_dim"] for a in quotients}
    out["sakuma.quotient_useful_ratio"] = len(last_per_point) / len(quotients) if quotients else 0.0
    out["sakuma.ideal_dim_sum"] = sum(last_per_point.values())
    closures = {i for i, s in enumerate(spans) if s[0] == "algebra.ideal_closure"}
    spans_in = sum(1 for s in spans if s[0] == "linalg.echelon_span" and s[4] in closures)
    out["algebra.ideal_closure.iterations"] = spans_in - len(closures)
    return out


def _unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("coeff_bits_max"):
        return "bits"
    return "count"


def per_layer(ops: list[Op], traces: dict) -> dict:
    per_op = [per_op_layers(t["spans"]) for t in traces["time"]]
    values = {name: _median(op[name] for op in per_op)
              for name in (per_op[0] if per_op else per_op_layers([]))}
    count = traces["count"][0] if traces["count"] else {"calls": {}, "fraction_ops": {}}
    for name in COUNTED_CALLS:
        values[f"{name}.calls"] = count["calls"].get(name, 0)
    fraction_ops = count["fraction_ops"]
    values["fraction.ops"] = sum(fraction_ops.values())
    for module in tracer.MODULES:
        values[f"{module}.fraction_ops"] = fraction_ops.get(module, 0)
    traced = _median(op.wall for op in ops if op.kind == "time")
    plain = _median(op.wall for op in ops if op.kind == "plain")
    values["trace.op_p50_s"] = traced
    values["trace.untraced_op_p50_s"] = plain
    values["trace.overhead_ratio"] = traced / plain if plain else 0.0
    return {name: (value, _unit(name)) for name, value in values.items()}


def stage_table(traces: dict) -> list[str]:
    """Median self and total seconds per span name, largest self time first."""
    rows = {}
    for t in traces["time"]:
        for name, st in tracer.summarize(t["spans"]).items():
            rows.setdefault(name, []).append((st["self_s"], st["s"], st["calls"]))
    table = sorted(((_median(r[0] for r in v), _median(r[1] for r in v),
                     _median(r[2] for r in v), name) for name, v in rows.items()),
                   reverse=True)
    lines = [f"  {name:<38} self {s:9.4f} s  total {t:9.4f} s  calls {c:g}"
             for s, t, c, name in table]
    # calls worth seeing one by one (each elimination order, root finding and
    # point), from the first traced operation
    for name in ("poly.resultant", "poly.rational_roots", "sakuma.discrepancy_quotient"):
        calls = [s for s in traces["time"][0]["spans"] if s[0] == name] if traces["time"] else []
        if calls:
            lines.append(f"  {name} per call: " + ", ".join(
                f"{s[2] - s[1]:.3f} s {s[5]}" for s in calls))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "axial" / "cli.py").is_file():
        print(f"bench: no program source at {ROOT / 'src' / 'axial'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    run_dir = BUILD_DIR / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        ops, traces, setup_s, window = measure(args.workload, args.seed, args.seconds,
                                               bool(args.trace), run_dir, started)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    failed = [op for op in ops if not op.ok]
    for op in failed:
        print(f"FAILED {op.kind} operation: {op.reason}")
    if args.trace:
        print(f"{args.workload}: stages of the traced operations (median per operation)")
        print("\n".join(stage_table(traces)))
        metrics = per_layer(ops, traces)
    else:
        metrics = end_to_end(ops, setup_s)
        for name, (value, unit) in informational(ops, window).items():
            print(f"  ({name} = {value:.6g} {unit})")
    plain = sum(1 for op in ops if op.kind == "plain")
    print(f"{args.workload}: {len(ops)} operations ({plain} untraced), seed {args.seed}")
    print("  wall s (/reference): " + " ".join(
        f"{op.kind[0]}{op.wall:.3f}" + (f"/{op.ref_wall:.3f}" if op.ref_wall else "") for op in ops))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
