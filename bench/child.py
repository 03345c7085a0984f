"""One benchmark operation, run by ``run.py`` in a fresh interpreter.

    python3 bench/child.py WORKLOAD INPUT_DIR OUT_DIR [TRACE_FILE MODE OP_ID]
    python3 bench/child.py warm
    python3 bench/child.py reference FRACTION_REPEATS INTEGER_REPEATS

With a trace file, ``tracer.Recorder`` wraps the program's public functions
before the operation runs and writes what it recorded when it ends; MODE is
``time`` (spans) or ``count`` (call and Fraction-operation counts).  The
program's own output is the same either way.  ``warm`` only imports the
program and the benchmark, which fills the bytecode cache during set-up.
``reference`` never touches the program: FRACTION_REPEATS times it
re-expresses the nine stored quotients in fixed random bases with plain
``fractions``, and INTEGER_REPEATS times it counts the divisors of a fixed
integer by trial division.  That is a fixed amount of the two kinds of work
the program does, Fraction arithmetic and long integer loops, whose time
tracks how fast the shared machine is running at that moment.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))


def capture_stdout(argv) -> tuple[int, str]:
    """Run the CLI in this interpreter; (exit code, what it printed)."""
    import contextlib
    import io

    from axial import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def run(workload: str, input_dir: Path, out_dir: Path) -> int:
    import json

    from axial import cli, sakuma

    if workload == "classify":
        return cli.main(["sakuma", "classify", "--out", str(out_dir / "report.json")])
    if workload == "symbolic":
        uni = sakuma.build_universal()
        defects = sakuma.associativity_defects(uni)
        p1, p2 = sakuma.associativity_polynomials(uni)
        rederive = sakuma.rederive_products(uni)
        code, table = capture_stdout(["sakuma", "table", "--format", "json"])
        (out_dir / "table.json").write_text(table, encoding="utf-8")
        result = {
            "table_exit": code,
            "defects": [[list(t), d.to_json()] for t, d in defects],
            "p1": p1.to_json(),
            "p2": p2.to_json(),
            "rederive_passed": rederive.passed,
        }
        (out_dir / "symbolic.json").write_text(json.dumps(result), encoding="utf-8")
        return 0
    if workload == "verify":
        results = {}
        for path in sorted(input_dir.glob("*.json")):
            code, text = capture_stdout(["algebra", "check", str(path), "--json"])
            results[path.name] = {"exit": code, "stdout": text}
        (out_dir / "verify.json").write_text(json.dumps(results), encoding="utf-8")
        return 0
    raise SystemExit(f"unknown workload {workload!r}")


def trial_division_count(n: int) -> int:
    count, d = 0, 1
    while d * d <= n:
        if n % d == 0:
            count += 1
        d += 1
    return count


def main(argv) -> int:
    if argv == ["warm"]:
        import axial.cli  # noqa: F401
        sys.path.insert(0, str(BENCH_DIR))
        import workloads  # noqa: F401
        return 0
    if argv[0] == "reference":
        import random

        sys.path.insert(0, str(BENCH_DIR))
        import workloads

        points = workloads.load_reference("verify")["points"]
        for k in range(int(argv[1])):
            for point in points:
                workloads.change_basis(point, random.Random(f"reference:{k}:{point['name']}"))
        for _ in range(int(argv[2])):
            trial_division_count(3 << 38)
        return 0
    workload, input_dir, out_dir = argv[0], Path(argv[1]), Path(argv[2])
    if len(argv) == 3:
        return run(workload, input_dir, out_dir)
    trace_file, mode, op_id = argv[3], argv[4], int(argv[5])
    sys.path.insert(0, str(BENCH_DIR))
    import tracer

    rec = tracer.Recorder(op_id, count=(mode == "count"))
    rec.install()
    try:
        return run(workload, input_dir, out_dir)
    finally:
        rec.uninstall()
        rec.dump(Path(trace_file))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
