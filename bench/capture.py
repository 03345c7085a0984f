"""Capture the benchmark's reference data from the program as it stands.

Run from the repository root, once per deliberate change of the program's
results (never to make a failing benchmark pass):

    python3 bench/capture.py

It writes three files under ``bench/reference/``:

* ``classify.json``  -- the per-point invariants of ``sakuma classify``;
* ``symbolic.json``  -- the SHA-256 of ``sakuma table --format json``, the
  associativity defect list and the two relations p1, p2;
* ``quotients.json`` -- the nine quotient algebras in the README algebra
  format, each with its two generating axes (as coordinate vectors) and the
  axis spectra reported by ``check_axis``.

The ``verify`` workload reads only ``quotients.json``, so a later change to
the quotient code cannot change that workload's inputs.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from axial import linalg, sakuma  # noqa: E402
from axial.algebra import check_axis  # noqa: E402
from axial.fusion import frobenius_refine, virasoro_rules  # noqa: E402
from child import capture_stdout  # noqa: E402
from workloads import CLASSIFY_KEYS, REFERENCE_DIR  # noqa: E402


def capture_classify(tmp: Path) -> dict:
    out = tmp / "classify.json"
    code, _ = capture_stdout(["sakuma", "classify", "--out", str(out)])
    report = json.loads(out.read_text(encoding="utf-8"))
    if code != 0 or report["passed"] is not True:
        raise SystemExit("classify does not pass; refusing to capture a reference")
    return {
        "total_dim": report["total_dim"],
        "points": [{k: p[k] for k in CLASSIFY_KEYS} for p in report["points"]],
    }


def capture_symbolic() -> dict:
    code, table = capture_stdout(["sakuma", "table", "--format", "json"])
    if code != 0:
        raise SystemExit("sakuma table failed")
    uni = sakuma.build_universal()
    p1, p2 = sakuma.associativity_polynomials(uni)
    if not sakuma.rederive_products(uni).passed:
        raise SystemExit("rederive does not pass; refusing to capture a reference")
    return {
        "table_sha256": hashlib.sha256(table.encode("utf-8")).hexdigest(),
        "defects": [[list(t), d.to_json()] for t, d in sakuma.associativity_defects(uni)],
        "p1": p1.to_json(),
        "p2": p2.to_json(),
    }


def capture_quotients() -> dict:
    rules = frobenius_refine(virasoro_rules(4, 3))
    uni = sakuma.build_universal()
    points = []
    for pt in sakuma.solve_points(uni):
        disc = sakuma.discrepancy_quotient(uni, pt)
        axes = [linalg.matvec(disc.projection, disc.evaluated.basis_vector(i))
                for i in (sakuma.A0, sakuma.A1)]
        reports = [check_axis(disc.quotient, ax, rules) for ax in axes]
        if not all(r.passed for r in reports):
            raise SystemExit(f"axis check fails at {pt.name}; refusing to capture")
        points.append({
            "name": pt.name,
            "algebra": disc.quotient.to_json(),
            "axes": [[str(c) for c in ax] for ax in axes],
            "spectra": [r.to_json()["spectrum"] for r in reports],
        })
    return {"points": points}


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    build = BENCH_DIR.parent / ".bench_build"
    build.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build) as tmp:
        classify = capture_classify(Path(tmp))
    data = {
        "classify.json": classify,
        "symbolic.json": capture_symbolic(),
        "quotients.json": capture_quotients(),
    }
    for name, value in data.items():
        path = REFERENCE_DIR / name
        path.write_text(json.dumps(value, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
