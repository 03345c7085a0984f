"""Workload inputs, reference data and output checks.

One operation of each workload runs in a fresh interpreter (``child.py``):

* ``classify`` -- ``axial sakuma classify --out FILE``; every module works.
* ``symbolic`` -- ``build_universal``, ``associativity_defects``,
  ``associativity_polynomials``, ``rederive_products`` and
  ``sakuma table --format json``; polynomial ring arithmetic, no root
  finding and no row reduction.
* ``verify``   -- ``axial algebra check FILE --json`` over the nine quotient
  algebras, re-expressed in a basis drawn from the seed; ``algebra`` and
  ``linalg`` on dense Fractions, ``poly`` never runs.

The seed only drives the change of basis for ``verify``; ``classify`` and
``symbolic`` take no input.  The change of basis uses plain ``fractions``
here, not ``axial.linalg``, so the inputs do not depend on the code under
test.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"
WORKLOADS = ("classify", "symbolic", "verify")
CLASSIFY_KEYS = ("name", "lambda", "mu", "dim", "ideal_dim", "rho_order", "shift_order")
# entries of the random basis vectors are drawn from this range
ENTRY_RANGE = 3


class CheckFailed(Exception):
    """An operation's output does not match the reference."""


def load_reference(workload: str) -> dict:
    name = {"classify": "classify.json", "symbolic": "symbolic.json",
            "verify": "quotients.json"}[workload]
    return json.loads((REFERENCE_DIR / name).read_text(encoding="utf-8"))


# -- seeded inputs ---------------------------------------------------------


def _rank(vectors) -> int:
    rows = [list(v) for v in vectors]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c] / rows[rank][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _inverse(m):
    """Inverse of a square Fraction matrix by Gauss-Jordan, or None if singular."""
    n = len(m)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if aug[r][c]), None)
        if pivot is None:
            return None
        aug[c], aug[pivot] = aug[pivot], aug[c]
        pv = aug[c][c]
        aug[c] = [x / pv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def _multiply(product, x, y):
    n = len(x)
    out = [Fraction(0)] * n
    for i in range(n):
        if x[i]:
            for j in range(n):
                if y[j]:
                    c = x[i] * y[j]
                    out = [o + c * p for o, p in zip(out, product[i][j])]
    return out


def change_basis(point: dict, rng: random.Random):
    """Re-express a reference quotient in a random basis.

    The first basis vectors are the generating axes (one when they
    coincide, as in 1A) and become the marked indices; the rest are random
    integer vectors.  Returns (algebra JSON, spectra by marked label).
    """
    alg = point["algebra"]
    n = alg["dim"]
    product = [[[Fraction(c) for c in vec] for vec in row] for row in alg["product"]]
    gram = [[Fraction(c) for c in row] for row in alg["gram"]]
    cols, spectra = [], []
    for axis, spectrum in zip(point["axes"], point["spectra"]):
        vec = [Fraction(c) for c in axis]
        if _rank(cols + [vec]) > len(cols):
            cols.append(vec)
            spectra.append(spectrum)
    while True:
        extra = [[Fraction(rng.randint(-ENTRY_RANGE, ENTRY_RANGE)) for _ in range(n)]
                 for _ in range(n - len(cols))]
        basis = cols + extra
        inv = _inverse([list(r) for r in zip(*basis)])
        if inv is not None:
            break
    new_product = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            w = _multiply(product, basis[i], basis[j])
            vec = [str(sum((inv[r][k] * w[k] for k in range(n)), Fraction(0))) for r in range(n)]
            new_product[i][j] = new_product[j][i] = vec
    new_gram = [[str(sum((basis[i][r] * gram[r][s] * basis[j][s]
                          for r in range(n) for s in range(n)), Fraction(0)))
                 for j in range(n)] for i in range(n)]
    labels = [f"b{i}" for i in range(n)]
    data = {"dim": n, "labels": labels, "product": new_product, "gram": new_gram,
            "marked": list(range(len(cols)))}
    return data, {labels[i]: s for i, s in enumerate(spectra)}


def make_inputs(workload: str, seed: int, ref: dict, directory: Path) -> dict:
    """Write the workload's input files and return the manifest the checks use."""
    if workload != "verify":
        return {}
    directory.mkdir(parents=True, exist_ok=True)
    expected = {}
    for k, point in enumerate(ref["points"]):
        rng = random.Random(f"{seed}:{point['name']}")
        data, spectra = change_basis(point, rng)
        name = f"{k}-{point['name']}.json"
        (directory / name).write_text(json.dumps(data, sort_keys=True), encoding="utf-8")
        expected[name] = spectra
    return {"expected": expected}


# -- output checks -----------------------------------------------------------


def _load_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"cannot read {path.name}: {exc}") from None


def check_classify(ref: dict, exit_code: int, out_dir: Path) -> None:
    if exit_code != 0:
        raise CheckFailed(f"exit code {exit_code}")
    report = _load_json(out_dir / "report.json")
    if report.get("passed") is not True:
        raise CheckFailed("report does not say passed: true")
    if report.get("total_dim") != ref["total_dim"]:
        raise CheckFailed(f"total_dim {report.get('total_dim')} != {ref['total_dim']}")
    points = report.get("points")
    if not isinstance(points, list) or len(points) != len(ref["points"]):
        raise CheckFailed("wrong number of points")
    for got, want in zip(points, ref["points"]):
        for key in CLASSIFY_KEYS:
            if got.get(key) != want[key]:
                raise CheckFailed(f"{want['name']}: {key} {got.get(key)!r} != {want[key]!r}")


def check_symbolic(ref: dict, exit_code: int, out_dir: Path) -> None:
    if exit_code != 0:
        raise CheckFailed(f"exit code {exit_code}")
    try:
        table = (out_dir / "table.json").read_bytes()
    except OSError as exc:
        raise CheckFailed(f"cannot read table.json: {exc}") from None
    if hashlib.sha256(table).hexdigest() != ref["table_sha256"]:
        raise CheckFailed("table JSON differs from the reference")
    result = _load_json(out_dir / "symbolic.json")
    if result.get("table_exit") != 0:
        raise CheckFailed(f"sakuma table exit code {result.get('table_exit')}")
    if result.get("defects") != ref["defects"]:
        raise CheckFailed("associativity defects differ from the reference")
    if result.get("p1") != ref["p1"] or result.get("p2") != ref["p2"]:
        raise CheckFailed("associativity relations differ from the reference")
    if result.get("rederive_passed") is not True:
        raise CheckFailed("rederive does not pass")


def check_verify(manifest: dict, exit_code: int, out_dir: Path) -> None:
    if exit_code != 0:
        raise CheckFailed(f"exit code {exit_code}")
    results = _load_json(out_dir / "verify.json")
    expected = manifest["expected"]
    if not isinstance(results, dict) or sorted(results) != sorted(expected):
        raise CheckFailed("checked files differ from the inputs")
    for name, spectra in expected.items():
        res = results[name]
        if res.get("exit") != 0:
            raise CheckFailed(f"{name}: exit code {res.get('exit')}")
        try:
            report = json.loads(res.get("stdout", ""))
        except ValueError:
            raise CheckFailed(f"{name}: output is not JSON") from None
        if report.get("passed") is not True:
            raise CheckFailed(f"{name}: passed is not true")
        axes = report.get("axes", {})
        if sorted(axes) != sorted(spectra):
            raise CheckFailed(f"{name}: checked axes {sorted(axes)} != {sorted(spectra)}")
        for label, spectrum in spectra.items():
            if axes[label].get("spectrum") != spectrum:
                raise CheckFailed(f"{name}: axis {label} spectrum differs")


def check_output(workload: str, ref: dict, manifest: dict, exit_code: int,
                 out_dir: Path) -> None:
    """Raise CheckFailed unless one operation's output matches the reference."""
    if workload == "classify":
        check_classify(ref, exit_code, out_dir)
    elif workload == "symbolic":
        check_symbolic(ref, exit_code, out_dir)
    else:
        check_verify(manifest, exit_code, out_dir)
