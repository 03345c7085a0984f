"""The command outputs pinned byte for byte.

The files under ``golden/`` were written by the commands below before the
product/form kernel was unified and the discrepancy ideal was re-derived
from the symmetry closure; the classification report there lacks the
retired ``notes`` key.  ``solve.json`` was written again when ``solve``
stopped printing names (a name needs the quotient): it lists the certified
points as ``{"lambda", "mu"}`` in (lambda, mu) order.  ``rederive.txt`` and
``3c_check.json`` were written by ``axial sakuma rederive`` and
``axial algebra check fixtures/3c.json --json`` before the integer resultant,
evaluation and adjoint paths replaced the Fraction ones.  The table digest,
the associativity defects and p1, p2 are the ones the benchmark checks,
read from its reference file.
"""

import hashlib
import json
from pathlib import Path

from axial.cli import main
from axial.sakuma import associativity_defects, associativity_polynomials

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def symbolic_reference() -> dict:
    return json.loads((ROOT / "bench" / "reference" / "symbolic.json").read_text())


def test_table_json_digest(capsys):
    code, out = run(capsys, "sakuma", "table", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == symbolic_reference()["table_sha256"]


def test_associativity_defects_and_relations(uni):
    reference = symbolic_reference()
    defects = [[list(t), d.to_json()] for t, d in associativity_defects(uni)]
    assert defects == reference["defects"]
    p1, p2 = associativity_polynomials(uni)
    assert p1.to_json() == reference["p1"]
    assert p2.to_json() == reference["p2"]


def test_solve_json(capsys):
    code, out = run(capsys, "sakuma", "solve")
    assert code == 0
    assert out == (GOLDEN / "solve.json").read_text(encoding="utf-8")


def test_classify_report_and_summary(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out = run(capsys, "sakuma", "classify", "--out", str(out_file))
    assert code == 0
    assert out == (GOLDEN / "classify.txt").read_text(encoding="utf-8")
    assert out_file.read_text(encoding="utf-8") == \
        (GOLDEN / "classify.json").read_text(encoding="utf-8")


def test_rederive_summary(capsys):
    code, out = run(capsys, "sakuma", "rederive")
    assert code == 0
    assert out == (GOLDEN / "rederive.txt").read_text(encoding="utf-8")


def test_algebra_check_3c_json(capsys):
    code, out = run(capsys, "algebra", "check", str(ROOT / "fixtures" / "3c.json"), "--json")
    assert code == 0
    assert out == (GOLDEN / "3c_check.json").read_text(encoding="utf-8")
