"""The command outputs pinned byte for byte.

``golden/commands.txt`` lists the pinned commands, one row each: the exit
code, the golden file that holds the command's stdout, and the arguments of
``axial``.  An argument under ``fixtures/`` or ``tests/`` names a file of
the repository, and ``sakuma classify --out report.json`` also writes the
report that ``classify.json`` holds.  ``console_script.sh`` runs the same
rows through the installed ``axial``.

The files under ``golden/`` were written by those commands before the
product/form kernel was unified and the discrepancy ideal was re-derived
from the symmetry closure; the classification report there lacks the
retired ``notes`` key.  ``solve.json`` was written again when ``solve``
stopped printing names (a name needs the quotient): it lists the certified
points as ``{"lambda", "mu"}`` in (lambda, mu) order.  ``rederive.txt`` and
``3c_check.json`` were written by ``axial sakuma rederive`` and
``axial algebra check fixtures/3c.json --json`` before the integer resultant,
evaluation and adjoint paths replaced the Fraction ones.  The table digest,
the associativity defects and p1, p2 are the ones the benchmark checks,
read from its reference file; ``table.json``, the output of
``axial sakuma table --format json``, has that digest.
``fixtures/4b_dense.json`` is the 4B quotient re-expressed in a fixed
integer basis (`dense_four_b`), so that its tables are dense, and
``4b_dense_check.json`` is
``axial algebra check fixtures/4b_dense.json --json`` as the Fraction tables
computed it before an algebra was held only as integer tables.
``table.txt``, ``3c_check.txt`` and ``fusion_vir_4_3.txt``/``.json`` are
``axial sakuma table``, ``axial algebra check fixtures/3c.json`` and
``axial fusion vir 4 3`` without and with ``--json``, written before the
Fraction twins of the integer entry points were removed.
``4b_dense_check.txt`` and ``3c_raw_check.json`` are
``axial algebra check fixtures/4b_dense.json`` and
``axial algebra check fixtures/3c.json --raw --json``, written while
eigenspaces and ideals were still passed on as monic Fraction rows and the
form check decomposed every axis a second time.
``4b_dense_narrow_check.json`` and ``4b_dense_vir_5_4_check.json`` are
``axial algebra check fixtures/4b_dense.json --json`` with
``--fusion fixtures/ising_narrow.json`` and ``--fusion vir:5,4``, two checks
that fail with exit code 1, written while the fusion law was still decided
by one rank per pair of eigenvalues: under the narrowed law both axes break
it at (1/4, 1/4) and (1/32, 1/32), and under V(5, 4) neither axis is
semisimple.
"""

import hashlib
import json
from fractions import Fraction as Q

import pytest

from axial import linalg
from axial.cli import main
from axial.sakuma import (A0, A1, EvalPoint, associativity_defects, associativity_polynomials,
                          discrepancy_quotient)
from conftest import POINT_AT, ROOT, fraction_inverse, repo_argv

GOLDEN = ROOT / "tests" / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def symbolic_reference() -> dict:
    return json.loads((ROOT / "bench" / "reference" / "symbolic.json").read_text())


def test_table_json_digest():
    table = (GOLDEN / "table.json").read_bytes()
    assert hashlib.sha256(table).hexdigest() == symbolic_reference()["table_sha256"]


def test_associativity_defects_and_relations(uni):
    reference = symbolic_reference()
    defects = [[list(t), d.to_json()] for t, d in associativity_defects(uni)]
    assert defects == reference["defects"]
    p1, p2 = associativity_polynomials(uni)
    assert p1.to_json() == reference["p1"]
    assert p2.to_json() == reference["p2"]


COMMANDS = [(int(want), golden, repo_argv(args)) for want, golden, args in
            (row.split(maxsplit=2) for row in
             (GOLDEN / "commands.txt").read_text(encoding="utf-8").splitlines())]


@pytest.mark.parametrize("want, golden, argv", COMMANDS, ids=[row[1] for row in COMMANDS])
def test_pinned_command(tmp_path, monkeypatch, capsys, want, golden, argv):
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, *argv)
    assert code == want
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")
    if "report.json" in argv:
        assert (tmp_path / "report.json").read_text(encoding="utf-8") == \
            (GOLDEN / "classify.json").read_text(encoding="utf-8")


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys):
    # main runs many times in one process (the verify benchmark calls it
    # nine times): an option or a usage error of one call must not reach
    # the next
    fixture = str(ROOT / "fixtures" / "3c.json")
    code, out = run(capsys, "algebra", "check", fixture, "--raw", "--json")
    assert code == 0
    assert out == (GOLDEN / "3c_raw_check.json").read_text(encoding="utf-8")
    code, out = run(capsys, "algebra", "check", fixture, "--json")
    assert code == 0
    assert out == (GOLDEN / "3c_check.json").read_text(encoding="utf-8")
    target = tmp_path / "x.json"
    with pytest.raises(SystemExit) as err:
        main(["sakuma", "solve", "--out", str(target)])
    assert err.value.code == 2
    assert not target.exists()
    assert "unrecognized arguments" in capsys.readouterr().err
    code, out = run(capsys, "algebra", "check", fixture, "--json")
    assert code == 0
    assert out == (GOLDEN / "3c_check.json").read_text(encoding="utf-8")


# the basis after the two axes: fixed integer vectors, with which nearly
# every product coordinate and form value in the new basis is nonzero
DENSE_EXTRA = [[1, 1, 0, 1, 0], [0, 1, 1, -1, 2], [2, 0, 1, 1, -1]]


def dense_four_b(uni) -> dict:
    """The 4B quotient in the basis (a0, a1, DENSE_EXTRA...), a0 and a1
    marked, as algebra JSON; products and forms are plain Fraction sums over
    the quotient's Fraction tables."""
    disc = discrepancy_quotient(uni, EvalPoint(*POINT_AT["4B"]))
    quot, proj = disc.quotient, disc.projection
    axes = [[row[i] for row in proj] for i in (A0, A1)]
    basis = axes + [[Q(x) for x in v] for v in DENSE_EXTRA]
    n = quot.dim
    back = fraction_inverse(linalg.transpose(basis))  # old coordinates -> new
    product, gram = quot.product, quot.gram

    def mult(x, y):
        out = [Q(0)] * n
        for i in range(n):
            for j in range(n):
                out = [o + x[i] * y[j] * p for o, p in zip(out, product[i][j])]
        return [sum((back[r][k] * out[k] for k in range(n)), Q(0)) for r in range(n)]

    def form(x, y):
        return sum((x[i] * y[j] * gram[i][j] for i in range(n) for j in range(n)), Q(0))

    return {
        "dim": n,
        "labels": [f"b{i}" for i in range(n)],
        "product": [[[str(c) for c in mult(u, v)] for v in basis] for u in basis],
        "gram": [[str(form(u, v)) for v in basis] for u in basis],
        "marked": [0, 1],
    }


def test_dense_fixture_matches_generator(uni):
    data = json.loads((ROOT / "fixtures" / "4b_dense.json").read_text())
    assert data == dense_four_b(uni)
    # dense: only the axis squares a0 a0 = a0 and a1 a1 = a1 have a zero coordinate
    zeros = [(i, j) for i, row in enumerate(data["product"]) for j, vec in enumerate(row)
             if "0" in vec]
    assert zeros == [(0, 0), (1, 1)]
