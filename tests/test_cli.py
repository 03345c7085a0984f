import json
import os
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

from axial.algebra import ConsistencyError, ShapeError, StructureAlgebra
from axial import cli, fusion, sakuma
from axial.cli import main
from axial.fusion import FusionRules, frobenius_refine, virasoro_rules
from axial.poly import MultiPoly

from conftest import POINT_AT, ROOT, repo_argv, three_c

FIXTURE = ROOT / "fixtures" / "3c.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_fusion_table_json_round_trips(capsys):
    code, out = run(capsys, "fusion", "vir", "5", "3", "--json")
    assert code == 0
    data = json.loads(out)
    rules = FusionRules.from_json(data)
    assert rules.central_charge == Q(-3, 5)
    assert [g for g in data["gradings"] if g["odd"]] == [
        {"even": ["0", "1", "1/10"], "odd": ["-1/40", "3/8"]}
    ]


def test_fusion_rejects_bad_pq(capsys):
    assert main(["fusion", "vir", "4", "2"]) == 2
    assert "coprime" in capsys.readouterr().err


def _not_json(path):
    path.write_text("not json")


def _short_product(path):
    data = three_c().to_json()
    data["product"] = data["product"][:2]
    path.write_text(json.dumps(data))


def _edited(edit):
    def make(path):
        data = three_c().to_json()
        edit(data)
        path.write_text(json.dumps(data))
    return make


def _marked(index):
    return _edited(lambda data: data.update(marked=[0, index]))


def _missing(key):
    return _edited(lambda data: data.pop(key))


def _idempotent_pair(labels):
    """Two orthogonal idempotents with <x, x> = 2 and <y, y> = 1, both marked:
    the first fails the norm check <a, a> = 1 of V(4, 3), the second passes,
    so with one label for both the passing report would hide the failing one."""
    def make(path):
        product = [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]]
        path.write_text(json.dumps({"labels": labels, "product": product,
                                    "gram": [["2", "0"], ["0", "1"]], "marked": [0, 1]}))
    return make


def _array(path):
    path.write_text(json.dumps([three_c().to_json()]))


def _rules(edit):
    def make(path):
        data = virasoro_rules(4, 3).to_json()
        edit(data)
        path.write_text(json.dumps(data))
    return make


def _written(data):
    def make(path):
        path.write_text(json.dumps(data))
    return make


def _string_product_set(data):
    # 0 * 0 = {1, 0} written as the string "01" in place of ["0", "1"]
    data["star"] = [[f, g, "".join(h) if (f, g) == ("0", "0") else h]
                    for f, g, h in data["star"]]


@pytest.mark.parametrize("argv, make_file, message", [
    (["algebra", "check", str(FIXTURE), "--fusion", "vir:4"], None, None),
    (["algebra", "check", str(FIXTURE), "--fusion", "vir:6,4"], None, None),
    (["fusion", "vir", "4", "2"], None, None),
    (["fusion", "vir", "-4", "3"], None, None),
    (["algebra", "check", "{file}"], _not_json, None),
    (["algebra", "check", "{file}"], _short_product, None),
    (["algebra", "check", "{file}"], _marked(3), None),
    (["algebra", "check", "{file}"], _marked(-1), None),
    (["algebra", "check", "{file}"],
     _edited(lambda data: data["gram"][0].__setitem__(0, "x")), None),
    (["algebra", "check", "{file}"], _missing("gram"), None),
    (["algebra", "check", "{file}"], _missing("product"), None),
    (["algebra", "check", "{file}"], _missing("labels"), None),
    (["algebra", "check", "{file}"], _array, None),
    (["algebra", "check", "{file}"], _edited(lambda data: data.update(marked=5)), None),
    (["algebra", "check", "{file}"], _edited(lambda data: data.update(labels=3)), None),
    (["algebra", "check", "{file}"],
     _edited(lambda data: data["gram"][0].__setitem__(0, 0.1)), None),
    (["algebra", "check", "{file}"],
     _edited(lambda data: data["product"][0][0].__setitem__(0, True)), None),
    (["algebra", "check", "{file}"],
     _edited(lambda data: data["gram"][0].__setitem__(0, {"0,0": 0.5})), None),
    (["algebra", "check", "{file}"], _idempotent_pair(["x", "x"]), None),
    (["algebra", "check", "{file}"],
     _edited(lambda data: data["labels"].__setitem__(1, 1)), None),
    (["algebra", "check", "{file}", "--json"],
     _edited(lambda data: data["labels"].__setitem__(1, 1)), None),
    (["algebra", "check", "{file}"],
     _edited(lambda data: data["labels"].__setitem__(1, ["b"])), None),
    (["algebra", "check", "{file}"], _edited(lambda data: data.update(marked=[True])), None),
    (["algebra", "check", str(FIXTURE), "--fusion", "{file}"],
     _rules(lambda data: data.clear()), None),
    (["algebra", "check", str(FIXTURE), "--fusion", "{file}"],
     _rules(lambda data: data["fields"].__setitem__(0, "x")), None),
    # a string where a list belongs must not be read one character at a time
    (["algebra", "check", "{file}"],
     _written({"labels": ["x", "y"],
               "product": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]],
               "gram": ["10", "01"]}), None),
    (["algebra", "check", str(FIXTURE), "--fusion", "{file}"],
     _rules(_string_product_set), None),
    (["algebra", "check", str(FIXTURE), "--fusion", "{file}"],
     _rules(lambda data: data.update(fields="1")), None),
    (["algebra", "check", str(FIXTURE), "--fusion", "{file}"],
     _rules(lambda data: data["fields"].append(data["fields"][1])), "fields must be distinct"),
    # 0*0 = {1/4} in a law whose only fields are 1 and 0
    (["algebra", "check", str(FIXTURE), "--fusion", "{file}"],
     _written({"central_charge": "1/2", "fields": ["1", "0"],
               "star": [["1", "1", ["1"]], ["1", "0", ["0"]], ["0", "0", ["1/4"]]]}),
     "star(0, 0) leaves the field set"),
    (["algebra", "check", "{file}"], _edited(lambda data: data.update(dim=7)),
     "dim 7 is not the number of labels, 3"),
    (["algebra", "check", "{file}"], _edited(lambda data: data.update(dim="x")),
     "dim 'x' is not the number of labels, 3"),
], ids=["fusion-one-number", "fusion-not-coprime", "fusion-table-not-coprime",
        "fusion-table-negative-p", "algebra-not-json", "algebra-wrong-shape",
        "algebra-marked-too-large",
        "algebra-marked-negative", "algebra-entry-not-rational", "algebra-no-gram",
        "algebra-no-product", "algebra-no-labels", "algebra-top-level-array",
        "algebra-marked-not-a-list", "algebra-labels-not-a-list", "algebra-gram-entry-float",
        "algebra-product-entry-bool", "algebra-polynomial-coefficient-float",
        "algebra-duplicate-labels", "algebra-int-label", "algebra-int-label-json",
        "algebra-list-label", "algebra-marked-bool", "fusion-file-empty-object",
        "fusion-file-field-not-rational", "algebra-string-gram-rows",
        "fusion-file-string-product-set", "fusion-file-string-fields",
        "fusion-file-duplicate-field", "fusion-file-product-outside-fields",
        "algebra-dim-not-the-label-count", "algebra-dim-not-an-int"])
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, argv, make_file, message):
    path = tmp_path / "input.json"
    if make_file is not None:
        make_file(path)
    code = main([arg.format(file=path) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("axial: error: ")
    if message is not None:
        assert captured.err.rstrip("\n").endswith(message)


# tests/refusals.txt, one row per input that must fail: the exit code, the
# number of stderr lines and the arguments of axial; console_script.sh runs
# the same rows through the installed axial
REFUSALS = [(int(want), int(lines), args) for want, lines, args in
            (row.split(maxsplit=2) for row in
             (ROOT / "tests" / "refusals.txt").read_text(encoding="utf-8").splitlines())]

# the end of a refusal's stderr line, by the stem of its last argument
REFUSAL_MESSAGES = {
    # certify keeps one axis per label, so a repeat was dropped without a word
    "repeated_marked": "marked index 0 is repeated in [0, 0, 1]",
    "table": "an entry is a polynomial, so the algebra is not rational",
    # a string where a list belongs must not be read one character at a time
    "strings": "product and gram must be nested lists",
    # an exponent past the int-digit limit is refused before 10**e is formed
    "exponent": "entry '1e100000000' is not a rational literal",
    "exponent_rules":
        f"the exponent of '1e100000000' exceeds the {sys.get_int_max_str_digits()}-digit limit",
    # json.load recurses once per level, so 1000 levels raise RecursionError
    "deep": "while decoding a JSON array from a unicode string",
    # the later of two rows for 1 * 1 decided the check
    "two_product_sets": "star gives the pair (1, 1) two product sets",
    "pair_outside_fields": "star table has the pair (2, 2) outside the fields",
    # sakuma solve --out x.json: an option of classify alone
    "x": "unrecognized arguments: --out x.json",
    # an empty path is a path that cannot be opened, not a missing --out
    "--out=": "cannot write : [Errno 2] No such file or directory: ''",
    "report": "cannot write missing/report.json: "
              "[Errno 2] No such file or directory: 'missing/report.json'",
}


def refusal_id(args: str) -> str:
    return "-".join(Path(a).stem if "/" in a else a.lstrip("-") for a in args.split())


@pytest.mark.parametrize("want, lines, args", REFUSALS, ids=[refusal_id(r[2]) for r in REFUSALS])
def test_refusal(tmp_path, monkeypatch, capsys, want, lines, args):
    # each row runs in an empty directory, which stays empty
    monkeypatch.chdir(tmp_path)
    try:
        code = main(repo_argv(args))
    except SystemExit as exc:  # a usage error
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.err.count("\n")) == (want, lines)
    if code == 2:
        assert captured.out == "" and captured.err.startswith("axial: error: ")
    message = REFUSAL_MESSAGES.get(Path(args.split()[-1]).stem, "")
    assert captured.err.rstrip("\n").endswith(message)
    assert list(tmp_path.iterdir()) == []


def test_algebra_check_detects_broken_form(tmp_path, capsys):
    alg = three_c()
    data = alg.to_json()
    data["gram"][0][1] = "1/2"  # breaks symmetry with gram[1][0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code = main(["algebra", "check", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("axial: error: ")
    assert "not symmetric" in captured.err
    # a symmetric but non-associating form exits 1 instead
    data["gram"][0][1] = "1/2"
    data["gram"][1][0] = "1/2"
    bad.write_text(json.dumps(data))
    code, _ = run(capsys, "algebra", "check", str(bad))
    assert code == 1
    # so does <a, c> = 1/32 in place of 1/64, which keeps every eigenspace
    # but breaks the perpendicularity of those of a and of c
    data = three_c().to_json()
    data["gram"][0][2] = data["gram"][2][0] = "1/32"
    bad.write_text(json.dumps(data))
    code, out = run(capsys, "algebra", "check", str(bad), "--json")
    assert code == 1
    report = json.loads(out)
    assert report["form"]["perpendicular"] == {"a": False, "b": True, "c": False}
    assert all(axis["passed"] for axis in report["axes"].values())
    assert report["passed"] is False


@pytest.mark.parametrize("edit", [lambda data: data.pop("marked"),
                                  lambda data: data.update(marked=[])],
                         ids=["missing", "empty"])
def test_algebra_check_with_no_marked_axis_fails(edit, tmp_path, capsys):
    # every axis and the form pass vacuously, but no axis generates the algebra
    data = json.loads(FIXTURE.read_text())
    edit(data)
    path = tmp_path / "unmarked.json"
    path.write_text(json.dumps(data))
    code, out = run(capsys, "algebra", "check", str(path))
    assert (code, out) == (1, "form: ok\nFAIL\n")
    code, out = run(capsys, "algebra", "check", str(path), "--json")
    report = json.loads(out)
    assert code == 1
    assert (report["axes"], report["form"]["passed"], report["passed"]) == ({}, True, False)


def test_algebra_check_polynomial_entry_exits_2(tmp_path, capsys):
    # the axis checks need a rational algebra, so a polynomial entry is refused
    data = three_c().to_json()
    data["gram"][0][0] = {"1,0": "1"}
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps(data))
    with pytest.raises(ShapeError, match="an entry is a polynomial"):
        StructureAlgebra.from_json(data)
    code = main(["algebra", "check", str(poly), "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("axial: error: ")
    assert captured.err.rstrip().endswith("not rational")


def test_startup_loads_no_dataclass_machinery():
    # every command pays for each module `import axial.cli` loads:
    # dataclasses with inspect, ast, dis and tokenize cost about 8 ms, and
    # argparse with gettext about 3 ms; only the sakuma commands need
    # axial.sakuma
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import axial.cli; "
            "axial.cli.main(sys.argv[2:]); print(sorted({'argparse', 'dataclasses', "
            "'inspect', 'axial.sakuma'} & sys.modules.keys()))")
    for argv, golden in ((["fusion", "vir", "4", "3"], "fusion_vir_4_3.txt"),
                         (["fusion", "vir", "4", "3", "--json"], "fusion_vir_4_3.json"),
                         (["algebra", "check", str(FIXTURE)], "3c_check.txt")):
        done = subprocess.run([sys.executable, "-I", "-c", code, str(ROOT / "src"), *argv],
                              capture_output=True, text=True, check=True)
        *printed, loaded = done.stdout.splitlines(keepends=True)
        assert "".join(printed) == (ROOT / "tests" / "golden" / golden).read_text()
        assert loaded == "[]\n"


@pytest.mark.parametrize("argv, phrase", [
    ([], "the following arguments are required"),
    (["sakuma"], "the following arguments are required"),
    (["fusion", "vir", "4"], "the following arguments are required"),
    (["fusion", "vir", "a", "3"], "invalid int value"),
    (["sakuma", "table", "--format", "xml"], "invalid choice"),
    (["sakuma", "classify", "--out"], "expected one argument"),
    (["algebra", "check", "--json"], "the following arguments are required"),
    # long options are spelled in full, not abbreviated
    (["sakuma", "table", "--fo", "json"], "unrecognized arguments"),
    (["sakuma", "plot"], "argument action: invalid choice: 'plot' "
                         "(choose from 'table', 'solve', 'classify', 'rederive')"),
    (["frob"], "argument command: invalid choice: 'frob' "
               "(choose from 'fusion', 'algebra', 'sakuma')"),
], ids=["no-command", "no-action", "missing-q", "p-not-an-int", "format-not-a-choice",
        "out-without-value", "missing-file", "abbreviated-option",
        "action-not-a-choice", "command-not-a-choice"])
def test_usage_error_writes_one_line_and_exits_2(argv, phrase, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(argv)
    captured = capsys.readouterr()
    assert err.value.code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("axial: error: ")
    assert phrase in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["--help"], ["sakuma", "--help"], ["algebra", "check", "--help"], ["fusion", "vir", "-h"],
], ids=["top", "sakuma", "algebra-check", "fusion-vir-short"])
def test_help_prints_the_synopsis(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    captured = capsys.readouterr()
    assert err.value.code == 0
    assert captured.err == ""
    assert captured.out == cli.__doc__
    assert "    axial sakuma classify [--out FILE]\n" in captured.out


@pytest.mark.parametrize("argv", [
    ["algebra", "check", "--json", str(FIXTURE)],
    ["algebra", "check", str(FIXTURE), "--fusion=vir:4,3", "--json"],
    ["algebra", "check", "--fusion", "vir:4,3", "--json", "--", str(FIXTURE)],
], ids=["option-first", "equals-sign", "double-dash"])
def test_options_go_before_or_after_positionals(argv, capsys):
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == (ROOT / "tests" / "golden" / "3c_check.json").read_text(encoding="utf-8")


@pytest.fixture
def fresh_tables():
    # as in a fresh process: no V(p, q) is built yet, nor the law that
    # sakuma.ising_law reads off fusion.virasoro
    fusion.virasoro.cache_clear()
    sakuma.ising_law.cache_clear()


def test_each_virasoro_table_is_built_once_per_process(fresh_tables, monkeypatch, capsys):
    # the refinement copies the cached table: a refined check before a raw
    # one leaves the raw output as it was
    calls = []
    monkeypatch.setattr(fusion, "virasoro_rules",
                        lambda p, q: calls.append((p, q)) or virasoro_rules(p, q))
    assert run(capsys, "algebra", "check", str(FIXTURE), "--json")[0] == 0
    code, out = run(capsys, "algebra", "check", str(FIXTURE), "--raw", "--json")
    assert code == 0
    assert out == (ROOT / "tests" / "golden" / "3c_raw_check.json").read_text(encoding="utf-8")
    assert run(capsys, "fusion", "vir", "4", "3")[0] == 0
    assert run(capsys, "fusion", "vir", "5", "4")[0] == 0
    assert calls == [(4, 3), (5, 4)]


def test_each_refined_table_is_built_once_per_process(fresh_tables, monkeypatch, capsys):
    # the refined V(p, q) is cached next to the raw one; a fusion file is
    # read, and so refined, on every call
    refined = []
    monkeypatch.setattr(fusion, "frobenius_refine",
                        lambda rules: refined.append(rules.fields) or frobenius_refine(rules))
    golden = ROOT / "tests" / "golden"
    for _ in range(2):
        assert run(capsys, "algebra", "check", str(FIXTURE), "--json") == \
            (0, (golden / "3c_check.json").read_text(encoding="utf-8"))
    assert len(refined) == 1
    code, out = run(capsys, "algebra", "check", str(FIXTURE), "--raw", "--json")
    assert (code, out) == (0, (golden / "3c_raw_check.json").read_text(encoding="utf-8"))
    narrow = str(ROOT / "fixtures" / "ising_narrow.json")
    for _ in range(2):
        run(capsys, "algebra", "check", str(FIXTURE), "--fusion", narrow)
    assert len(refined) == 3


def test_algebra_check_and_classify_build_one_law(fresh_tables, monkeypatch, capsys):
    # classify certifies under the very table algebra check defaults to
    built, refined = [], []
    monkeypatch.setattr(fusion, "virasoro_rules",
                        lambda p, q: built.append((p, q)) or virasoro_rules(p, q))
    monkeypatch.setattr(fusion, "frobenius_refine",
                        lambda rules: refined.append(rules.fields) or frobenius_refine(rules))
    assert run(capsys, "algebra", "check", str(FIXTURE))[0] == 0
    assert run(capsys, "sakuma", "classify")[0] == 0
    assert (built, len(refined)) == ([(4, 3)], 1)
    assert sakuma.ising_law().rules is cli._load_rules("vir:4,3", refine=True)


def test_a_rules_file_without_a_zero_field_is_read_unrefined(tmp_path, monkeypatch, capsys):
    # the Frobenius refinement splits the field 0, so a law without it is
    # used as read, with or without --raw
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({"central_charge": "1/2", "fields": ["1", "1/4"],
                                "star": [["1", "1", ["1"]], ["1", "1/4", ["1/4"]],
                                         ["1/4", "1/4", ["1"]]]}))
    rules = FusionRules.from_json(json.loads(path.read_text()))
    assert cli._refined(rules) is rules
    monkeypatch.setattr(cli.fusion_mod, "frobenius_refine", None)  # never called
    code, out = run(capsys, "algebra", "check", str(FIXTURE), "--fusion", str(path), "--json")
    assert (code, out) == run(capsys, "algebra", "check", str(FIXTURE), "--fusion", str(path),
                              "--raw", "--json")
    assert code == 1 and json.loads(out)["axes"]["a"]["spectrum"] == {"1": 1, "1/4": 0}


def test_vector_text_writes_minus_one_as_a_sign_and_zero_as_0():
    one, lam = MultiPoly.const(1), MultiPoly({(1, 0): 1})
    labels = ["a", "b", "c", "d"]
    assert cli._vector_text([-one, 0 * one, lam - 1, -one], labels) == "-a + (lam - 1)*c - d"
    assert cli._vector_text([one, -2 * lam, 0 * one, one], labels) == "a - 2*lam*b + d"
    assert cli._vector_text([0 * one] * 4, labels) == "0"


def test_sakuma_solve(capsys):
    code, out = run(capsys, "sakuma", "solve")
    assert code == 0
    data = json.loads(out)
    assert data == [{"lambda": str(lam), "mu": str(mu)} for lam, mu in sorted(POINT_AT.values())]


def test_sakuma_table_json_round_trips_and_is_deterministic(capsys):
    code, out1 = run(capsys, "sakuma", "table", "--format", "json")
    assert code == 0
    code, out2 = run(capsys, "sakuma", "table", "--format", "json")
    assert out1 == out2
    data = json.loads(out1)
    assert data["dim"] == len(data["labels"]) == len(data["product"]) == len(data["gram"]) == 8
    assert sorted(data) == ["dim", "flip", "gram", "labels", "marked", "product", "tau0"]


@pytest.mark.parametrize("name, line", [
    ("s1*s2e", "s1*s2e: MISMATCH a0: -1"),
    ("norm(beta1)/4", "norm(beta1)/4: MISMATCH -1"),
])
def test_sakuma_rederive_reports_a_wrong_closed_formula(name, line, monkeypatch, capsys):
    # the closed formulas are a route of their own: perturb one and rederive
    # names it, however right the derived table is
    real = sakuma._paper_formulas

    def perturbed():
        formulas = real()
        want = formulas[name]
        if isinstance(want, list):
            want[sakuma.A0] = want[sakuma.A0] + 1
        else:
            formulas[name] = want + 1
        return formulas

    monkeypatch.setattr(sakuma, "_paper_formulas", perturbed)
    code, out = run(capsys, "sakuma", "rederive")
    assert code == 1
    lines = out.splitlines()
    assert line in lines
    assert [x for x in lines if "MISMATCH" in x] == [line]
    assert lines[-1] == "FAIL"


@pytest.mark.parametrize("action", ["table", "solve", "classify", "rederive"])
def test_sakuma_failed_build_exits_1_with_one_line(action, monkeypatch, capsys):
    # a wrong a3 expansion trips the build's second route for <a0, a3>
    real = sakuma._solve_a3

    def off(sigma1_sq):
        a3 = real(sigma1_sq)
        a3[sakuma.A0] = a3[sakuma.A0] + 1
        return a3

    monkeypatch.setattr(sakuma, "_solve_a3", off)
    code = main(["sakuma", action])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == ("building the universal algebra failed: "
                            "two routes disagree for <a0, a3>\n")


def test_sakuma_classify(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out = run(capsys, "sakuma", "classify", "--out", str(out_file))
    assert code == 0
    assert "total dimension: 37" in out
    data = json.loads(out_file.read_text())
    assert data["passed"] is True
    assert [p["dim"] for p in data["points"]] == [1, 2, 3, 3, 4, 5, 5, 6, 8]


@pytest.mark.parametrize("argv", [
    ["sakuma", "rederive", "--format", "json"],
    ["sakuma", "table", "--out", "{out}"],
    ["sakuma", "classify", "--format", "json"],
], ids=["rederive-format", "table-out", "classify-format"])
def test_sakuma_options_belong_to_their_action(argv, tmp_path, capsys):
    # an option the action does not take is refused, not silently ignored
    out = tmp_path / "x.json"
    with pytest.raises(SystemExit) as err:
        main([arg.format(out=out) for arg in argv])
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


# --out= is the refusal row
@pytest.mark.parametrize("argv", [["--out", ""]], ids=["separate"])
def test_sakuma_classify_empty_out_exits_2(argv, monkeypatch, capsys):
    # an empty path is a path that cannot be opened, not a missing --out,
    # and it is refused before any work
    monkeypatch.setattr(sakuma, "build_universal", None)  # never called
    code = main(["sakuma", "classify"] + argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("axial: error: cannot write : ")


def test_classify_refuses_a_missing_directory_before_any_work(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sakuma, "build_universal", None)  # never called
    assert main(["sakuma", "classify", "--out", "missing/report.json"]) == 2
    assert capsys.readouterr().err.startswith("axial: error: cannot write missing/report.json: ")
    assert list(tmp_path.iterdir()) == []


def test_a_failed_classify_leaves_out_as_it_found_it(tmp_path, monkeypatch, capsys):
    # --out opens before the work, and a run that fails removes what it made
    def broken(uni):
        raise ConsistencyError("no point")

    monkeypatch.setattr(sakuma, "classify", broken)
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("kept")
    for path in (new, old):
        assert main(["sakuma", "classify", "--out", str(path)]) == 1
    assert capsys.readouterr().err == "classification failed: no point\n" * 2
    assert list(tmp_path.iterdir()) == [old] and old.read_text() == "kept"


# the command in a fresh interpreter, with stdout where the test puts it
AXIAL = [sys.executable, "-I", "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import axial.cli; "
         "sys.exit(axial.cli.main(sys.argv[2:]))", str(ROOT / "src")]


def assert_stdout_error(code, err, reason):
    # exit 1 means a failed verification; an unwritable stdout is exit 2
    assert code == 2
    assert err == f"axial: error: cannot write to stdout: {reason}\n"


def test_a_reader_that_closes_early_exits_2_with_one_line():
    # V(13, 12) as JSON is about 380 kB, far more than a pipe holds
    with subprocess.Popen(AXIAL + ["fusion", "vir", "13", "12", "--json"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        assert proc.stdout.read(10) == '{\n  "centr'
        proc.stdout.close()
        err = proc.stderr.read()
        assert_stdout_error(proc.wait(timeout=60), err, "[Errno 32] Broken pipe")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [["fusion", "vir", "4", "3"], ["--help"]], ids=["fusion", "help"])
def test_a_full_disk_on_stdout_exits_2_with_one_line(argv):
    with open("/dev/full", "w") as full:
        done = subprocess.run(AXIAL + argv, stdout=full, stderr=subprocess.PIPE, text=True)
    assert_stdout_error(done.returncode, done.stderr, "[Errno 28] No space left on device")
