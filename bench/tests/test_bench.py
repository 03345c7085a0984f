"""Tests of the benchmark itself: output checks, seeded inputs, the tracer.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import copy
import fractions
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402


def run_child(workload, input_dir, out_dir, *trace_args):
    out_dir.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), workload,
                           str(input_dir), str(out_dir), *map(str, trace_args)],
                          cwd=ROOT, capture_output=True, timeout=120)
    return proc.returncode, proc.stdout


@pytest.fixture(scope="module")
def verify_inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("inputs")
    manifest = workloads.make_inputs("verify", 7, workloads.load_reference("verify"), directory)
    return directory, manifest


@pytest.fixture(scope="module")
def symbolic_output(tmp_path_factory):
    out = tmp_path_factory.mktemp("symbolic")
    code, _ = run_child("symbolic", out, out)
    return code, out


@pytest.fixture(scope="module")
def verify_output(tmp_path_factory, verify_inputs):
    out = tmp_path_factory.mktemp("verify")
    code, _ = run_child("verify", verify_inputs[0], out)
    return code, out


# -- output checks -------------------------------------------------------------


def _write_report(out_dir: Path, report: dict) -> None:
    (out_dir / "report.json").write_text(json.dumps(report), encoding="utf-8")


def test_classify_check_rejects_tampered_report(tmp_path):
    ref = workloads.load_reference("classify")
    good = {"passed": True, "total_dim": ref["total_dim"],
            "points": [dict(p, notes=[], passed=True) for p in ref["points"]]}
    _write_report(tmp_path, good)
    workloads.check_classify(ref, 0, tmp_path)

    wrong_dim = copy.deepcopy(good)
    wrong_dim["points"][3]["dim"] += 1
    flipped = dict(good, passed=False)
    wrong_total = dict(good, total_dim=36)
    for bad in (wrong_dim, flipped, wrong_total):
        _write_report(tmp_path, bad)
        with pytest.raises(CheckFailed):
            workloads.check_classify(ref, 0, tmp_path)
    _write_report(tmp_path, good)
    with pytest.raises(CheckFailed):
        workloads.check_classify(ref, 1, tmp_path)


def test_classify_check_ignores_notes(tmp_path):
    ref = workloads.load_reference("classify")
    report = {"passed": True, "total_dim": ref["total_dim"],
              "points": [dict(p, notes=["symmetry word bound raised to 4"])
                         for p in ref["points"]]}
    _write_report(tmp_path, report)
    workloads.check_classify(ref, 0, tmp_path)
    for p in report["points"]:
        del p["notes"]
    _write_report(tmp_path, report)
    workloads.check_classify(ref, 0, tmp_path)


def test_symbolic_check_rejects_tampered_output(symbolic_output, tmp_path):
    code, out = symbolic_output
    ref = workloads.load_reference("symbolic")
    workloads.check_symbolic(ref, code, out)

    def tampered(edit):
        work = tmp_path / "work"
        shutil.rmtree(work, ignore_errors=True)
        shutil.copytree(out, work)
        edit(work)
        with pytest.raises(CheckFailed):
            workloads.check_symbolic(ref, 0, work)

    def flip_table_byte(work):
        data = bytearray((work / "table.json").read_bytes())
        data[len(data) // 2] ^= 1
        (work / "table.json").write_bytes(bytes(data))

    def edit_result(**changes):
        def edit(work):
            result = json.loads((work / "symbolic.json").read_text())
            result.update(changes)
            (work / "symbolic.json").write_text(json.dumps(result))
        return edit

    tampered(flip_table_byte)
    tampered(edit_result(rederive_passed=False))
    tampered(edit_result(defects=ref["defects"][1:]))
    tampered(edit_result(p1=ref["p2"]))
    tampered(edit_result(table_exit=1))


def test_verify_check_rejects_tampered_output(verify_inputs, verify_output, tmp_path):
    _, manifest = verify_inputs
    code, out = verify_output
    workloads.check_verify(manifest, code, out)
    results = json.loads((out / "verify.json").read_text())
    name = "6-4B.json"
    report = json.loads(results[name]["stdout"])

    def rejected(edit):
        bad = copy.deepcopy(results)
        edit(bad)
        (tmp_path / "verify.json").write_text(json.dumps(bad))
        with pytest.raises(CheckFailed):
            workloads.check_verify(manifest, 0, tmp_path)

    def set_report(new):
        return lambda bad: bad[name].update(stdout=json.dumps(new))

    rejected(set_report(dict(report, passed=False)))
    wrong = copy.deepcopy(report)
    wrong["axes"]["b0"]["spectrum"]["0"] += 1
    rejected(set_report(wrong))
    rejected(lambda bad: bad[name].update(exit=1))
    rejected(lambda bad: bad.pop(name))


# -- seeded inputs ---------------------------------------------------------------


def _input_files(seed, directory):
    workloads.make_inputs("verify", seed, workloads.load_reference("verify"), directory)
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_inputs_are_deterministic_per_seed_and_differ_across_seeds(tmp_path):
    first = _input_files(1, tmp_path / "a")
    again = _input_files(1, tmp_path / "b")
    other = _input_files(2, tmp_path / "c")
    assert first == again
    assert len(first) == 9
    for name, data in first.items():
        alg = json.loads(data)
        # an algebra spanned by its axes (1A, 2B) has no random basis vectors
        assert (data != other[name]) == (alg["dim"] > len(alg["marked"]))


def test_inputs_mark_the_axes_and_keep_the_spectra(verify_inputs):
    directory, manifest = verify_inputs
    ref = workloads.load_reference("verify")
    for k, point in enumerate(ref["points"]):
        name = f"{k}-{point['name']}.json"
        data = json.loads((directory / name).read_text())
        expected = manifest["expected"][name]
        assert [data["labels"][m] for m in data["marked"]] == sorted(expected)
        assert all(s == point["spectra"][0] for s in expected.values())
        assert len(data["marked"]) == (1 if point["name"] == "1A" else 2)


# -- tracing -------------------------------------------------------------------


def _all_namespaces():
    import importlib

    import axial

    mods = [axial] + [importlib.import_module(f"axial.{m}") for m in tracer.MODULES]
    classes = [axial.poly.MultiPoly, axial.algebra.StructureAlgebra, fractions.Fraction]
    return mods + classes


@pytest.mark.parametrize("count", [False, True])
def test_wrappers_are_removed_after_tracing(count):
    import axial.sakuma

    before = [dict(vars(ns)) for ns in _all_namespaces()]
    rec = tracer.Recorder(count=count)
    rec.install()
    try:
        assert getattr(axial.sakuma.rational_roots, "bench_wrapper", False)
        assert axial.sakuma.rational_roots is axial.poly.rational_roots
    finally:
        rec.uninstall()
    after = [dict(vars(ns)) for ns in _all_namespaces()]
    for b, a in zip(before, after):
        assert b.keys() == a.keys()
        assert all(a[k] is b[k] for k in b)
    for ns in _all_namespaces():
        assert not any(getattr(v, "bench_wrapper", False) for v in vars(ns).values())


def test_counts_are_charged_to_the_innermost_span():
    from axial import algebra, linalg

    rec = tracer.Recorder(count=True)
    rec.install()
    try:
        Fraction(1, 2) + Fraction(1, 3)
        linalg.rref([[Fraction(2), Fraction(4)], [Fraction(1), Fraction(3)]])
        rref_only = dict(rec.fraction_ops)
        algebra.check_axis(algebra.three_c(), [Fraction(1), Fraction(0), Fraction(0)],
                           __import__("axial").fusion.virasoro_rules(4, 3))
    finally:
        rec.uninstall()
    assert rref_only == {"outside": 1, "linalg": rref_only["linalg"]}
    assert rref_only["linalg"] > 0
    assert rec.fraction_ops["algebra"] > 0
    assert rec.fraction_ops["linalg"] > rref_only["linalg"]
    assert rec.calls["linalg.rref"] > 1
    assert rec.calls["algebra.check_axis"] == 1
    assert rec.calls["algebra.multiply"] > 0


def test_self_time_arithmetic():
    spans = [
        ["a", 0.0, 10.0, 0, None, None],
        ["b", 1.0, 4.0, 0, 0, None],
        ["c", 2.0, 3.0, 0, 1, None],
        ["b", 5.0, 6.0, 0, 0, None],
        ["b", 5.2, 5.7, 0, 3, None],
    ]
    assert tracer.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 0.5, 0.5])
    stats = tracer.summarize(spans)
    # nested spans of one name count once in "s"
    assert stats["b"] == pytest.approx({"s": 4.0, "self_s": 3.0, "calls": 3})
    assert tracer.module_seconds([["m.x", 0.0, 2.0, 0, None, None],
                                  ["m.y", 0.5, 1.0, 0, 0, None]], "m") == 2.0


def test_self_time_never_exceeds_span_time(tmp_path):
    import axial.sakuma

    rec = tracer.Recorder(op_id=3)
    rec.install()
    try:
        uni = axial.sakuma.build_universal()
        axial.sakuma.rederive_products(uni)
    finally:
        rec.uninstall()
    spans = rec.spans
    assert len(spans) > 10
    assert all(s[3] == 3 and s[1] <= s[2] for s in spans)
    for own, s in zip(tracer.self_times(spans), spans):
        assert -1e-9 <= own <= s[2] - s[1]
    rec.dump(tmp_path / "trace.json")
    data = json.loads((tmp_path / "trace.json").read_text())
    assert data["mode"] == "time" and len(data["spans"]) == len(spans)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_output_is_identical(workload, verify_inputs, tmp_path):
    input_dir = verify_inputs[0]
    outputs = []
    for mode, extra in (("plain", ()), ("time", (tmp_path / "t.json", "time", 1)),
                        ("count", (tmp_path / "c.json", "count", 2))):
        out = tmp_path / mode
        code, stdout = run_child(workload, input_dir, out, *extra)
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        outputs.append((code, stdout, files))
    assert outputs[0][0] == 0
    assert outputs[0] == outputs[1] == outputs[2]


# -- the runner ------------------------------------------------------------------


def _run(cwd: Path, *args):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


def test_runner_reports_every_declared_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        code, out = _run(ROOT, "--workload", "verify", "--seed", "5", "--seconds", "1",
                         "--trace", trace)
        assert code == 0
        result = json.loads(out.splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] is True and result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["metrics"]["poly.mul.calls"]["value"] == 0


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    code, out = _run(tmp_path, "--workload", "classify", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert code != 0
    assert "metrics" not in out
