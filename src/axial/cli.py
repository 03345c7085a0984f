"""Command-line front end.

Subcommands::

    axial fusion vir P Q [--json]
    axial algebra check FILE [--fusion vir:P,Q | --fusion FILE] [--raw] [--json]
    axial sakuma table [--format text|json]
    axial sakuma solve
    axial sakuma classify [--out FILE]
    axial sakuma rederive

Exit codes: 0 on success/all-pass, 1 on verification failure, 2 on usage
errors (bad arguments, unreadable input files or an unwritable output
file, reported on one stderr line).  All machine output is JSON with sorted
keys, so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import algebra as algebra_mod
from . import fusion as fusion_mod
from . import sakuma as sakuma_mod
from .algebra import ConsistencyError


class UsageError(Exception):
    """Bad command-line input; main reports it on one line and exits 2."""


def _emit(data) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read {path} as JSON: {exc}") from None


def _virasoro(p: int, q: int) -> fusion_mod.FusionRules:
    try:
        return fusion_mod.virasoro_rules(p, q)
    except ValueError as exc:
        raise UsageError(f"no Virasoro table V({p},{q}): {exc}") from None


def _load_rules(spec: str, refine: bool) -> fusion_mod.FusionRules:
    if spec.startswith("vir:"):
        try:
            p, q = (int(x) for x in spec[4:].split(","))
        except ValueError:
            raise UsageError(f"--fusion {spec}: expected vir:P,Q with integers P, Q") from None
        rules = _virasoro(p, q)
    else:
        try:
            rules = fusion_mod.FusionRules.from_json(_read_json(spec))
        except fusion_mod.RulesFormatError as exc:
            raise UsageError(f"{spec}: {exc}") from None
    if refine and fusion_mod.ZERO in rules.fields:
        rules = fusion_mod.frobenius_refine(rules)
    return rules


def _cmd_fusion(args) -> int:
    rules = _virasoro(args.p, args.q)
    gradings = fusion_mod.find_z2_gradings(rules)
    if args.json:
        data = rules.to_json()
        data["gradings"] = [
            {"even": sorted(str(f) for f in g.even), "odd": sorted(str(f) for f in g.odd)}
            for g in gradings
        ]
        _emit(data)
    else:
        print(f"V({args.p},{args.q})  central charge {rules.central_charge}")
        print(rules.table_text())
        for g in gradings:
            if g.trivial:
                continue
            even = ", ".join(str(f) for f in sorted(g.even, reverse=True))
            odd = ", ".join(str(f) for f in sorted(g.odd, reverse=True))
            print(f"Z/2-grading: even {{{even}}}  odd {{{odd}}}")
    return 0


def _cmd_algebra_check(args) -> int:
    try:
        alg = algebra_mod.StructureAlgebra.from_json(_read_json(args.file))
    except algebra_mod.ShapeError as exc:
        raise UsageError(f"{args.file}: {exc}") from None
    rules = _load_rules(args.fusion, refine=not args.raw)
    axis_reports = {}
    for idx in alg.marked:
        report = algebra_mod.check_axis(alg, alg.basis_vector(idx), rules)
        axis_reports[alg.labels[idx]] = report
    form_report = algebra_mod.verify_form(
        alg, {label: report.spaces for label, report in axis_reports.items()})
    ok = form_report.passed and all(r.passed for r in axis_reports.values())
    if args.json:
        _emit({
            "axes": {k: r.to_json() for k, r in axis_reports.items()},
            "form": form_report.to_json(),
            "passed": ok,
        })
    else:
        for label, report in axis_reports.items():
            spectrum = ", ".join(f"{f}:{d}" for f, d in sorted(report.spectrum.items(),
                                                               reverse=True) if d)
            print(f"axis {label}: {'ok' if report.passed else 'FAIL'} (spectrum {spectrum})")
        print(f"form: {'ok' if form_report.passed else 'FAIL'}")
        print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_sakuma(args) -> int:
    try:
        uni = sakuma_mod.build_universal()
    except ConsistencyError as exc:
        print(f"building the universal algebra failed: {exc}", file=sys.stderr)
        return 1
    if args.action == "table":
        if args.format == "json":
            _emit(uni.to_json())
        else:
            labels = sakuma_mod.LABELS
            for i in range(8):
                for j in range(i, 8):
                    text = _vector_text(uni.product[i][j], labels)
                    print(f"{labels[i]} * {labels[j]} = {text}")
            print()
            for i in range(8):
                for j in range(i, 8):
                    print(f"<{labels[i]}, {labels[j]}> = {uni.gram[i][j]}")
        return 0
    if args.action == "solve":
        _emit([pt.to_json() for pt in sakuma_mod.solve_points(uni)])
        return 0
    if args.action == "classify":
        try:
            report = sakuma_mod.classify(uni)
        except ConsistencyError as exc:
            print(f"classification failed: {exc}", file=sys.stderr)
            return 1
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    json.dump(report.to_json(), fh, indent=2, sort_keys=True)
                    fh.write("\n")
            except OSError as exc:
                raise UsageError(f"cannot write {args.out}: {exc}") from None
        print(report.summary())
        return 0 if report.passed else 1
    # rederive, the one action left
    report = sakuma_mod.rederive_products(uni)
    print(report.summary())
    return 0 if report.passed else 1


def _vector_text(vec, labels) -> str:
    parts = []
    for coeff, label in zip(vec, labels):
        if not coeff:
            continue
        text = str(coeff)
        if text == "1":
            parts.append(label)
        elif text == "-1":
            parts.append(f"-{label}")
        elif "+" in text or (text.count("-") > (1 if text.startswith("-") else 0)):
            parts.append(f"({text})*{label}")
        else:
            parts.append(f"{text}*{label}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="axial",
                                     description="Exact axial-algebra toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    fus = sub.add_parser("fusion", help="generate fusion rule tables")
    fus.add_argument("kind", choices=["vir"], help="table family")
    fus.add_argument("p", type=int)
    fus.add_argument("q", type=int)
    fus.add_argument("--json", action="store_true")
    fus.set_defaults(func=_cmd_fusion)

    alg = sub.add_parser("algebra", help="verify a structure-constant algebra")
    alg_sub = alg.add_subparsers(dest="action", required=True)
    chk = alg_sub.add_parser("check", help="run axis and form verification")
    chk.add_argument("file")
    chk.add_argument("--fusion", default="vir:4,3",
                     help="vir:P,Q or a fusion-rules JSON file (default vir:4,3)")
    chk.add_argument("--raw", action="store_true",
                     help="skip the Frobenius refinement of 0*0")
    chk.add_argument("--json", action="store_true")
    chk.set_defaults(func=_cmd_algebra_check)

    sak = sub.add_parser("sakuma", help="the two-generated classification")
    sak_sub = sak.add_subparsers(dest="action", required=True)
    table = sak_sub.add_parser("table", help="the symbolic product table and Gram matrix")
    table.add_argument("--format", choices=["text", "json"], default="text")
    sak_sub.add_parser("solve", help="the certified (lam, mu) points")
    cls = sak_sub.add_parser("classify", help="certify and name the quotient at each point")
    cls.add_argument("--out", help="write the classification report to a file")
    sak_sub.add_parser("rederive", help="compare the derived products with the closed formulas")
    sak.set_defaults(func=_cmd_sakuma)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"axial: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
