"""axial: exact axial-algebra toolkit.

Usage::

    axial fusion vir P Q [--json]
    axial algebra check FILE [--fusion vir:P,Q | --fusion FILE] [--raw] [--json]
    axial sakuma table [--format text|json]
    axial sakuma solve
    axial sakuma classify [--out FILE]
    axial sakuma rederive

fusion vir prints the Virasoro fusion table V(P, Q) and its Z/2-gradings.
algebra check certifies the marked axes and the form of an algebra in JSON
under the fusion law (default vir:4,3, Frobenius-refined unless --raw).
sakuma table, solve, classify and rederive build the universal algebra of
Sakuma's theorem: its symbolic table, the certified (lam, mu) points, the
nine named quotients, and the closed formulas re-derived.

Options may come before or after the positionals, as --opt value or
--opt=value, and are spelled in full.  -h or --help prints this text.

Exit codes: 0 on success/all-pass, 1 on verification failure, 2 on usage
errors (bad arguments, unreadable input files, or an unwritable output
file or stdout such as a closed pipe or a full disk, reported on one
stderr line).  All machine output is JSON with sorted keys, so identical
inputs produce byte-identical output.
"""

from __future__ import annotations

import functools
import json
import os
import re
import sys
from types import SimpleNamespace

from . import algebra as algebra_mod
from . import fusion as fusion_mod
from .algebra import ConsistencyError
from .poly import _linear_text


class UsageError(Exception):
    """Bad command-line input; main reports it on one line and exits 2."""


def _emit(data, file=None) -> None:
    """Every JSON document: sorted keys, indent 2 and a final newline, to file or stdout."""
    print(json.dumps(data, indent=2, sort_keys=True), file=file)


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # json.load recurses once per nesting level
        raise UsageError(f"cannot read {path} as JSON: {exc}") from None


@functools.cache
def _virasoro(p: int, q: int, refine: bool) -> fusion_mod.FusionRules:
    """V(p, q), Frobenius-refined if refine, each built once per process and
    the refined from the cached raw; nothing mutates either.  Pass all three
    arguments: the cache keys f(p, q) and f(p, q, False) apart."""
    if refine:
        return _refined(_virasoro(p, q, False))
    try:
        return fusion_mod.virasoro_rules(p, q)
    except ValueError as exc:
        raise UsageError(f"no Virasoro table V({p},{q}): {exc}") from None


def _refined(rules: fusion_mod.FusionRules) -> fusion_mod.FusionRules:
    if fusion_mod.ZERO in rules.fields:
        return fusion_mod.frobenius_refine(rules)
    return rules


def _load_rules(spec: str, refine: bool) -> fusion_mod.FusionRules:
    if spec.startswith("vir:"):
        try:
            p, q = (int(x) for x in spec[4:].split(","))
        except ValueError:
            raise UsageError(f"--fusion {spec}: expected vir:P,Q with integers P, Q") from None
        return _virasoro(p, q, refine)
    try:
        rules = fusion_mod.FusionRules.from_json(_read_json(spec))
    except fusion_mod.RulesFormatError as exc:
        raise UsageError(f"{spec}: {exc}") from None
    return _refined(rules) if refine else rules


def _cmd_fusion(args) -> int:
    rules = _virasoro(args.p, args.q, False)
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
    cert = algebra_mod.certify(
        alg, {alg.labels[idx]: alg.basis_vector(idx) for idx in alg.marked}, rules)
    if args.json:
        _emit(cert.to_json())
    else:
        for label, report in cert.axes.items():
            spectrum = ", ".join(f"{f}:{d}" for f, d in sorted(report.spectrum.items(),
                                                               reverse=True) if d)
            print(f"axis {label}: {'ok' if report.passed else 'FAIL'} (spectrum {spectrum})")
        print(f"form: {'ok' if cert.form.passed else 'FAIL'}")
        print("PASS" if cert.passed else "FAIL")
    return 0 if cert.passed else 1


def _cmd_sakuma(args) -> int:
    from . import sakuma as sakuma_mod  # here, so no other command loads it
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
            pairs = [(i, j) for i in range(8) for j in range(i, 8)]
            for i, j in pairs:
                print(f"{labels[i]} * {labels[j]} = {_vector_text(uni.product[i][j], labels)}")
            print()
            for i, j in pairs:
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
                    _emit(report.to_json(), fh)
            except OSError as exc:
                raise UsageError(f"cannot write {args.out}: {exc}") from None
        print(report.summary())
        return 0 if report.passed else 1
    # rederive, the one action left
    report = sakuma_mod.rederive_products(uni)
    print(report.summary())
    return 0 if report.passed else 1


def _vector_text(vec, labels) -> str:
    return _linear_text((str(c), label) for c, label in zip(vec, labels) if c)


# command path -> (handler, positionals with their converters, flags,
# options with their default and their choices, None for any value)
COMMANDS = {
    ("fusion", "vir"): (_cmd_fusion, {"p": int, "q": int}, ("json",), {}),
    ("algebra", "check"): (_cmd_algebra_check, {"file": str}, ("raw", "json"),
                           {"fusion": ("vir:4,3", None)}),
    ("sakuma", "table"): (_cmd_sakuma, {}, (), {"format": ("text", ("text", "json"))}),
    ("sakuma", "solve"): (_cmd_sakuma, {}, (), {}),
    ("sakuma", "classify"): (_cmd_sakuma, {}, (), {"out": (None, None)}),
    ("sakuma", "rederive"): (_cmd_sakuma, {}, (), {}),
}
# an option takes a value in every command that has it, so argv splits into
# options and positionals before the command is known
_TAKES_VALUE = {f"--{name}" for *_, options in COMMANDS.values() for name in options}
_FLAGS = {f"--{name}" for _, _, flags, _ in COMMANDS.values() for name in flags}
_NEGATIVE_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")


def _usage_error(message: str):
    print(f"axial: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _is_option(token: str) -> bool:
    return token.startswith("-") and token != "-" and not _NEGATIVE_NUMBER.match(token)


def parse_args(argv) -> SimpleNamespace:
    """The command and its arguments, read off COMMANDS.  Options may come
    before or after positionals, as --opt value or --opt=value, and must be
    spelled in full; after -- every token is a positional.  -h or --help
    prints the synopsis and exits 0; a usage error writes one stderr line
    and exits 2."""
    positionals, given, unknown = [], {}, []
    tokens = iter(argv)
    for token in tokens:
        if token == "--":
            positionals.extend(tokens)
        elif token in ("-h", "--help"):
            sys.stdout.write(__doc__ or "")  # None under python -OO
            sys.stdout.flush()
            raise SystemExit(0)
        elif not _is_option(token):
            positionals.append(token)
        elif token in _FLAGS:
            given[token[2:]] = True
        else:
            option, eq, value = token.partition("=")
            if option not in _TAKES_VALUE:
                unknown.append(token)
                continue
            if not eq:
                value = next(tokens, None)
                if value is None or _is_option(value):
                    _usage_error(f"argument {option}: expected one argument")
            given[option[2:]] = value

    path = ()
    for level in ("command", "action"):
        words = list(dict.fromkeys(key[len(path)] for key in COMMANDS
                                   if key[:len(path)] == path))
        if not positionals:
            _usage_error(f"the following arguments are required: {level}")
        word = positionals.pop(0)
        if word not in words:
            choices = ", ".join(f"'{w}'" for w in words)
            _usage_error(f"argument {level}: invalid choice: '{word}' (choose from {choices})")
        path += (word,)

    func, wanted, flags, options = COMMANDS[path]
    args = SimpleNamespace(action=path[1], func=func)
    for (dest, convert), token in zip(wanted.items(), positionals):
        try:
            setattr(args, dest, convert(token))
        except ValueError:
            _usage_error(f"argument {dest}: invalid {convert.__name__} value: '{token}'")
    missing = list(wanted)[len(positionals):]
    if missing:
        _usage_error(f"the following arguments are required: {', '.join(missing)}")
    for name in flags:
        setattr(args, name, given.pop(name, False))
    for name, (default, choices) in options.items():
        value = given.pop(name, default)
        if choices and value not in choices:
            listed = ", ".join(f"'{c}'" for c in choices)
            _usage_error(f"argument --{name}: invalid choice: '{value}' (choose from {listed})")
        setattr(args, name, value)
    unknown += [f"--{name}" if value is True else f"--{name} {value}"
                for name, value in given.items()]
    unknown += positionals[len(wanted):]
    if unknown:
        _usage_error(f"unrecognized arguments: {' '.join(unknown)}")
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except UsageError as exc:
        print(f"axial: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # the commands turn the errors of files they open into UsageError,
        # so this is stdout: a closed pipe or a full disk.  The exit flush
        # goes to devnull, as the signal module's note on SIGPIPE advises.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"axial: error: cannot write to stdout: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
