"""Span and counter recorder for the traced benchmark run (stdlib only).

A traced operation runs in one of two passes, so that the cost of counting
does not distort span times:

* ``time``  -- every public function of ``cli``, ``fusion``, ``sakuma``,
  ``poly``, ``linalg`` and ``algebra`` (and ``StructureAlgebra.from_json``)
  records a span ``[name, start, end, op_id, parent, attrs]``; ``parent`` is
  the index of the innermost span open at the call, ``attrs`` holds sizes
  read off the result for a few stages (see ``OBSERVERS``).
* ``count`` -- the same functions, plus the hot methods ``MultiPoly`` add
  and mul and ``StructureAlgebra.multiply``, count their calls, and every
  ``Fraction`` arithmetic operation is counted and charged to the module of
  the innermost open wrapped call (``outside`` when none is open).

Wrappers are installed where a function is defined and in every namespace
that imported it by name (``sakuma`` imports ``rational_roots`` and
``check_axis``, ``poly`` imports ``det``); ``uninstall`` puts every
original back.  Everything stays in memory until ``dump``.
"""

from __future__ import annotations

import fractions
import functools
import importlib
import inspect
import json
import time
from collections import Counter
from pathlib import Path

MODULES = ("cli", "fusion", "sakuma", "poly", "linalg", "algebra")
FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                "__truediv__", "__rtruediv__", "__neg__")
# (module, class, attribute, span name)
TIMED_METHODS = (("algebra", "StructureAlgebra", "from_json", "algebra.from_json"),)
# Called too often for a span each; counted in the count pass only.
HOT_METHODS = (
    ("poly", "MultiPoly", "__add__", "poly.add"),
    ("poly", "MultiPoly", "__radd__", "poly.add"),
    ("poly", "MultiPoly", "__mul__", "poly.mul"),
    ("poly", "MultiPoly", "__rmul__", "poly.mul"),
    ("algebra", "StructureAlgebra", "multiply", "algebra.multiply"),
)


def _coeff_bits(poly) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in poly.terms.values()), default=0)


OBSERVERS = {
    "poly.rational_roots": lambda roots: {"roots": len(roots)},
    "poly.resultant": lambda res: {"in": "lam" if res.degree("lam") else "mu",
                                   "degree": res.degree(), "bits": _coeff_bits(res)},
    "sakuma.discrepancy_quotient": lambda d: {"point": d.point.name, "ideal_dim": d.ideal_dim},
}


class Recorder:
    """Records spans (time pass) or call and Fraction counts (count pass)."""

    def __init__(self, op_id: int = 0, count: bool = False):
        self.op_id = op_id
        self.count = count
        self.spans: list = []
        self.calls: Counter = Counter()
        self.fraction_ops: Counter = Counter()
        self._open: list = []  # indices of open spans
        self._modules: list = ["outside"]  # modules of open wrapped calls
        self._patches: list = []  # (owner, attribute, original)

    # -- wrappers --------------------------------------------------------

    def _timed(self, name, fn):
        spans, open_, op_id = self.spans, self._open, self.op_id
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, op_id, open_[-1] if open_ else None, None]
            open_.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            if observe is not None:
                span[5] = observe(result)
            return result

        wrapper.bench_wrapper = True
        return wrapper

    def _counted(self, name, fn):
        module = name.partition(".")[0]
        calls, modules = self.calls, self._modules

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            modules.append(module)
            try:
                return fn(*args, **kwargs)
            finally:
                modules.pop()

        wrapper.bench_wrapper = True
        return wrapper

    def _fraction_op(self, fn):
        ops, modules = self.fraction_ops, self._modules

        @functools.wraps(fn)
        def wrapper(*args):
            ops[modules[-1]] += 1
            return fn(*args)

        wrapper.bench_wrapper = True
        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        mods = {m: importlib.import_module(f"axial.{m}") for m in MODULES}
        namespaces = [importlib.import_module("axial"), *mods.values()]
        wrap = self._counted if self.count else self._timed
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = wrap(f"{short}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, key, wrapped)
        for short, cls_name, attr, name in TIMED_METHODS + (HOT_METHODS if self.count else ()):
            cls = getattr(mods[short], cls_name)
            raw = vars(cls)[attr]
            if isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(wrap(name, raw.__func__)))
            else:
                self._patch(cls, attr, wrap(name, raw))
        if self.count:
            for attr in FRACTION_OPS:
                self._patch(fractions.Fraction, attr,
                            self._fraction_op(vars(fractions.Fraction)[attr]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def to_json(self) -> dict:
        return {"op_id": self.op_id, "mode": "count" if self.count else "time",
                "spans": self.spans, "calls": dict(self.calls),
                "fraction_ops": dict(self.fraction_ops)}

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.to_json()), encoding="utf-8")


# -- span arithmetic ---------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children of a span are disjoint and lie
    inside it.
    """
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[4] is not None:
            own[s[4]] -= s[2] - s[1]
    return own


def _has_ancestor(spans, index, predicate) -> bool:
    parent = spans[index][4]
    while parent is not None:
        if predicate(spans[parent][0]):
            return True
        parent = spans[parent][4]
    return False


def summarize(spans) -> dict:
    """Per span name: ``s`` (time in outermost spans of that name), ``self_s``
    and ``calls``."""
    own = self_times(spans)
    stats: dict = {}
    for i, s in enumerate(spans):
        st = stats.setdefault(s[0], {"s": 0.0, "self_s": 0.0, "calls": 0})
        st["calls"] += 1
        st["self_s"] += own[i]
        if not _has_ancestor(spans, i, lambda n, name=s[0]: n == name):
            st["s"] += s[2] - s[1]
    return stats


def module_seconds(spans, module: str) -> float:
    """Time inside the module's outermost spans."""
    prefix = module + "."
    is_mod = lambda n: n.startswith(prefix)  # noqa: E731
    return sum(s[2] - s[1] for i, s in enumerate(spans)
               if is_mod(s[0]) and not _has_ancestor(spans, i, is_mod))


def module_self_seconds(spans, module: str) -> float:
    prefix = module + "."
    own = self_times(spans)
    return sum(t for t, s in zip(own, spans) if s[0].startswith(prefix))
