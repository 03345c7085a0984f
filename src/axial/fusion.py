"""Fusion rules and the Virasoro discrete-series tables V(p, q).

A fusion rules is a central charge, a finite set of rational fields, and
a symmetric set-valued product on the fields.  The tables V(p, q) are
generated from the discrete-series highest weights; products of weights
follow the admissible-triple bound, the weights are halved, and the extra
identity field 1 is adjoined.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd

from .poly import _literal

ONE = Fraction(1)
ZERO = Fraction(0)


class RulesFormatError(ValueError):
    """A JSON document that does not describe fusion rules: a missing key, a
    field that is not a rational literal, or an inconsistent star table."""


class Grading(namedtuple("Grading", "even odd")):
    """A Z/2-grading of a field set: products land in the parity product.
    even and odd are frozensets of fields."""

    __slots__ = ()

    @property
    def trivial(self) -> bool:
        return not self.odd

    def parity(self, f) -> int:
        if f in self.even:
            return 0
        if f in self.odd:
            return 1
        raise KeyError(f"{f} is not a graded field")


class FusionRules(namedtuple("FusionRules", "central_charge fields star")):
    """Central charge, the tuple of fields, and the star table: a dict from
    each ordered field pair to the frozenset of its product fields.

    `law` is the same table by field position: law[p][q] is the frozenset
    of the positions in `fields` of star(fields[p], fields[q]).  It is built
    while the constructor checks each pair, so callers that index fields by
    position (check_axis) decide the law on small integers and never hash a
    Fraction.
    """

    def __new__(cls, central_charge, fields, star):
        position = {f: p for p, f in enumerate(fields)}
        if len(position) != len(fields):
            raise ValueError("fields must be distinct")
        for f, g in star:
            if f not in position or g not in position:
                raise ValueError(f"star table has the pair ({f}, {g}) outside the fields")
        law = []
        for f in fields:
            row = []
            for g in fields:
                prod = star.get((f, g))
                if prod is None:
                    raise ValueError(f"star table is missing the pair ({f}, {g})")
                if prod != star.get((g, f)):
                    raise ValueError(f"star table is not symmetric at ({f}, {g})")
                try:
                    row.append(frozenset([position[h] for h in prod]))
                except KeyError:
                    raise ValueError(f"star({f}, {g}) leaves the field set") from None
            law.append(tuple(row))
        rules = super().__new__(cls, central_charge, fields, star)
        rules.law = tuple(law)
        return rules

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, which _replace calls, would skip the checks and the law
        return cls(*iterable)

    def product(self, f, g) -> frozenset:
        return self.star[(f, g)]

    def to_json(self) -> dict:
        pairs = []
        for i, f in enumerate(self.fields):
            for g in self.fields[i:]:
                pairs.append([str(f), str(g), sorted(str(h) for h in self.product(f, g))])
        return {
            "central_charge": str(self.central_charge),
            "fields": [str(f) for f in self.fields],
            "star": pairs,
        }

    @staticmethod
    def from_json(data: dict) -> "FusionRules":
        """Parse fusion rules; input that does not describe them raises
        RulesFormatError."""
        if not isinstance(data, dict):
            raise RulesFormatError("fusion rules are a JSON object with "
                                   "central_charge, fields and star")
        missing = [key for key in ("central_charge", "fields", "star") if key not in data]
        if missing:
            raise RulesFormatError(f"missing {', '.join(missing)}")
        # a string is iterable too, so it would be read one character at a time
        if not isinstance(data["fields"], list) or not isinstance(data["star"], list):
            raise RulesFormatError("fields and star must be lists")
        try:
            fields = tuple(_literal(f) for f in data["fields"])
            star = {}
            for f, g, prods in data["star"]:
                if not isinstance(prods, list):
                    raise RulesFormatError(f"the product set of {f} and {g} is not a list")
                f, g = _literal(f), _literal(g)
                value = frozenset(_literal(h) for h in prods)
                # a file may list both orders of a pair, but not two product sets
                if star.setdefault((f, g), value) != value:
                    raise RulesFormatError(f"star gives the pair ({f}, {g}) two product sets")
                star[(g, f)] = value
            return FusionRules(_literal(data["central_charge"]), fields, star)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise RulesFormatError(f"not a fusion rules table: {exc}") from None

    def table_text(self) -> str:
        def cell_order(h):
            return (h != ONE, h != ZERO, -h)

        cells = [""] + [str(f) for f in self.fields]
        rows = [cells]
        for f in self.fields:
            row = [str(f)]
            for g in self.fields:
                prod = sorted(self.product(f, g), key=cell_order)
                row.append(", ".join(str(h) for h in prod) if prod else "-")
            rows.append(row)
        widths = [max(len(r[c]) for r in rows) for c in range(len(cells))]
        lines = []
        for i, row in enumerate(rows):
            lines.append(" | ".join(cell.rjust(w) for cell, w in zip(row, widths)))
            if i == 0:
                lines.append("-+-".join("-" * w for w in widths))
        return "\n".join(lines)


def _check_pq(p: int, q: int):
    if p < 2 or q < 2:
        raise ValueError("p and q must be at least 2")
    if p == q:
        raise ValueError("p and q must be distinct")
    if gcd(p, q) != 1:
        raise ValueError("p and q must be coprime")


def central_charge(p: int, q: int) -> Fraction:
    """Central charge 1 - 6(p-q)^2/(pq) of the discrete-series pair (p, q)."""
    _check_pq(p, q)
    return 1 - Fraction(6 * (p - q) ** 2, p * q)


def _weight(p: int, q: int, r: int, s: int) -> Fraction:
    return Fraction((s * p - r * q) ** 2 - (p - q) ** 2, 4 * p * q)


def highest_weights(p: int, q: int):
    """Distinct highest weights h(r, s), each with its (r, s) representatives.

    Returns a list of (weight, frozenset of (r, s)) in the order of the
    canonical representative; the count is (p-1)(q-1)/2.
    """
    _check_pq(p, q)
    by_weight: dict[Fraction, set] = {}
    for r in range(1, p):
        for s in range(1, q):
            by_weight.setdefault(_weight(p, q, r, s), set()).add((r, s))
    out = [(h, frozenset(reps)) for h, reps in by_weight.items()]
    out.sort(key=lambda t: min(t[1]))
    if len(out) != (p - 1) * (q - 1) // 2:
        raise ArithmeticError(f"found {len(out)} distinct weights for V({p},{q}), "
                              f"expected (p-1)(q-1)/2")
    return out


def _admissible_products(p, q, rs, tu):
    """Weights of the summands of the product of modules h(rs) and h(tu)."""
    (r, s), (t, u) = rs, tu
    weights = set()
    for v in range(1 + abs(r - t), min(r + t - 1, 2 * p - r - t - 1) + 1, 2):
        for w in range(1 + abs(s - u), min(s + u - 1, 2 * q - s - u - 1) + 1, 2):
            weights.add(_weight(p, q, v, w))
    return weights


def virasoro_rules(p: int, q: int) -> FusionRules:
    """The fusion rules V(p, q): halved weights plus the identity field 1."""
    weights = highest_weights(p, q)
    reps = {h: min(rs) for h, rs in weights}
    halved = {h: h / 2 for h, _ in weights}
    fields = (ONE,) + tuple(halved[h] for h, _ in weights)
    if len(set(fields)) != len(fields):
        raise ValueError(
            f"V({p},{q}): a halved weight collides with another field; "
            "the set-of-fields model does not apply"
        )

    star: dict = {}

    def put(f, g, value):
        star[(f, g)] = value
        star[(g, f)] = value

    put(ONE, ONE, frozenset({ONE}))
    for h, _ in weights:
        put(ONE, halved[h], frozenset({halved[h]}))
    # the admissible bounds are symmetric, so each unordered pair is computed once
    for i, (h1, _) in enumerate(weights):
        for h2, _ in weights[i:]:
            bullet = _admissible_products(p, q, reps[h1], reps[h2])
            value = {w / 2 for w in bullet}
            if ZERO in bullet:
                value.add(ONE)
            put(halved[h1], halved[h2], frozenset(value))
    return FusionRules(central_charge(p, q), fields, star)


def find_z2_gradings(rules: FusionRules) -> list[Grading]:
    """All Z/2-gradings, the trivial one (odd part empty) included.

    A grading is a parity x_f in GF(2) for each field, with the identity
    field even and x_f + x_g + x_h = 0 for every h in f*g.  Each equation is
    a bitmask over the other fields; elimination leaves a basis of the
    solutions, and their sums are the gradings, ordered by the size of the
    odd part and then by the positions of its fields in the field order.
    """
    others = [f for f in rules.fields if f != ONE]
    bit = {f: 1 << i for i, f in enumerate(others)}
    rows = {}  # leading bit -> the equation that leads with it
    for i, f in enumerate(rules.fields):
        for g in rules.fields[i:]:
            for h in rules.product(f, g):
                row = bit.get(f, 0) ^ bit.get(g, 0) ^ bit.get(h, 0)
                while row:
                    lead = row.bit_length() - 1
                    if lead not in rows:
                        rows[lead] = row
                        break
                    row ^= rows[lead]
    # one solution per free field, the led fields solved from the lowest up
    basis = []
    for j in range(len(others)):
        if j not in rows:
            x = 1 << j
            for lead in sorted(rows):
                if (rows[lead] & x).bit_count() % 2:
                    x |= 1 << lead
            basis.append(x)
    solutions = [0]
    for x in basis:
        solutions += [s ^ x for s in solutions]
    positions = sorted(([i for i in range(len(others)) if s >> i & 1] for s in solutions),
                       key=lambda odd: (len(odd), odd))
    odd_sets = [frozenset(others[i] for i in odd) for odd in positions]
    return [Grading(frozenset(rules.fields) - odd, odd) for odd in odd_sets]


def frobenius_refine(rules: FusionRules) -> FusionRules:
    """Drop 1 from 0*0: in a Frobenius algebra zero-eigenvectors multiply
    into the axis' perpendicular complement."""
    if ZERO not in rules.fields:
        raise ValueError("refinement needs 0 among the fields")
    star = dict(rules.star)
    star[(ZERO, ZERO)] = star[(ZERO, ZERO)] - {ONE}
    return FusionRules(rules.central_charge, rules.fields, star)
