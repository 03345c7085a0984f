import json
from fractions import Fraction as Q
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest

from axial import fusion
from axial.algebra import StructureAlgebra, certify
from axial.fusion import (FusionRules, Grading, RulesFormatError, central_charge,
                          find_z2_gradings, frobenius_refine, highest_weights, virasoro_rules)

ONE = Q(1)


def fs(*items):
    return frozenset(Q(x) for x in items)


# the full table for V(4,3): fields 1, 0, 1/4, 1/32
V43_TABLE = {
    (ONE, ONE): fs(1),
    (ONE, Q(0)): fs(0),
    (ONE, Q(1, 4)): fs("1/4"),
    (ONE, Q(1, 32)): fs("1/32"),
    (Q(0), Q(0)): fs(1, 0),
    (Q(0), Q(1, 4)): fs("1/4"),
    (Q(0), Q(1, 32)): fs("1/32"),
    (Q(1, 4), Q(1, 4)): fs(1, 0),
    (Q(1, 4), Q(1, 32)): fs("1/32"),
    (Q(1, 32), Q(1, 32)): fs(1, 0, "1/4"),
}

# the full table for V(5,3): fields 1, 0, 1/10, -1/40, 3/8
V53_TABLE = {
    (ONE, ONE): fs(1),
    (ONE, Q(0)): fs(0),
    (ONE, Q(1, 10)): fs("1/10"),
    (ONE, Q(-1, 40)): fs("-1/40"),
    (ONE, Q(3, 8)): fs("3/8"),
    (Q(0), Q(0)): fs(1, 0),
    (Q(0), Q(1, 10)): fs("1/10"),
    (Q(0), Q(-1, 40)): fs("-1/40"),
    (Q(0), Q(3, 8)): fs("3/8"),
    (Q(1, 10), Q(1, 10)): fs(1, 0, "1/10"),
    (Q(1, 10), Q(-1, 40)): fs("-1/40", "3/8"),
    (Q(1, 10), Q(3, 8)): fs("-1/40"),
    (Q(-1, 40), Q(-1, 40)): fs(1, 0, "1/10"),
    (Q(-1, 40), Q(3, 8)): fs("1/10"),
    (Q(3, 8), Q(3, 8)): fs(1, 0),
}


def test_central_charges():
    assert central_charge(4, 3) == Q(1, 2)
    assert central_charge(5, 3) == Q(-3, 5)
    assert central_charge(3, 2) == 0


@pytest.mark.parametrize("p,q", [(4, 2), (3, 3), (1, 5), (5, 0)])
def test_central_charge_rejects(p, q):
    with pytest.raises(ValueError):
        central_charge(p, q)


def test_highest_weights_43():
    weights = highest_weights(4, 3)
    assert {h for h, _ in weights} == {Q(0), Q(1, 2), Q(1, 16)}
    assert len(weights) == 3


@pytest.mark.parametrize("p,q", [(4, 3), (5, 3), (5, 4), (7, 2)])
def test_weight_count(p, q):
    assert len(highest_weights(p, q)) == (p - 1) * (q - 1) // 2


def test_a_wrong_weight_count_is_refused(monkeypatch):
    # h(r, s) = h(p - r, q - s) pairs the (p - 1)(q - 1) representatives and
    # no other two weights agree, so the count holds by construction; a
    # faulty weight formula that gives every (r, s) weight 0 breaks it
    monkeypatch.setattr(fusion, "_weight", lambda p, q, r, s: Q(0))
    with pytest.raises(ArithmeticError, match=r"^found 1 distinct weights for V\(4,3\), "
                                              r"expected \(p-1\)\(q-1\)/2$"):
        highest_weights(4, 3)


@pytest.mark.parametrize("p,q", [(4, 3), (5, 3), (5, 4), (7, 2)])
def test_first_weight_is_zero(p, q):
    weights = dict(highest_weights(p, q))
    # (r, s) = (1, 1) always gives weight zero
    assert any(h == 0 and (1, 1) in reps for h, reps in weights.items())


def test_v43_table_cell_for_cell():
    rules = virasoro_rules(4, 3)
    assert rules.central_charge == Q(1, 2)
    assert set(rules.fields) == {ONE, Q(0), Q(1, 4), Q(1, 32)}
    for (f, g), expected in V43_TABLE.items():
        assert rules.product(f, g) == expected, (f, g)
        assert rules.product(g, f) == expected


def test_v53_table_cell_for_cell():
    rules = virasoro_rules(5, 3)
    assert rules.central_charge == Q(-3, 5)
    assert set(rules.fields) == {ONE, Q(0), Q(1, 10), Q(-1, 40), Q(3, 8)}
    for (f, g), expected in V53_TABLE.items():
        assert rules.product(f, g) == expected, (f, g)


@pytest.mark.parametrize("p,q", [(4, 3), (5, 3), (5, 4), (7, 2)])
def test_identity_field_acts_trivially(p, q):
    rules = virasoro_rules(p, q)
    assert rules.product(ONE, ONE) == {ONE}
    for f in rules.fields:
        assert rules.product(ONE, f) == {f}
    # ints hash and compare equal to the Fraction fields they name
    assert rules.product(0, 1) == {0}


@pytest.mark.parametrize("p,q", [(4, 3), (5, 3), (5, 4), (7, 2)])
def test_table_symmetric(p, q):
    rules = virasoro_rules(p, q)
    for f in rules.fields:
        for g in rules.fields:
            assert rules.product(f, g) == rules.product(g, f)


@pytest.mark.parametrize("p,q", [(4, 3), (5, 3), (5, 4), (7, 2)])
def test_products_independent_of_weight_representative(p, q):
    from axial.fusion import _admissible_products, highest_weights

    weights = highest_weights(p, q)
    for h1, reps1 in weights:
        for h2, reps2 in weights:
            results = {frozenset(_admissible_products(p, q, r1, r2))
                       for r1 in reps1 for r2 in reps2}
            assert len(results) == 1, (h1, h2)


def test_gradings_v43():
    gradings = find_z2_gradings(virasoro_rules(4, 3))
    nontrivial = [g for g in gradings if not g.trivial]
    assert len(nontrivial) == 1
    assert nontrivial[0].odd == fs("1/32")
    assert nontrivial[0].even == fs(1, 0, "1/4")
    assert any(g.trivial for g in gradings)


def test_gradings_v53():
    nontrivial = [g for g in find_z2_gradings(virasoro_rules(5, 3)) if not g.trivial]
    assert len(nontrivial) == 1
    assert nontrivial[0].odd == fs("-1/40", "3/8")


@pytest.mark.parametrize("p,q", [(4, 3), (5, 3), (5, 4)])
def test_unique_nontrivial_grading(p, q):
    nontrivial = [g for g in find_z2_gradings(virasoro_rules(p, q)) if not g.trivial]
    assert len(nontrivial) == 1


def brute_force_gradings(rules):
    """Every odd set of non-identity fields whose parity every product
    respects, by odd-set size and then in combinations order."""
    others = [f for f in rules.fields if f != ONE]
    found = []
    for k in range(len(others) + 1):
        for odd in map(frozenset, combinations(others, k)):
            if all((h in odd) == ((f in odd) != (g in odd))
                   for f in rules.fields for g in rules.fields for h in rules.product(f, g)):
                found.append(Grading(frozenset(rules.fields) - odd, odd))
    return found


def is_modelled(p, q):
    """Whether V(p, q) is a set of fields: virasoro_rules refuses the tables
    in which a halved weight collides with another field, such as V(10, 3)."""
    try:
        virasoro_rules(p, q)
    except ValueError:
        return False
    return True


# every V(p, q) with at most 11 fields, that is (p - 1)(q - 1) <= 20
SMALL_VIRASORO = [(p, q) for p in range(3, 22) for q in range(2, p)
                  if gcd(p, q) == 1 and (p - 1) * (q - 1) <= 20 and is_modelled(p, q)]


@pytest.mark.parametrize("p,q", SMALL_VIRASORO)
def test_gradings_match_the_brute_force(p, q):
    rules = virasoro_rules(p, q)
    assert find_z2_gradings(rules) == brute_force_gradings(rules)


def test_gradings_match_the_brute_force_off_the_virasoro_tables():
    # with the products emptied every parity is a grading, so all 2^4 odd
    # sets come back, in the brute force's order
    rules = virasoro_rules(5, 3)
    empty = {pair: (frozenset({pair[1]}) if pair[0] == ONE else
                    frozenset({pair[0]}) if pair[1] == ONE else frozenset())
             for pair in rules.star}
    loose = FusionRules(rules.central_charge, rules.fields, empty)
    gradings = find_z2_gradings(loose)
    assert len(gradings) == 16 and gradings == brute_force_gradings(loose)


def test_v87_has_one_nontrivial_grading():
    gradings = find_z2_gradings(virasoro_rules(8, 7))
    assert [g.trivial for g in gradings] == [True, False]
    assert len(gradings[1].odd) == 9


def associative_rules(zero_self):
    star = {
        (ONE, ONE): fs(1),
        (ONE, Q(0)): fs(0),
        (Q(0), ONE): fs(0),
        (Q(0), Q(0)): zero_self,
    }
    return FusionRules(Q(1, 2), (ONE, Q(0)), star)


def test_two_field_rules_have_only_trivial_grading():
    rules = associative_rules(fs(0))
    gradings = find_z2_gradings(rules)
    assert len(gradings) == 1 and gradings[0].trivial


def seress_check(rules: FusionRules) -> bool:
    """Seress' condition: 0 is a field, 0*1 = {0}, and 0*f = {f} for all f != 1."""
    if Q(0) not in rules.fields or rules.product(Q(0), ONE) != fs(0):
        return False
    return all(rules.product(Q(0), f) == frozenset({f}) for f in rules.fields if f != ONE)


def test_seress_condition():
    assert seress_check(frobenius_refine(virasoro_rules(4, 3)))
    assert not seress_check(virasoro_rules(4, 3))  # 0*0 still contains 1
    assert seress_check(associative_rules(fs(0)))


def test_frobenius_refine():
    rules = virasoro_rules(4, 3)
    refined = frobenius_refine(rules)
    assert refined.product(Q(0), Q(0)) == fs(0)
    assert refined.product(Q(1, 32), Q(1, 32)) == fs(1, 0, "1/4")
    assert frobenius_refine(refined) == refined
    refined53 = frobenius_refine(virasoro_rules(5, 3))
    assert refined53.product(Q(0), Q(0)) == fs(0)


def test_frobenius_refine_needs_zero():
    star = {(ONE, ONE): fs(1)}
    rules = FusionRules(Q(1, 2), (ONE,), star)
    with pytest.raises(ValueError):
        frobenius_refine(rules)


def test_json_round_trip():
    rules = virasoro_rules(5, 3)
    data = rules.to_json()
    assert FusionRules.from_json(data) == rules
    # a file may list both orders of a pair, each with the same product set
    data["star"] += [[g, f, h] for f, g, h in data["star"]]
    assert FusionRules.from_json(data) == rules


def test_replace_builds_and_checks_the_law():
    # namedtuple's _replace goes through _make, which skipped __new__
    rules = frobenius_refine(virasoro_rules(4, 3))
    replaced = rules._replace(central_charge=Q(1, 2))
    assert replaced.law == rules.law
    data = json.loads((Path(__file__).resolve().parent.parent / "fixtures" / "3c.json").read_text())
    alg = StructureAlgebra.from_json(data)
    assert certify(alg, {alg.labels[i]: alg.basis_vector(i) for i in alg.marked}, replaced).passed
    with pytest.raises(ValueError, match=r"^star table is not symmetric at \(1, 0\)$"):
        rules._replace(star={**rules.star, (ONE, Q(0)): fs(1)})


def test_from_json_names_the_problem():
    good = virasoro_rules(4, 3).to_json()
    with pytest.raises(RulesFormatError, match="missing central_charge, fields, star"):
        FusionRules.from_json({})
    with pytest.raises(RulesFormatError):
        FusionRules.from_json([good])
    for key, value in (("fields", ["x"] + good["fields"][1:]), ("central_charge", 0.5),
                       ("star", good["star"][1:]), ("star", [["1", "0"]]),
                       ("star", good["star"] + [["1", "1", ["0"]]])):
        with pytest.raises(RulesFormatError):
            FusionRules.from_json({**good, key: value})


def test_rejects_asymmetric_table():
    star = {
        (ONE, ONE): fs(1),
        (ONE, Q(0)): fs(0),
        (Q(0), ONE): fs(1),
        (Q(0), Q(0)): fs(0),
    }
    with pytest.raises(ValueError):
        FusionRules(Q(1, 2), (ONE, Q(0)), star)


def test_parity_of_an_ungraded_field_is_a_key_error():
    grading = Grading(frozenset({Q(1), Q(0)}), frozenset({Q(1, 32)}))
    assert (grading.parity(Q(0)), grading.parity(Q(1, 32))) == (0, 1)
    with pytest.raises(KeyError, match="1/4 is not a graded field"):
        grading.parity(Q(1, 4))
