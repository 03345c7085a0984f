import json
import random
from fractions import Fraction as Q
from math import gcd
from pathlib import Path

import pytest

from axial import algebra as algebra_mod
from axial import linalg
from axial.algebra import (ConsistencyError, ShapeError, StructureAlgebra, automorphism_defects,
                           bilinear, certify, check_axis, defect, eigen_decompose, form,
                           ideal_closure, miyamoto, pair, quotient, verify_form)
from axial.fusion import find_z2_gradings, frobenius_refine, virasoro_rules
from axial.poly import MultiPoly
from conftest import (POINT_AT, associates_with_zero_eigenvectors, fraction_inverse,
                      ref_ad_columns, ref_automorphism_defects, ref_evaluate,
                      ref_ideal_closure, ref_violations, three_c)
from axial.sakuma import EvalPoint, _eval_matrix, classify, discrepancy_quotient, evaluate_point
from test_linalg import eye, rank_and_kernel, ref_reduce_vector, ref_rref

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "3c.json"


@pytest.fixture(scope="module")
def rules():
    return frobenius_refine(virasoro_rules(4, 3))


@pytest.fixture(scope="module")
def grading(rules):
    return next(g for g in find_z2_gradings(rules) if not g.trivial)


@pytest.fixture()
def alg():
    return three_c()


def e(i, n=3):
    return [Q(1) if k == i else Q(0) for k in range(n)]


def one_dim_idempotent():
    return StructureAlgebra(["e"], [[[Q(1)]]], [[Q(1)]], marked=[0])


# Fraction views of the integer entry points, for comparing with Fraction loops


def ad_fractions(algebra, a):
    """ad(a) as a Fraction matrix."""
    mat, d = algebra.ad_integer(a)
    return [[Q(x, d) for x in row] for row in mat]


def spaces_of(algebra, a, rules):
    return eigen_decompose(algebra.ad_integer(a), rules.fields)


def involution(algebra, a, rules, grading):
    """The Miyamoto involution of a as a Fraction matrix."""
    tau, d = miyamoto(algebra, check_axis(algebra, a, rules), grading)
    return [[Q(x, d) for x in row] for row in tau]


def ref_involution(spaces, grading):
    """P S P^-1 as Fractions for eigenspace bases as eigen_decompose returns
    them: P the eigenvectors as columns, S their signs under the grading,
    P^-1 inverted here rather than taken from a report."""
    p = linalg.transpose([v for basis in spaces.values() for v in basis])
    signs = [-1 if grading.parity(theta) else 1 for theta, basis in spaces.items() for _ in basis]
    p_inv = fraction_inverse(p)
    return [[sum(row[k] * signs[k] * p_inv[k][j] for k in range(len(signs)))
             for j in range(len(p))] for row in p]


def automorphism_failures(algebra, m):
    """[((i, j), m(e_i e_j) - (m e_i)(m e_j))] for a Fraction matrix m, as
    Fractions, from the integer defects."""
    mat, d = linalg.clear_matrix(m)
    scale = algebra.den * d * d
    return [(ij, [Q(x, scale) for x in diff])
            for ij, diff in automorphism_defects(algebra, mat, d)]


def test_three_c_products(alg):
    # for every pair of generators x != y and z the third: xx = x,
    # xy = (x + y - z)/64, <x, x> = 1 and <x, y> = 1/64
    for x in range(3):
        assert alg.multiply(e(x), e(x)) == e(x)
        assert alg.form(e(x), e(x)) == 1
        for y in set(range(3)) - {x}:
            z = 3 - x - y
            want = [Q(i + j - k, 64) for i, j, k in zip(e(x), e(y), e(z))]
            assert alg.multiply(e(x), e(y)) == want
            assert alg.form(e(x), e(y)) == Q(1, 64)
    assert alg.multiply(e(0), [Q(0)] * 3) == [Q(0)] * 3


def test_multiply_commutative_bilinear(alg):
    rng = random.Random(4)
    for _ in range(20):
        x = [Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)]
        y = [Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)]
        z = [Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)]
        c = Q(rng.randint(-3, 3), rng.randint(1, 3))
        assert alg.multiply(x, y) == alg.multiply(y, x)
        lhs = alg.multiply(x, [c * yi + zi for yi, zi in zip(y, z)])
        rhs = [c * p + q for p, q in zip(alg.multiply(x, y), alg.multiply(x, z))]
        assert lhs == rhs


def test_partial_table_names_the_missing_product(alg):
    table = [list(row) for row in alg.product]
    table[0][2] = table[2][0] = None
    # a product that never needs the missing entry still works
    assert bilinear(table, e(0), e(1), alg.labels) == alg.multiply(e(0), e(1))
    with pytest.raises(ConsistencyError, match=r"product \(a, c\) not yet available"):
        bilinear(table, e(0), [Q(1), Q(0), Q(2)], alg.labels)


def test_partial_gram_names_the_missing_form_value(alg):
    gram = [list(row) for row in alg.gram]
    gram[0][2] = gram[2][0] = None
    # a pairing that never needs the missing value still works, even from a
    # row that opens with it
    assert pair(gram[0], e(1)) == alg.gram[0][1]
    assert pair(gram[2], e(1)) == alg.gram[2][1]
    with pytest.raises(ConsistencyError, match=r"form value <a, c> not yet available"):
        pair(gram[0], [Q(1), Q(0), Q(2)], alg.labels, 0)
    with pytest.raises(ConsistencyError, match=r"form value <\?, 0> not yet available"):
        pair(gram[2], e(0))
    # form reads one row per nonzero coordinate of x and names what it misses
    assert form(gram, [Q(1), Q(1), Q(0)], e(1)) == alg.gram[0][1] + alg.gram[1][1]
    with pytest.raises(ConsistencyError, match=r"form value <c, a> not yet available"):
        form(gram, e(2), [Q(1), Q(1), Q(0)], alg.labels)


def test_three_c_eigenspaces(alg, rules):
    spaces, semisimple = spaces_of(alg, e(0), rules)
    assert semisimple
    dims = {theta: len(basis) for theta, basis in spaces.items()}
    assert dims == {Q(1): 1, Q(0): 1, Q(1, 4): 0, Q(1, 32): 1}
    assert spaces[Q(0)] == linalg.echelon_span([[Q(1), Q(-32), Q(-32)]])
    assert spaces[Q(1, 32)] == linalg.echelon_span([[Q(0), Q(1), Q(-1)]])


def test_ad_shift_kernel_is_expected_line(alg):
    ad = ad_fractions(alg, e(0))
    shifted = [[ad[i][j] - (Q(1, 32) if i == j else 0) for j in range(3)] for i in range(3)]
    rank, kernel = rank_and_kernel(shifted)
    assert rank == 2
    assert linalg.echelon_span(kernel) == linalg.echelon_span([[Q(0), Q(1), Q(-1)]])


def test_eigenspaces_intersect_trivially(alg, rules):
    spaces, _ = spaces_of(alg, e(0), rules)
    stacked = [v for basis in spaces.values() for v in basis]
    rank, _ = rank_and_kernel(stacked)
    assert rank == sum(len(b) for b in spaces.values())


def test_check_axis_three_c(alg, rules):
    for i in range(3):
        report = check_axis(alg, e(i), rules)
        assert report.passed, report
        assert report.spectrum[Q(1, 4)] == 0  # the quarter field is unrealised
        assert report.norm_ok  # <a, a> = 1 = 2 * (1/2)


def test_check_axis_zero_vector(alg, rules):
    report = check_axis(alg, [Q(0)] * 3, rules)
    assert report.idempotent
    assert not report.norm_ok
    assert not report.primitive
    assert not report.passed


def test_the_eigenframe_refuses_dependent_eigenvectors(alg, rules, monkeypatch):
    # eigenspaces of distinct eigenvalues are independent, so a frame that is
    # not invertible is a fault of the model, not a break of the fusion law
    spaces = {Q(1): [[1, 0, 0]], Q(0): [[1, 0, 0], [0, 1, 0]]}
    monkeypatch.setattr(algebra_mod, "eigen_decompose", lambda ad, fields: (spaces, True))
    with pytest.raises(ConsistencyError, match="eigenvectors of the axis are not independent"):
        check_axis(alg, e(0), rules)


def test_primitivity_in_1a_plus_1a(rules):
    # u u = u, v v = v, u v = 0
    product = [[[Q(1), Q(0)], [Q(0), Q(0)]], [[Q(0), Q(0)], [Q(0), Q(1)]]]
    alg = StructureAlgebra(["u", "v"], product, [[Q(1), Q(0)], [Q(0), Q(1)]])
    # u + v is idempotent, but its 1-eigenspace is the whole algebra
    both = check_axis(alg, [Q(1), Q(1)], rules)
    assert both.idempotent and both.spectrum[Q(1)] == 2 and not both.primitive
    assert check_axis(alg, [Q(1), Q(0)], rules).primitive
    # u - v has the 1-eigenspace span(u), which does not contain u - v
    diff = check_axis(alg, [Q(1), Q(-1)], rules)
    assert diff.spectrum[Q(1)] == 1 and not diff.primitive


def test_one_dim_algebra(rules):
    tiny = one_dim_idempotent()
    spaces, semisimple = spaces_of(tiny, [Q(1)], rules)
    assert semisimple and len(spaces[Q(1)]) == 1
    grading = next(g for g in find_z2_gradings(rules) if not g.trivial)
    tau = miyamoto(tiny, check_axis(tiny, [Q(1)], rules), grading)
    assert tau == ([[1]], 1)


def test_miyamoto_swaps_other_axes(alg, rules, grading):
    tau = involution(alg, e(0), rules, grading)
    assert linalg.matvec(tau, e(1)) == e(2)
    assert linalg.matvec(tau, e(2)) == e(1)
    assert linalg.matvec(tau, e(0)) == e(0)


def test_automorphism_failures(alg):
    # permuting the three axes is an automorphism of 3C; doubling is not
    swap = [e(0), e(2), e(1)]
    assert automorphism_failures(alg, linalg.transpose(swap)) == []
    double = [[2 * x for x in row] for row in eye(3)]
    failures = automorphism_failures(alg, double)
    assert [pair for pair, _ in failures] == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    # m(e_0 e_0) - (m e_0)(m e_0) = 2 e_0 - 4 e_0
    assert failures[0][1] == [Q(-2), Q(0), Q(0)]


def test_miyamoto_names_the_failing_pair(alg, rules, grading):
    # <a, b> = 1/64 with b b = b + a/8 - c/8 keeps the form and the eigenspaces
    # of a, but the flip of b and c is no longer an automorphism
    product = [[list(v) for v in row] for row in alg.product]
    product[1][1] = [Q(1, 8), Q(1), Q(-1, 8)]
    broken = StructureAlgebra(alg.labels, product, alg.gram, alg.marked)
    with pytest.raises(ConsistencyError, match=r"not an automorphism at \(1, 1\)"):
        involution(broken, e(0), rules, grading)


def marked_certificate(algebra, rules):
    """certify on the marked axes, by label."""
    return certify(algebra, {algebra.labels[m]: algebra.basis_vector(m)
                             for m in algebra.marked}, rules)


def test_verify_form_three_c(alg, rules):
    report = marked_certificate(alg, rules).form
    assert report.passed
    assert report.assoc_failures == []
    assert report.perpendicular == {"a": True, "b": True, "c": True}


def direct_failures(alg):
    n = alg.dim
    product, gram = alg.product, alg.gram
    return [(i, j, k) for i in range(n) for j in range(n) for k in range(n)
            if defect(product, gram, i, j, k)]


def test_verify_form_matches_the_direct_loop(uni, alg):
    # off the nine points the form fails to associate
    off = evaluate_point(uni, EvalPoint(Q(1, 3), Q(1, 5)))
    failures = verify_form(off, {}).assoc_failures
    assert failures and failures == direct_failures(off)
    assert verify_form(alg, {}).assoc_failures == direct_failures(alg) == []


def test_verify_form_trivial_product():
    zero3 = [[(([Q(0)] * 2)) for _ in range(2)] for _ in range(2)]
    diag = StructureAlgebra(["u", "v"], zero3, [[Q(2), Q(0)], [Q(0), Q(3)]])
    assert verify_form(diag, {}).associative


def test_verify_form_detects_failure(alg, rules):
    broken = StructureAlgebra(alg.labels, alg.product,
                              [[Q(2) * alg.gram[i][j] if (i, j) == (0, 1) or (i, j) == (1, 0)
                                else alg.gram[i][j] for j in range(3)] for i in range(3)],
                              alg.marked)
    assert not verify_form(broken, {}).associative
    # <a, c> = 1/32 in place of 1/64 leaves the product, and so every
    # eigenspace, alone; the 0- and 1/32-eigenspaces of a and of c are then
    # no longer perpendicular, while those of b still are
    data = json.loads(FIXTURE.read_text())
    data["gram"][0][2] = data["gram"][2][0] = "1/32"
    skewed = StructureAlgebra.from_json(data)
    report = marked_certificate(skewed, rules).form
    assert report.perpendicular == {"a": False, "b": True, "c": False}
    assert not report.passed


def test_seress_associativity(alg):
    assert associates_with_zero_eigenvectors(alg, e(0))


def test_ideal_closure_trivial_cases(alg):
    assert ideal_closure(alg, []) == []
    tiny = one_dim_idempotent()
    assert ideal_closure(tiny, [[Q(1)]]) == [[Q(1)]]


def test_ideal_closure_is_multiplicatively_closed(alg):
    closure = ideal_closure(alg, [[Q(0), Q(1), Q(-1)]])
    for v in closure:
        for i in range(3):
            # closure is a canonical basis, so a vector in its span leaves it alone
            assert linalg.echelon_span(closure + [alg.multiply(e(i), v)]) == closure


def test_semi_naive_closure_matches_full_rounds_at_the_nine_points(uni, points):
    # the discrepancy generators with tau0 and the flip as maps, as
    # discrepancy_quotient closes them, and with no maps at all
    for pt in points.values():
        evaluated = evaluate_point(uni, pt)
        symmetries = [_eval_matrix(uni.tau0, pt), _eval_matrix(uni.flip, pt)]
        gens = [diff for m, d in symmetries for _, diff in automorphism_defects(evaluated, m, d)]
        maps = [m for m, _ in symmetries]
        for chosen in (maps, []):
            assert ideal_closure(evaluated, gens, chosen) == \
                ref_ideal_closure(evaluated, gens, chosen), pt.name
        assert ideal_closure(evaluated, gens, maps) == discrepancy_quotient(uni, pt).ideal


def test_quotient_trivial_cases(alg):
    same, proj = quotient(alg, [])
    assert same.dim == 3 and proj == eye(3)
    # whole space as ideal: needs the form to vanish on it
    null = StructureAlgebra(["e"], [[[Q(0)]]], [[Q(0)]])
    zero_alg, _ = quotient(null, [[Q(1)]])
    assert zero_alg.dim == 0


def test_quotient_rejects_non_ideal(alg):
    with pytest.raises(ConsistencyError):
        quotient(alg, [e(0)])


def test_quotient_rejects_form_violation():
    zero3 = [[(([Q(0)] * 2)) for _ in range(2)] for _ in range(2)]
    diag = StructureAlgebra(["u", "v"], zero3, [[Q(1), Q(0)], [Q(0), Q(1)]])
    # every subspace is an ideal here, but the form does not vanish
    with pytest.raises(ConsistencyError):
        quotient(diag, [[Q(1), Q(0)]])


def test_json_round_trip(alg):
    data = alg.to_json()
    back = StructureAlgebra.from_json(data)
    assert back.to_json() == data
    assert back.product == alg.product and back.gram == alg.gram


def test_fixture_file_matches_generator(alg):
    data = json.loads(FIXTURE.read_text())
    assert data == alg.to_json()


def test_rejects_bad_shapes():
    with pytest.raises(ValueError):
        StructureAlgebra(["x"], [[[Q(1)]]], [[Q(1), Q(0)]])
    with pytest.raises(ShapeError, match="not commutative"):
        StructureAlgebra(["x", "y"],
                         [[[Q(1), Q(0)], [Q(0), Q(1)]],
                          [[Q(1), Q(1)], [Q(0), Q(0)]]],
                         [[Q(1), Q(0)], [Q(0), Q(1)]])
    with pytest.raises(ShapeError, match="not symmetric"):
        StructureAlgebra(["x", "y"],
                         [[[Q(1), Q(0)], [Q(0), Q(0)]],
                          [[Q(0), Q(0)], [Q(0), Q(1)]]],
                         [[Q(1), Q(1)], [Q(0), Q(1)]])


def test_vectors_of_the_wrong_length_are_refused(alg):
    # zipping with the tables would cut them to fit: form([1], [1]) read 1
    # and form on two length-5 vectors 99/32
    for x, y in (([Q(1)], [Q(1)]), ([Q(1)] * 5, [Q(1)] * 5), (e(0), [Q(1)] * 4)):
        for call in (lambda: alg.form(x, y), lambda: alg.multiply(x, y),
                     lambda: alg.ad_integer(y)):
            with pytest.raises(ShapeError, match="vector length does not match"):
                call()
    assert alg.form(e(0), e(1)) == Q(1, 64)


@pytest.mark.parametrize("index", [3, 5, -1, True, 1.5], ids=["3", "5", "-1", "bool", "float"])
def test_basis_vector_refuses_an_index_out_of_range(alg, index):
    # the index was compared with each position: basis_vector(5) read [0, 0, 0]
    with pytest.raises(ShapeError, match="is not in 0..2"):
        alg.basis_vector(index)
    assert alg.basis_vector(2) == [0, 0, 1]


@pytest.mark.parametrize("flag", [True, False])
def test_every_constructor_refuses_a_boolean_marked_index(alg, flag):
    # a bool passes isinstance(m, int): the constructor kept marked == [True]
    message = "a marked index is a boolean, not an integer"
    with pytest.raises(ShapeError, match=message):
        StructureAlgebra(alg.labels, alg.product, alg.gram, marked=[flag])
    with pytest.raises(ShapeError, match=message):
        StructureAlgebra.from_integers(alg.labels, alg.table, alg.den, alg.gram_table,
                                       alg.gram_den, marked=[flag])
    with pytest.raises(ShapeError, match=message):
        StructureAlgebra.from_json({**alg.to_json(), "marked": [flag]})
    assert StructureAlgebra(alg.labels, alg.product, alg.gram, marked=[int(flag)]).marked == \
        [int(flag)]


def test_every_constructor_refuses_a_repeated_marked_index(alg):
    # certify keeps one axis per label, so the repeat was dropped silently
    message = r"^marked index 0 is repeated in \[0, 1, 0\]$"
    with pytest.raises(ShapeError, match=message):
        StructureAlgebra(alg.labels, alg.product, alg.gram, marked=[0, 1, 0])
    with pytest.raises(ShapeError, match=message):
        StructureAlgebra.from_integers(alg.labels, alg.table, alg.den, alg.gram_table,
                                       alg.gram_den, marked=[0, 1, 0])
    with pytest.raises(ShapeError, match=message):
        StructureAlgebra.from_json({**alg.to_json(), "marked": [0, 1, 0]})
    assert StructureAlgebra(alg.labels, alg.product, alg.gram, marked=[2, 0]).marked == [2, 0]


@pytest.mark.parametrize("entry", [0.1, True, MultiPoly({(1, 0): 1}), "1"],
                         ids=["float", "bool", "polynomial", "string"])
@pytest.mark.parametrize("table", ["product", "gram"])
def test_constructor_refuses_entries_that_are_not_rational(entry, table):
    # a float or a bool would be read as a rational silently, a polynomial
    # or a string would fail deep in the integer kernel
    product, gram = [[[Q(1), Q(0)], [Q(0), Q(0)]], [[Q(0), Q(0)], [Q(0), 1]]], [[1, 0], [0, 1]]
    if table == "product":
        product[1][1][1] = entry
    else:
        gram[1][1] = entry
    with pytest.raises(ShapeError) as err:
        StructureAlgebra(["x", "y"], product, gram)
    assert str(err.value) == f"an entry of type {type(entry).__name__} is not rational"
    # a non-bool int is a rational
    product[1][1][1] = gram[1][1] = 1
    assert StructureAlgebra(["x", "y"], product, gram).product == \
        [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]


# -- the integer adjoint paths against the Fraction loops they replaced ---------


def ref_automorphism_failures(algebra, m):
    cols = linalg.transpose(m)
    product = algebra.product
    out = []
    for i in range(algebra.dim):
        for j in range(i, algebra.dim):
            d = linalg.sub_vec(linalg.matvec(m, product[i][j]),
                               algebra.multiply(cols[i], cols[j]))
            if any(d):
                out.append(((i, j), d))
    return out


@pytest.fixture(scope="module")
def quotients(uni, points):
    """3C, the evaluated algebra at 4B and the quotients at 3A and 4B, each
    with the images of a_0 and a_1 (a_0 + a_1 in 3C, which is not an axis)."""
    out = [(three_c(), [e(0), e(1), [Q(1), Q(1), Q(0)]])]
    four_b = evaluate_point(uni, points[POINT_AT["4B"]])
    out.append((four_b, [four_b.basis_vector(2), four_b.basis_vector(3)]))
    for name in ("3A", "4B"):
        disc = discrepancy_quotient(uni, points[POINT_AT[name]])
        axes = [linalg.matvec(disc.projection, disc.evaluated.basis_vector(i)) for i in (2, 3)]
        out.append((disc.quotient, axes))
    return out


def random_vector(rng, n):
    return [Q(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(n)]


def test_ad_matrix_is_the_columns_of_multiply(quotients):
    rng = random.Random(13)
    for algebra, axes in quotients:
        n = algebra.dim
        for a in axes + [random_vector(rng, n) for _ in range(3)]:
            cols = [algebra.multiply(a, algebra.basis_vector(j)) for j in range(n)]
            assert ad_fractions(algebra, a) == linalg.transpose(cols)


def test_fibres_read_ad_as_the_coordinate_loop_did(uni, points):
    # ad_integer and _ad_columns take one dot product with a fibre per
    # entry; ref_ad_columns adds a scaled table row per nonzero coordinate
    algebras = [discrepancy_quotient(uni, pt).quotient for pt in points.values()]
    algebras += [StructureAlgebra.from_json(json.loads((FIXTURE.parent / name).read_text()))
                 for name in ("3c.json", "4b_dense.json")]
    rng = random.Random(23)
    for algebra in algebras:
        n = algebra.dim
        for v in [algebra.basis_vector(j) for j in range(n)] + \
                [random_vector(rng, n) for _ in range(3)] + [[Q(0)] * n]:
            nums, dv = linalg.clear_denominators(v)
            cols = ref_ad_columns(algebra, nums)
            assert algebra._ad_columns(nums) == cols
            assert algebra.ad_integer(v) == (linalg.transpose(cols), algebra.den * dv)
        assert algebra.fibres is algebra.fibres  # built once


def test_integer_annihilators_match_the_fraction_loop(quotients, uni, points, rules):
    # check_axis's span test against the annihilator polynomials of conftest
    cases = [(algebra, a) for algebra, axes in quotients for a in axes]
    for pt in points.values():
        evaluated = evaluate_point(uni, pt)
        disc = discrepancy_quotient(uni, pt)
        axes = [evaluated.basis_vector(i) for i in (2, 3)]
        images = [linalg.matvec(disc.projection, v) for v in axes]
        # each algebra at a_0, a_1 and a_0 - a_1, which is not an axis
        for algebra, (x, y) in ((evaluated, axes), (disc.quotient, images)):
            cases += [(algebra, x), (algebra, y), (algebra, linalg.sub_vec(x, y))]
    seen = set()
    for algebra, a in cases:
        report = check_axis(algebra, a, rules)
        assert report.violations == ref_violations(algebra, a, rules)
        seen.add((report.semisimple, report.fusion_ok))
    # semisimple and not, obeying the fusion law and not
    assert {s for s, _ in seen} == {f for _, f in seen} == {True, False}
    # a_0 + a_1 in 3C breaks the fusion rules, so the nonzero branch runs too
    assert ref_violations(three_c(), [Q(1), Q(1), Q(0)], rules)


def test_integer_automorphism_failures_match_the_fraction_loop(uni, points):
    for lam, mu in list(points)[:4] + [(Q(-7, 3), Q(5, 11))]:
        pt = EvalPoint(lam, mu)
        alg = evaluate_point(uni, pt)
        for sym in (uni.tau0, uni.flip):
            m = [[ref_evaluate(x, lam, mu) for x in row] for row in sym]
            assert automorphism_failures(alg, m) == ref_automorphism_failures(alg, m)


def test_every_automorphism_check_of_classify_matches_the_dense_loop(uni, monkeypatch):
    # tau0 and the flip at the nine points, the two Miyamoto involutions of
    # each quotient and the induced axis shift: 9 * (2 + 2 + 1) calls
    calls = []

    def recorded(algebra, mat, d):
        calls.append((algebra, mat, d))
        return automorphism_defects(algebra, mat, d)

    monkeypatch.setattr("axial.algebra.automorphism_defects", recorded)
    monkeypatch.setattr("axial.sakuma.automorphism_defects", recorded)
    classify(uni)
    assert len(calls) == 45
    failing = 0
    for algebra, mat, d in calls:
        want = ref_automorphism_defects(algebra, mat, d)
        assert automorphism_defects(algebra, mat, d) == want
        failing += bool(want)
    # tau0 and the flip fail on the evaluated algebras except at 6A, where
    # the ideal is zero, and tau0 at 5A; every check on a quotient passes
    assert failing == 15


def test_miyamoto_reuses_the_checked_eigenspaces(quotients, rules, grading):
    # the report's eigenspaces and frame inverse give the involution that
    # eigen_decompose's spaces and a separately inverted frame give
    for algebra, axes in quotients[2:]:
        for a in axes:
            spaces = spaces_of(algebra, a, rules)[0]
            report = check_axis(algebra, a, rules)
            assert report.spaces == spaces
            tau, d = miyamoto(algebra, report, grading)
            assert [[Q(x, d) for x in row] for row in tau] == ref_involution(spaces, grading)


def dense_four_b_axis(rules):
    """The dense 4B fixture and check_axis's report on its axis a_0."""
    alg = StructureAlgebra.from_json(json.loads((FIXTURE.parent / "4b_dense.json").read_text()))
    return alg, check_axis(alg, alg.basis_vector(0), rules)


def test_miyamoto_takes_the_frame_inverse_of_check_axis(rules, grading):
    alg, report = dense_four_b_axis(rules)
    columns = [v for basis in report.spaces.values() for v in basis]
    assert report.inverse == linalg.integer_inverse(linalg.transpose(columns))
    tau, d = miyamoto(alg, report, grading)
    assert [[Q(x, d) for x in row] for row in tau] == ref_involution(report.spaces, grading)


def test_miyamoto_refuses_eigenspaces_that_do_not_span():
    # under the refined V(5, 4) the dense 4B axis is not semisimple, so
    # check_axis completed its frame with unit vectors and the report's
    # eigenspaces alone do not span the algebra
    rules = frobenius_refine(virasoro_rules(5, 4))
    alg, report = dense_four_b_axis(rules)
    assert not report.semisimple
    grading = next(g for g in find_z2_gradings(rules) if not g.trivial)
    with pytest.raises(ConsistencyError,
                       match="^eigenspaces of the axis do not span the algebra$"):
        miyamoto(alg, report, grading)


def test_miyamoto_refuses_a_map_that_is_no_involution(rules, grading):
    # P S P^-1 squares to the identity for every invertible P, so from a true
    # eigenframe this check cannot fire; a fault is injected instead, as an
    # inverse with one row doubled: T^2 is then P D^2 P^-1 with D = diag(2, 1, ...)
    alg, report = dense_four_b_axis(rules)
    inv, d = report.inverse
    wrong = [[2 * x for x in inv[0]]] + inv[1:]
    with pytest.raises(ConsistencyError, match="the involution does not square to the identity"):
        miyamoto(alg, report._replace(inverse=(wrong, d)), grading)


def test_miyamoto_refuses_an_involution_that_moves_the_form(rules, grading):
    # the eigenspaces of an axis of a Frobenius algebra are perpendicular,
    # so P S P^-1 preserves the form and the check cannot fire on the
    # fixture; a fault is injected instead, negating the row of the inverse
    # that reads the first 0-eigenvector.  T stays an involution, but it now
    # also reflects in that vector, which is not perpendicular to the second
    alg, report = dense_four_b_axis(rules)
    zero_space = report.spaces[Q(0)]
    assert len(zero_space) == 2 and form(alg.gram_table, *zero_space) != 0
    inv, d = report.inverse
    first = len(report.spaces[Q(1)])  # the frame runs 1, 0, 1/4, 1/32
    wrong = inv[:first] + [[-x for x in inv[first]]] + inv[first + 1:]
    with pytest.raises(ConsistencyError, match="the involution does not preserve the form"):
        miyamoto(alg, report._replace(inverse=(wrong, d)), grading)


# -- the integer tables against the Fraction route they replaced ---------------
#
# ref_quotient is the former quotient: every product vector and basis vector
# reduced through the ideal by its monic Fraction rows (ref_rref,
# ref_reduce_vector).


def ref_quotient(algebra, ideal):
    basis, pivots = ref_rref(ideal)
    complement = [c for c in range(algebra.dim) if c not in pivots]
    proj = linalg.transpose(
        [[ref_reduce_vector(basis, algebra.basis_vector(j))[c] for c in complement]
         for j in range(algebra.dim)])
    product, gram = algebra.product, algebra.gram
    table = [[[ref_reduce_vector(basis, product[c1][c2])[c] for c in complement]
              for c2 in complement] for c1 in complement]
    return ([algebra.labels[c] for c in complement], table,
            [[gram[c1][c2] for c2 in complement] for c1 in complement], proj)


def test_quotients_match_the_fraction_route(uni, points):
    for pt in points.values():
        disc = discrepancy_quotient(uni, pt)
        labels, table, gram, proj = ref_quotient(disc.evaluated, disc.ideal)
        quot = disc.quotient
        assert quot.labels == labels and quot.product == table and quot.gram == gram
        assert disc.projection == proj
        # the integer tables are in lowest terms
        flat = [x for row in quot.table for vec in row for x in vec]
        assert gcd(quot.den, *flat) == 1 and gcd(quot.gram_den, *sum(quot.gram_table, [])) == 1


def test_from_integers_checks_and_reduces():
    table = [[[2, 0], [0, 4]], [[0, 4], [6, 0]]]
    gram = [[3, 0], [0, 3]]
    alg = StructureAlgebra.from_integers(["x", "y"], table, 4, gram, -6)
    assert (alg.den, alg.gram_den) == (2, 2)
    assert alg.table == [[[1, 0], [0, 2]], [[0, 2], [3, 0]]]
    assert alg.product == [[[Q(1, 2), Q(0)], [Q(0), Q(1)]], [[Q(0), Q(1)], [Q(3, 2), Q(0)]]]
    assert alg.gram == [[Q(-1, 2), Q(0)], [Q(0), Q(-1, 2)]]
    assert StructureAlgebra(alg.labels, alg.product, alg.gram).table == alg.table
    with pytest.raises(ShapeError, match=r"not commutative at \(1, 0\)"):
        StructureAlgebra.from_integers(["x", "y"], [[[1, 0], [0, 1]], [[1, 1], [0, 0]]], 1,
                                       gram, 1)
    with pytest.raises(ShapeError, match="not symmetric"):
        StructureAlgebra.from_integers(["x", "y"], table, 1, [[1, 1], [0, 1]], 1)
    with pytest.raises(ShapeError, match="denominator is zero"):
        StructureAlgebra.from_integers(["x", "y"], table, 0, gram, 1)
    with pytest.raises(ShapeError, match="wrong shape"):
        StructureAlgebra.from_integers(["x"], table, 1, gram, 1)


def two_dim_json(v01, v10):
    """x x = x, y y = y and the given texts at (0, 1) and (1, 0)."""
    return {"labels": ["x", "y"], "product": [[["1", "0"], v01], [v10, ["0", "1"]]],
            "gram": [["1", "0"], ["0", "1"]]}


def test_a_mirrored_product_entry_is_read_by_its_value():
    # each of (0, 1) and (1, 0) is parsed, and the two are compared by value
    alg = StructureAlgebra.from_json(two_dim_json(["1/2", "0"], ["2/4", "0"]))
    assert alg.product[1][0] == alg.product[0][1] == [Q(1, 2), Q(0)]
    assert StructureAlgebra.from_json(two_dim_json(["1/2", "0"], ["1/2", "0"])).table == alg.table
    with pytest.raises(ShapeError, match=r"product is not commutative at \(1, 0\)"):
        StructureAlgebra.from_json(two_dim_json(["1/2", "0"], ["1/3", "0"]))


def test_a_mirrored_product_entry_keeps_the_shape_and_entry_errors():
    ragged = two_dim_json(["1/2", "0"], ["1/2", "0"])
    ragged["product"][1] = ragged["product"][1][:1]
    with pytest.raises(ShapeError, match="product tensor has the wrong shape"):
        StructureAlgebra.from_json(ragged)
    ragged = two_dim_json(["1/2", "0"], ["1/2", "0"])
    ragged["product"][0] = ragged["product"][0][:1]
    with pytest.raises(ShapeError, match="product tensor has the wrong shape"):
        StructureAlgebra.from_json(ragged)
    short = two_dim_json(["1/2"], ["1/2"])
    with pytest.raises(ShapeError, match="product tensor has the wrong shape"):
        StructureAlgebra.from_json(short)
    # the first bad entry in row order is the one named, mirrored or not
    for v01, v10, bad in ((["1/2", "x"], ["1/2", "y"], "'x'"), (["1/2", "0"], ["z", "0"], "'z'"),
                          (["w", "0"], ["w", "0"], "'w'")):
        with pytest.raises(ShapeError, match=f"entry {bad} is not a rational literal"):
            StructureAlgebra.from_json(two_dim_json(v01, v10))
    # true == 1 in Python, but a JSON true is no rational literal
    with pytest.raises(ShapeError, match="entry True is not a rational literal"):
        StructureAlgebra.from_json(two_dim_json([1, 0], [True, 0]))


def test_fraction_views_match_the_parsed_input():
    data = json.loads(FIXTURE.read_text())
    alg = StructureAlgebra.from_json(data)
    assert alg.product == [[[Q(c) for c in vec] for vec in row] for row in data["product"]]
    assert alg.gram == [[Q(c) for c in row] for row in data["gram"]]
    assert all(type(c) is Q for row in alg.product for vec in row for c in vec)
    assert all(type(c) is Q for row in alg.gram for c in row)
    # one denominator per table: 64 for both in 3C
    assert (alg.den, alg.gram_den) == (64, 64)
    with pytest.raises(AttributeError):
        alg.product = alg.product
    with pytest.raises(AttributeError):
        alg.gram = alg.gram
