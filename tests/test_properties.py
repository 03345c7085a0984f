"""Property tests: the product/form/defect kernel on random rational vectors,
the axis checks of the 3C fixture in random bases, the fusion law on random
algebras against annihilator polynomials, the MultiPoly ring laws
and canonical form, MultiPoly against a Fraction-dict reference, poly.dot
against the naive sum of products, membership by complement projection
against the rank, integer_rref against its former generator loop, the semi-naive ideal closure against full rounds, the
automorphism defects against the dense loop on symmetries of mixed shape,
rational roots planted in random polynomials, with and without the sieve,
the resultant's degree against sympy's dimension of the quotient ring, the
eigenframe fusion test against the annihilators, the integer entry
reader of algebra files against the Fraction literal, and the command-line
contract on mutated input files."""

import io
import json
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as Q
from math import gcd, lcm
from operator import mul
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from axial import cli, linalg  # noqa: E402
from axial.algebra import (ShapeError, StructureAlgebra, _entry_ratio,  # noqa: E402
                           automorphism_defects, bilinear, certify, check_axis, defect,
                           ideal_closure, pair)
from axial.fusion import FusionRules, frobenius_refine, virasoro_rules  # noqa: E402
from axial.poly import (LAM, MU, MultiPoly, _fibre, _integer_grid, _literal,  # noqa: E402
                        dot, evaluate_all, rational_roots, resultant)
from axial.sakuma import A0, A1, EvalPoint, discrepancy_quotient, evaluate_point  # noqa: E402
from conftest import (fraction_inverse, ref_automorphism_defects, ref_ideal_closure,  # noqa: E402
                      ref_integer_rref, ref_quotient_dimension, ref_rational_roots,
                      ref_violations, three_c)

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=16)


def vectors(n):
    return st.lists(rationals, min_size=n, max_size=n)


def generic_form(alg, x, y):
    return sum((xi * pair(row, y) for xi, row in zip(x, alg.gram)), Q(0))


def check_kernel(alg, x, y, z, c):
    n = alg.dim
    product, gram = alg.product, alg.gram  # the Fraction views, built once
    xy = alg.multiply(x, y)
    # the integer tables agree with the generic loops on the Fraction tables
    assert xy == bilinear(product, x, y, alg.labels)
    assert all(type(v) is Q for v in xy)
    assert alg.form(x, z) == generic_form(alg, x, z)
    assert xy == alg.multiply(y, x)
    combo = [c * xi + zi for xi, zi in zip(x, z)]
    assert alg.multiply(combo, y) == [c * p + q for p, q in zip(xy, alg.multiply(z, y))]
    # the basis-triple defect extends trilinearly to <xy, z> - <x, yz>
    total = sum((x[i] * y[j] * z[k] * defect(product, gram, i, j, k)
                 for i in range(n) for j in range(n) for k in range(n)), Q(0))
    assert total == alg.form(xy, z) - alg.form(x, alg.multiply(y, z))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_kernel_on_three_c(data):
    x, y, z = (data.draw(vectors(3)) for _ in range(3))
    check_kernel(three_c(), x, y, z, data.draw(rationals))


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_kernel_on_6a(uni, data):
    alg = evaluate_point(uni, EvalPoint(Q(5, 256), Q(13, 256)))
    x, y, z = (data.draw(vectors(8)) for _ in range(3))
    check_kernel(alg, x, y, z, data.draw(rationals))


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_kernel_off_the_nine_points(uni, data):
    # away from the nine points the form fails to associate, so the defect
    # identity is tested on nonzero values
    pt = EvalPoint(data.draw(rationals), data.draw(rationals))
    alg = evaluate_point(uni, pt)
    x, y, z = (data.draw(vectors(8)) for _ in range(3))
    check_kernel(alg, x, y, z, data.draw(rationals))


FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "3c.json"
ISING = frobenius_refine(virasoro_rules(4, 3))
small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def change_basis(alg, p, p_inv):
    """The algebra in the basis given by the columns of p, built with the
    generic loops on the Fraction tables; p_inv maps old coordinates to new."""
    n = alg.dim
    cols = linalg.transpose(p)

    def to_new(w):
        return [sum((p_inv[r][k] * w[k] for k in range(n)), Q(0)) for r in range(n)]

    table = alg.product
    product = [[to_new(bilinear(table, cols[i], cols[j], alg.labels)) for j in range(n)]
               for i in range(n)]
    gram = [[generic_form(alg, cols[i], cols[j]) for j in range(n)] for i in range(n)]
    return StructureAlgebra([f"b{i}" for i in range(n)], product, gram), to_new


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(small, min_size=3, max_size=3), min_size=3, max_size=3))
def test_check_axis_in_a_random_basis(p):
    fixture = StructureAlgebra.from_json(json.loads(FIXTURE.read_text()))
    try:
        p_inv = fraction_inverse(p)
    except ValueError:
        hypothesis.assume(False)
    identity = [[Q(int(i == j)) for j in range(3)] for i in range(3)]
    assert [[sum((p[i][k] * p_inv[k][j] for k in range(3)), Q(0)) for j in range(3)]
            for i in range(3)] == identity
    alg, to_new = change_basis(fixture, p, p_inv)
    axes = {fixture.labels[m]: fixture.basis_vector(m) for m in fixture.marked}
    want = certify(fixture, axes, ISING)
    got = certify(alg, {label: to_new(a) for label, a in axes.items()}, ISING)
    assert want.passed and got.passed
    assert [r.spectrum for r in got.axes.values()] == [r.spectrum for r in want.axes.values()]


eigenvalues = st.sampled_from([Q(1), Q(0), Q(1, 4), Q(1, 32), Q(1, 2)])


@settings(max_examples=60, deadline=None)
@given(st.lists(eigenvalues, min_size=3, max_size=3), st.lists(small, min_size=3, max_size=3),
       st.lists(vectors(3), min_size=3, max_size=3), vectors(3), st.booleans())
def test_fusion_law_matches_the_annihilators(diagonal, upper, products, v, refined):
    # ad(e_0) is upper triangular with the drawn diagonal, so e_0 has the
    # drawn eigenvalues and, when one repeats, is often not semisimple
    (d0, d1, d2), (x01, x02, x12), zero = diagonal, upper, Q(0)
    ad = [[d0, x01, x02], [zero, d1, x12], [zero, zero, d2]]
    product = [[None] * 3 for _ in range(3)]
    for j in range(3):
        product[0][j] = product[j][0] = [row[j] for row in ad]
    for (i, j), vec in zip(((1, 1), (1, 2), (2, 2)), products):
        product[i][j] = product[j][i] = vec
    identity = [[Q(int(i == j)) for j in range(3)] for i in range(3)]
    alg = StructureAlgebra(["x", "y", "z"], product, identity)
    rules = ISING if refined else virasoro_rules(4, 3)
    for a in (alg.basis_vector(0), v):
        assert check_axis(alg, a, rules).violations == ref_violations(alg, a, rules)


# -- the eigenframe: check_axis against the annihilator polynomials ----------
#
# check_axis reads the fusion law off the coordinates of each eigenvector
# product in a frame of eigenvectors; ref_violations applies the
# annihilator of f*g to the products instead, and needs no frame.

# the refined Ising law narrowed to 1/4*1/4 = {1} and 1/32*1/32 = {1, 1/4},
# which the 3C and 4B axes break
NARROW = FusionRules.from_json(json.loads((FIXTURE.parent / "ising_narrow.json").read_text()))
TRICRITICAL = virasoro_rules(5, 4)


@pytest.mark.parametrize("name", ["3c", "4b_dense"])
def test_the_eigenframe_completes_eigenvectors_that_do_not_span(name):
    # 1/32 is no field of V(5, 4), so the eigenvectors miss a line and the
    # frame is completed by unit vectors; a_0 - a_1 also breaks the law there
    alg = StructureAlgebra.from_json(json.loads((FIXTURE.parent / f"{name}.json").read_text()))
    a0, a1 = alg.basis_vector(0), alg.basis_vector(1)
    broken = []
    for a in (a0, a1, linalg.sub_vec(a0, a1)):
        for rules in (TRICRITICAL, frobenius_refine(TRICRITICAL)):
            report = check_axis(alg, a, rules)
            assert not report.semisimple
            assert report.violations == ref_violations(alg, a, rules)
            broken.append(bool(report.violations))
    assert broken == [False] * 4 + [True] * 2


@pytest.mark.parametrize("name", ["3c", "4b_dense"])
def test_the_eigenframe_finds_the_breaks_of_a_narrowed_law(name):
    alg = StructureAlgebra.from_json(json.loads((FIXTURE.parent / f"{name}.json").read_text()))
    want = [(Q(1, 32), Q(1, 32))] if name == "3c" else [(Q(1, 4), Q(1, 4)), (Q(1, 32), Q(1, 32))]
    for m in alg.marked:
        a = alg.basis_vector(m)
        assert check_axis(alg, a, ISING).violations == ref_violations(alg, a, ISING) == []
        assert check_axis(alg, a, NARROW).violations == ref_violations(alg, a, NARROW) == want


def test_the_eigenframe_matches_the_annihilators_on_the_nine_quotients(uni, points):
    # each quotient in a seeded random rational basis, at the images of
    # a_0 and a_1, under the refined Ising law and the narrowed one
    rng = random.Random(21)
    broken = set()
    for pt in points.values():
        disc = discrepancy_quotient(uni, pt)
        n = disc.quotient.dim
        while True:
            p = [[Q(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
            try:
                p_inv = fraction_inverse(p)
                break
            except ValueError:
                continue
        alg, to_new = change_basis(disc.quotient, p, p_inv)
        for i in (A0, A1):
            a = to_new(linalg.matvec(disc.projection, disc.evaluated.basis_vector(i)))
            for rules in (ISING, NARROW):
                report = check_axis(alg, a, rules)
                assert report.semisimple
                assert report.violations == ref_violations(alg, a, rules)
                broken.add(bool(report.violations))
    assert broken == {False, True}


@pytest.mark.parametrize("rules", [virasoro_rules(4, 3), ISING, NARROW, TRICRITICAL,
                                   frobenius_refine(TRICRITICAL)],
                         ids=["vir-4-3", "ising", "narrow", "vir-5-4", "vir-5-4-refined"])
def test_the_law_by_position_is_the_star_table(rules):
    fields = rules.fields
    assert rules.law == tuple(tuple(frozenset(fields.index(h) for h in rules.product(f, g))
                                    for g in fields) for f in fields)


def test_the_law_by_position_matches_the_annihilators_off_the_ising_law(uni, points):
    # check_axis reads the law by field position, ref_violations by value;
    # each quotient at a_0, a_1 and a_0 - a_1 under the narrowed law and
    # under V(5, 4), where 1/32 is no field and the frame is completed
    broken = set()
    for pt in points.values():
        disc = discrepancy_quotient(uni, pt)
        alg = disc.quotient
        axes = [linalg.matvec(disc.projection, disc.evaluated.basis_vector(i)) for i in (A0, A1)]
        for a in axes + [linalg.sub_vec(*axes)]:
            for rules in (NARROW, TRICRITICAL):
                violations = check_axis(alg, a, rules).violations
                assert violations == ref_violations(alg, a, rules)
                broken.add(bool(violations))
    assert broken == {False, True}


# -- the integer entry reader of algebra files -----------------------------


def literal_value(e):
    """poly._literal(e), or None where it refuses e."""
    try:
        return _literal(e)
    except (TypeError, ValueError, ZeroDivisionError):
        return None


def ratio_value(e):
    """The Fraction the entry reader gives for e, or None where it refuses e."""
    try:
        p, q = _entry_ratio(e)
    except ShapeError:
        return None
    assert type(p) is type(q) is int and q > 0
    return Q(p, q)


entry_values = st.one_of(
    st.text(alphabet="0123456789+-/._e ", max_size=8), st.integers(), st.booleans(),
    st.floats(), st.none(), st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.lists(st.integers(), max_size=2))


@settings(max_examples=400, deadline=None)
@given(entry_values)
def test_the_entry_reader_accepts_exactly_the_rational_literals(e):
    assert ratio_value(e) == literal_value(e)


@pytest.mark.parametrize("e", ["0.5", "1e3", " 3/4 ", "+1", "-0", "007", "3/0", "1/-2", "--1",
                               "\u00b2", "\u0661\u0662"])
def test_the_entry_reader_on_named_literals(e):
    # "\u00b2" (superscript two) passes str.isdigit, though int() refuses it;
    # "\u0661\u0662" is 12 in Arabic-Indic digits, which Fraction reads
    assert ratio_value(e) == literal_value(e)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_integer_tables_match_their_fraction_views(data):
    # an algebra built from integer tables over any nonzero denominators
    # reads, multiplies and pairs exactly like its Fraction tables
    n = data.draw(st.integers(1, 4))
    ints = st.integers(-2**40, 2**40)
    dens = st.integers(1, 10**6).map(lambda d: d * data.draw(st.sampled_from([1, -1])))
    table = [[None] * n for _ in range(n)]
    gram = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            table[i][j] = table[j][i] = [data.draw(ints) for _ in range(n)]
            gram[i][j] = gram[j][i] = data.draw(ints)
    den, gram_den = data.draw(dens), data.draw(dens)
    alg = StructureAlgebra.from_integers([f"e{i}" for i in range(n)], table, den, gram, gram_den)
    product = [[[Q(x, den) for x in vec] for vec in row] for row in table]
    fractions = [[Q(x, gram_den) for x in row] for row in gram]
    assert alg.product == product and alg.gram == fractions
    assert alg.den > 0 and gcd(alg.den, *(x for row in alg.table for v in row for x in v)) == 1
    x, y = (data.draw(vectors(n)) for _ in range(2))
    assert alg.multiply(x, y) == bilinear(product, x, y, alg.labels)
    assert alg.form(x, y) == sum((xi * pair(row, y) for xi, row in zip(x, fractions)), Q(0))
    # and the constructor on the Fraction tables gives the same integers
    again = StructureAlgebra(alg.labels, product, fractions)
    assert (again.table, again.den, again.gram_table, again.gram_den) == \
        (alg.table, alg.den, alg.gram_table, alg.gram_den)


sparse_ints = st.sampled_from([0, 0, 0, 1, -1, 2, -3])


def int_matrices(rows, cols):
    return st.lists(st.lists(sparse_ints, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def project(proj, w):
    return [sum(map(mul, row, w)) for row in proj]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_projection_membership_matches_the_rank(data):
    n = data.draw(st.integers(1, 5))
    m = data.draw(int_matrices(data.draw(st.integers(0, 5)), n))
    basis, pivots = linalg.integer_rref(m)
    proj, scale, complement = linalg.complement_projection(basis, pivots, n)
    # the kernel of m is the canonical basis of the span of P's rows, and
    # m kills each of its rows; a matrix with no rows has no column count
    if not m:
        with pytest.raises(ValueError, match="^the kernel of a matrix with no rows"):
            linalg.integer_kernel(m)
    else:
        kernel = linalg.integer_kernel(m)
        assert kernel == linalg.echelon_span(kernel) == linalg.echelon_span(proj)
        assert len(kernel) == n - len(basis)
        assert not any(any(project(m, v)) for v in kernel)
    assert len(proj) == n - len(basis)
    assert complement == [c for c in range(n) if c not in pivots]
    assert scale == lcm(*(row[c] for row, c in zip(basis, pivots)))
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(basis), max_size=len(basis)))
    member = [sum(c * row[k] for c, row in zip(coeffs, basis)) for k in range(n)]
    for w in (data.draw(st.lists(sparse_ints, min_size=n, max_size=n)), member, [0] * n):
        in_span = len(linalg.integer_rref(basis + [w])[0]) == len(basis)
        assert (not any(project(proj, w))) == in_span
    # P w is L times what is left of w off the pivots once they are eliminated
    w = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    rest = [Q(x) for x in w]
    for row, c in zip(basis, pivots):
        rest = [x - Q(w[c], row[c]) * y for x, y in zip(rest, row)]
    assert project(proj, w) == [scale * x for c, x in enumerate(rest) if c not in pivots]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_integer_rref_matches_the_generator_loop(data):
    # wide and tall shapes, empty ones, zero rows and zero columns, and
    # negative entries large enough that the content divisions matter
    n_rows, n_cols = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 7))
    entries = st.one_of(sparse_ints, st.integers(-60, 60))
    rows = data.draw(st.lists(st.lists(entries, min_size=n_cols, max_size=n_cols),
                              min_size=n_rows, max_size=n_rows))
    for zero_row in data.draw(st.sets(st.integers(0, max(n_rows - 1, 0)), max_size=2)):
        if zero_row < n_rows:
            rows[zero_row] = [0] * n_cols
    for zero_col in data.draw(st.sets(st.integers(0, max(n_cols - 1, 0)), max_size=2)):
        for row in rows:
            if zero_col < n_cols:
                row[zero_col] = 0
    given_rows = [list(row) for row in rows]
    assert linalg.integer_rref(rows) == ref_integer_rref(given_rows)
    assert rows == given_rows  # the input rows are not modified


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_semi_naive_closure_matches_full_rounds(data):
    # when the only products are e_j e_j, a nonzero multiple of e_(j+1),
    # and the maps take e_j into the span of e_j and e_(j+1), each round
    # of a closure reaches one index further, so closures take several
    # rounds and often stop short of the whole space
    n = data.draw(st.integers(2, 6))
    stepwise = data.draw(st.booleans())
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            vec = data.draw(st.lists(sparse_ints, min_size=n, max_size=n))
            if stepwise:
                vec = [(x or 1) if (i, k) == (j, j + 1) else 0 for k, x in enumerate(vec)]
            table[i][j] = table[j][i] = vec
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    alg = StructureAlgebra.from_integers([f"e{i}" for i in range(n)], table,
                                         data.draw(st.integers(1, 4)), identity, 1)
    gens = data.draw(st.lists(st.lists(sparse_ints.map(Q), min_size=n, max_size=n),
                              min_size=1, max_size=2))
    hypothesis.assume(any(map(any, gens)))
    maps = [[[Q(x) if k - j in (0, 1) or not stepwise else Q(0) for j, x in enumerate(row)]
             for k, row in enumerate(m)]
            for m in data.draw(st.lists(int_matrices(n, n), max_size=2))]
    assert ideal_closure(alg, gens, maps) == ref_ideal_closure(alg, gens, maps)


def symmetric_table(data, n):
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            table[i][j] = table[j][i] = data.draw(st.lists(sparse_ints, min_size=n, max_size=n))
    return table


def integer_algebra(table, den):
    n = len(table)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    return StructureAlgebra.from_integers([f"e{i}" for i in range(n)], table, den, identity, 1)


# the shapes of a column of d m: a unit vector times d (a permutation when
# every column is one), a signed and scaled unit vector, a dense or a zero
# column; each matrix draws its columns from one of these mixes
COLUMN_MIXES = (("unit",), ("unit", "monomial"), ("unit", "monomial", "dense", "zero"))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_automorphism_defects_match_the_dense_loop(data):
    n = data.draw(st.integers(1, 5))
    alg = integer_algebra(symmetric_table(data, n), data.draw(st.integers(1, 4)))
    d = data.draw(st.integers(1, 6))
    perm = data.draw(st.permutations(range(n)))
    kinds = st.sampled_from(data.draw(st.sampled_from(COLUMN_MIXES)))
    cols = []
    for c in range(n):
        kind, col = data.draw(kinds), [0] * n
        if kind == "unit":
            col[perm[c]] = d
        elif kind == "monomial":
            col[perm[c]] = data.draw(st.integers(-9, 9).filter(bool))
        elif kind == "dense":
            col = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
        cols.append(col)
    mat = linalg.transpose(cols)
    assert automorphism_defects(alg, mat, d) == ref_automorphism_defects(alg, mat, d)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_automorphism_defects_vanish_on_a_symmetry_of_the_table(data):
    # summing a table over the group a signed permutation g generates, as
    # h T(h^-1 e_i, h^-1 e_j) over its elements h, gives a table g permutes,
    # so d g over d is an automorphism
    n = data.draw(st.integers(1, 5))
    perm = data.draw(st.permutations(range(n)))
    signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    g = [[signs[c] if r == perm[c] else 0 for c in range(n)] for r in range(n)]
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    group = [identity]
    while (h := linalg.matmul(g, group[-1])) != identity:
        group.append(h)
    base, labels = symmetric_table(data, n), [f"e{i}" for i in range(n)]
    # h^-1 = h^t, so h^-1 e_i is row i of h
    table = [[[sum(x) for x in zip(*(linalg.matvec(h, bilinear(base, h[i], h[j], labels))
                                    for h in group))]
              for j in range(n)] for i in range(n)]
    alg = integer_algebra(table, data.draw(st.integers(1, 4)))
    d = data.draw(st.integers(1, 6))
    mat = [[d * x for x in row] for row in g]
    assert automorphism_defects(alg, mat, d) == ref_automorphism_defects(alg, mat, d) == []
    # a matrix that differs from g by a scale is not one, unless the table is zero
    doubled = [[2 * x for x in row] for row in mat]
    failures = automorphism_defects(alg, doubled, d)
    assert failures == ref_automorphism_defects(alg, doubled, d)
    assert (failures == []) == (not any(x for row in alg.table for v in row for x in v))


exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(exps, rationals, max_size=6).map(MultiPoly)
# large coprime and near-coprime denominators, so that sums take a real lcm
BIG_DENS = (1, 2, 3**40, 2**61 - 1, 2**64, 5**27 * 7, (2**61 - 1) * 3**40)
wide = st.builds(Q, st.integers(-2**70, 2**70), st.sampled_from(BIG_DENS))
wide_polys = st.dictionaries(exps, st.one_of(rationals, wide), max_size=6).map(MultiPoly)


def assert_clean(poly):
    # the canonical form, which makes equality a comparison of the fields
    assert type(poly.den) is int and poly.den > 0
    assert all(type(n) is int and n != 0 for n in poly.nums.values())
    assert gcd(poly.den, *poly.nums.values()) == 1
    for e in poly.nums:
        assert type(e) is tuple and len(e) == 2
        assert all(type(k) is int for k in e)
    assert all(type(c) is Q and c != 0 for c in poly.terms.values())


# -- a Fraction-dict reference: the same operations on {(i, j): Fraction}
# maps, one Fraction per term, with no shared denominator --------------------


def ref_clean(terms):
    return {e: c for e, c in terms.items() if c}


def ref_add(f, g):
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, Q(0)) + c
    return ref_clean(out)


def ref_neg(f):
    return {e: -c for e, c in f.items()}


def ref_mul(f, g):
    out = {}
    for (i1, j1), c1 in f.items():
        for (i2, j2), c2 in g.items():
            e = (i1 + i2, j1 + j2)
            out[e] = out.get(e, Q(0)) + c1 * c2
    return ref_clean(out)


def ref_substitute(f, lam=None, mu=None):
    out = {}
    for (i, j), c in f.items():
        if lam is not None:
            c, i = c * lam**i, 0
        if mu is not None:
            c, j = c * mu**j, 0
        out[(i, j)] = out.get((i, j), Q(0)) + c
    return ref_clean(out)


def fibre(f, kept, value):
    """f with the variable `kept` set to value, read from poly._fibre, whose
    integers are the coefficients over den q^J for value = p/q, as a
    {(i, j): Fraction} map."""
    eliminate = "mu" if kept == "lam" else "lam"
    grid, den = _integer_grid(f, eliminate)
    p, q = Q(value).as_integer_ratio()
    row = _fibre(grid, p, q)
    assert all(type(n) is int for n in row)
    scale = den * q ** (len(grid[0]) - 1) if grid else 1
    return ref_clean({(k, 0) if eliminate == "lam" else (0, k): Q(n, scale)
                      for k, n in enumerate(row)})


def ref_evaluate(f, lam, mu):
    return sum((c * lam**i * mu**j for (i, j), c in f.items()), Q(0))


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys, st.integers(0, 3), rationals)
def test_multipoly_ring_laws(f, g, h, n, c):
    for result in (f + g, f - f, f - g, f * g, -f, f**n, f + c, c - f, c * f):
        assert_clean(result)
    # a fibre, at a rational or an integer value of either variable, is a
    # ring homomorphism
    for kept in ("lam", "mu"):
        for value in (c, n):
            at_f, at_g = fibre(f, kept, value), fibre(g, kept, value)
            assert fibre(f + g, kept, value) == ref_add(at_f, at_g)
            assert fibre(f * g, kept, value) == ref_mul(at_f, at_g)
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == MultiPoly()
    # the JSON form {"i,j": coefficient} holds the polynomial exactly
    assert MultiPoly({tuple(map(int, k.split(","))): c for k, c in f.to_json().items()}) == f


@settings(max_examples=80, deadline=None)
@given(wide_polys, wide_polys, st.one_of(rationals, wide), st.one_of(rationals, wide),
       st.integers(-2**70, 2**70))
def test_multipoly_matches_the_fraction_reference(f, g, lam, mu, n):
    ft, gt = f.terms, g.terms
    cases = [(f + g, ref_add(ft, gt)), (f - g, ref_add(ft, ref_neg(gt))),
             (-f, ref_neg(ft)), (f * g, ref_mul(ft, gt))]
    for got, want in cases:
        assert_clean(got)
        assert got.terms == want
        assert got == MultiPoly(want)
    for value in (lam, n):
        assert fibre(f, "lam", value) == ref_substitute(ft, lam=value)
        assert fibre(f, "mu", value) == ref_substitute(ft, mu=value)
    # a factor lam - r makes the fibre over lam = r vanish identically (and
    # likewise mu): the input of common_zeros' "whole line" error
    assert fibre((LAM - lam) * g, "lam", lam) == {}
    assert fibre((MU - mu) * g, "mu", mu) == {}
    nums, den = evaluate_all([f, g], lam, mu)
    assert [Q(x, den) for x in nums] == [ref_evaluate(ft, lam, mu), ref_evaluate(gt, lam, mu)]


@settings(max_examples=60, deadline=None)
@given(wide_polys, st.data())
def test_multipoly_sums_that_cancel(f, data):
    # g cancels a drawn subset of f's terms and adds terms of its own, so the
    # sum loses terms and its denominator must shrink to the survivors' lcm
    ft = f.terms
    gone = data.draw(st.sets(st.sampled_from(sorted(ft)))) if ft else set()
    extra = data.draw(st.dictionaries(exps, st.one_of(rationals, wide), max_size=3))
    g = MultiPoly({**extra, **{e: -ft[e] for e in gone}})
    total = f + g
    assert_clean(total)
    assert total.terms == ref_add(ft, g.terms)
    assert not any(e in total.terms for e in gone if e not in extra)
    assert_clean(f - f)
    assert f - f == MultiPoly() and (f - f).den == 1


# -- poly.dot, the one sum of products beneath the kernel ---------------------

# MultiPoly, int and Fraction entries, with unlike and large denominators
ring_entries = st.one_of(wide_polys, polys, rationals, wide, st.integers(-2**70, 2**70),
                         st.sampled_from([0, Q(0), MultiPoly()]))


def ref_dot(xs, ys):
    """The naive sum: one ring product and one ring sum per pair."""
    total = 0
    for x, y in zip(xs, ys):
        total = total + x * y
    return total


def assert_dot(xs, ys):
    got = dot(xs, ys)
    assert got == ref_dot(xs, ys)
    if MultiPoly in map(type, xs + ys):
        assert type(got) is MultiPoly
        assert_clean(got)
    else:
        # plain numbers give back a plain number, a Fraction if one took part
        assert type(got) is (Q if Q in map(type, xs + ys) else int)
    return got


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(ring_entries, ring_entries), max_size=6))
def test_dot_matches_the_naive_sum(pairs):
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    assert_dot(xs, ys)
    # each product cancelled by its negative: the sum is zero, and canonical
    total = assert_dot(xs + xs, ys + [-y for y in ys])
    assert total == 0
    if type(total) is MultiPoly:
        assert not total.nums and total.den == 1


def test_dot_of_empty_and_zero_pairs():
    assert assert_dot([], []) == 0
    zeros = [0, Q(0), MultiPoly()]
    assert assert_dot(zeros, [MultiPoly({(1, 0): 3}), Q(5, 7), 2]) == MultiPoly()
    assert assert_dot([0, 0], [Q(1, 3), 4]) == 0
    assert assert_dot([MultiPoly({(1, 0): Q(1, 3)})], [0]) == MultiPoly()


@settings(max_examples=80, deadline=None)
@given(wide_polys)
def test_to_json_prints_each_coefficient_as_its_fraction(f):
    want = {f"{i},{j}": str(c) for (i, j), c in sorted(f.terms.items())}
    assert f.to_json() == want


def test_to_json_of_negative_and_integral_coefficients():
    f = MultiPoly({(0, 0): -3, (1, 0): Q(-7, 2), (0, 2): 5, (2, 1): Q(9, 4), (3, 0): Q(-8, 4)})
    assert f.to_json() == {"0,0": "-3", "0,2": "5", "1,0": "-7/2", "2,1": "9/4", "3,0": "-2"}
    assert (f * Q(4, 3)).to_json() == {"0,0": "-4", "0,2": "20/3", "1,0": "-14/3",
                                       "2,1": "3", "3,0": "-8/3"}


low_exps = st.tuples(st.integers(0, 2), st.integers(0, 2))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2), small.filter(bool), st.dictionaries(low_exps, small, max_size=4),
       st.dictionaries(low_exps, small, max_size=4), st.booleans())
def test_resultant_degree_is_the_quotient_dimension(m, c, low, g_terms, swap):
    # f has the constant leading coefficient c in mu, so Q[lam, mu]/(f, g) is
    # the cokernel of multiplication by g on a free Q[lam]-module of rank m,
    # whose determinant is Res_mu(f, g) up to a nonzero constant
    f = MultiPoly({(0, m): c, **{e: x for e, x in low.items() if e[1] < m}})
    g = MultiPoly(g_terms)
    hypothesis.assume(g.degree("mu") > 0)
    res = resultant(*((g, f) if swap else (f, g)), "mu")
    hypothesis.assume(res)
    assert res.degree() == ref_quotient_dimension([f, g])


small_roots = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@settings(max_examples=60, deadline=None)
@given(st.sets(small_roots, max_size=4), st.sampled_from(["lam", "mu"]),
       st.integers(1, 6), st.integers(1, 4), st.integers(-3, 3))
def test_planted_rational_roots(roots, var, scale, a, b):
    # scale * prod (q x - p) * (a x^2 + b x + a + b*b) has exactly the planted
    # rational roots: the quadratic's discriminant b^2 - 4a(a + b^2) is negative
    x = MultiPoly.variable(var)
    f = scale * (a * x**2 + b * x + a + b * b)
    for r in roots:
        f = f * (r.denominator * x - r.numerator)
    assert rational_roots(f) == roots


@settings(max_examples=80, deadline=None)
@given(st.lists(small_roots, max_size=4), st.sampled_from(["lam", "mu"]),
       st.lists(st.integers(-6, 6), min_size=1, max_size=4))
def test_sieved_rational_roots_match_the_unsieved_oracle(roots, var, extra):
    # planted roots, repeats and +-1 included, times a drawn integer cofactor
    # that may bring rational roots of its own
    hypothesis.assume(any(extra))
    x = MultiPoly.variable(var)
    f = MultiPoly.const(0)
    for k, c in enumerate(extra):
        f = f + c * x**k
    for r in roots:
        f = f * (r.denominator * x - r.numerator)
    got = rational_roots(f)
    assert got == ref_rational_roots(f)
    assert set(roots) <= got


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
# the first three are rational literals, the rest are not
FUZZ_VALUES = [0, 2 ** 70, "1e400", "1/0", "x", None, True, 1.5, [], {}]


def json_positions(node, path=()):
    """The path of every entry of a JSON tree, container or leaf."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from json_positions(child, path + (key,))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["3c.json", "ising_narrow.json"]), st.data())
def test_mutated_input_files_meet_the_cli_contract(name, data):
    # an entry of an algebra or a fusion file replaced, deleted or duplicated:
    # exit 0, 1 or 2, one error line exactly on exit 2, and no other exception
    tree = json.loads((FIXTURES / name).read_text())
    *path, key = data.draw(st.sampled_from(list(json_positions(tree))))
    parent = tree
    for step in path:
        parent = parent[step]
    action = data.draw(st.sampled_from(["delete", "duplicate", *FUZZ_VALUES]))
    if action == "delete":
        del parent[key]
    elif action != "duplicate":
        parent[key] = action
    elif isinstance(parent, list):
        parent.insert(key, parent[key])
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        mutant = Path(tmp) / name
        mutant.write_text(json.dumps(tree))
        argv = (["algebra", "check", str(mutant), "--json"] if name == "3c.json" else
                ["algebra", "check", str(FIXTURES / "3c.json"), "--fusion", str(mutant)])
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2)
    assert len(lines) == (code == 2) and all(x.startswith("axial: error: ") for x in lines)
    # every product or Gram entry is parsed: anything but a rational there is refused
    if name == "3c.json" and path and path[0] in ("product", "gram"):
        assert code == 2 or action in FUZZ_VALUES[:3]
