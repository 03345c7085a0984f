"""Property tests: the product/form/defect kernel on random rational vectors,
the axis checks of the 3C fixture in random bases, the MultiPoly ring laws,
and rational roots planted in random polynomials."""

import json
from fractions import Fraction as Q
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from axial import linalg  # noqa: E402
from axial.algebra import (StructureAlgebra, bilinear, check_axis, defect, pair,  # noqa: E402
                           three_c, verify_form)
from axial.fusion import frobenius_refine, virasoro_rules  # noqa: E402
from axial.poly import MultiPoly, rational_roots  # noqa: E402
from axial.sakuma import EvalPoint, evaluate_point  # noqa: E402

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=16)


def vectors(n):
    return st.lists(rationals, min_size=n, max_size=n)


def generic_form(alg, x, y):
    return sum((xi * pair(row, y) for xi, row in zip(x, alg.gram)), Q(0))


def check_kernel(alg, x, y, z, c):
    n = alg.dim
    xy = alg.multiply(x, y)
    # the integer tables agree with the generic loops on the Fraction tables
    assert xy == bilinear(alg.product, x, y, alg.labels)
    assert all(type(v) is Q for v in xy)
    assert alg.form(x, z) == generic_form(alg, x, z)
    assert xy == alg.multiply(y, x)
    combo = [c * xi + zi for xi, zi in zip(x, z)]
    assert alg.multiply(combo, y) == [c * p + q for p, q in zip(xy, alg.multiply(z, y))]
    # the basis-triple defect extends trilinearly to <xy, z> - <x, yz>
    total = sum((x[i] * y[j] * z[k] * defect(alg.product, alg.gram, i, j, k)
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

    product = [[to_new(bilinear(alg.product, cols[i], cols[j], alg.labels)) for j in range(n)]
               for i in range(n)]
    gram = [[generic_form(alg, cols[i], cols[j]) for j in range(n)] for i in range(n)]
    return StructureAlgebra([f"b{i}" for i in range(n)], product, gram), to_new


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(small, min_size=3, max_size=3), min_size=3, max_size=3))
def test_check_axis_in_a_random_basis(p):
    fixture = StructureAlgebra.from_json(json.loads(FIXTURE.read_text()))
    try:
        p_inv = linalg.inverse(p)
    except ValueError:
        hypothesis.assume(False)
    identity = [[Q(int(i == j)) for j in range(3)] for i in range(3)]
    assert [[sum((p[i][k] * p_inv[k][j] for k in range(3)), Q(0)) for j in range(3)]
            for i in range(3)] == identity
    alg, to_new = change_basis(fixture, p, p_inv)
    for m in fixture.marked:
        want = check_axis(fixture, fixture.basis_vector(m), ISING)
        got = check_axis(alg, to_new(fixture.basis_vector(m)), ISING)
        assert want.passed and got.passed
        assert got.spectrum == want.spectrum
    assert verify_form(alg, ISING).passed


polys = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), rationals,
                        max_size=6).map(MultiPoly)


def assert_clean(poly):
    # the ring operations skip the public constructor's coercion, so their
    # results must already keep its invariant
    for exps, coeff in poly.terms.items():
        assert type(coeff) is Q and coeff != 0
        assert type(exps) is tuple and len(exps) == 2
        assert all(type(e) is int for e in exps)


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys, st.integers(0, 3), rationals)
def test_multipoly_ring_laws(f, g, h, n, c):
    for result in (f + g, f - f, f - g, f * g, -f, f**n, f + c, c - f, c * f,
                   f.substitute(lam=c), f.substitute(mu=c)):
        assert_clean(result)
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == MultiPoly()
    assert MultiPoly.from_json(f.to_json()) == f


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
