"""Property tests of the product/form/defect kernel on random rational vectors."""

from fractions import Fraction as Q

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from axial.algebra import defect, three_c  # noqa: E402
from axial.sakuma import EvalPoint, evaluate_point  # noqa: E402

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=16)


def vectors(n):
    return st.lists(rationals, min_size=n, max_size=n)


def check_kernel(alg, x, y, z, c):
    n = alg.dim
    xy = alg.multiply(x, y)
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
    alg = evaluate_point(uni, EvalPoint("6A", Q(5, 256), Q(13, 256)))
    x, y, z = (data.draw(vectors(8)) for _ in range(3))
    check_kernel(alg, x, y, z, data.draw(rationals))


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_kernel_off_the_nine_points(uni, data):
    # away from the nine points the form fails to associate, so the defect
    # identity is tested on nonzero values
    pt = EvalPoint("generic", data.draw(rationals), data.draw(rationals))
    alg = evaluate_point(uni, pt)
    x, y, z = (data.draw(vectors(8)) for _ in range(3))
    check_kernel(alg, x, y, z, data.draw(rationals))
