import random
import re
import sys
import time
from fractions import Fraction as Q

import pytest

from axial import poly as poly_mod
from axial.poly import (LAM, MU, MultiPoly, _integer_grid, _linear_text, _literal,
                        _newton_interpolate, evaluate_all, leading_term, rational_roots,
                        resultant)
from axial.sakuma import EvalPoint, _eval_matrix, associativity_polynomials, evaluate_point
from conftest import ref_evaluate, ref_quotient_dimension
from test_linalg import ref_det


def rand_poly(rng, max_deg=3, max_terms=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = (rng.randint(0, max_deg), rng.randint(0, max_deg))
        terms[e] = Q(rng.randint(-9, 9), rng.randint(1, 9))
    return MultiPoly(terms)


def test_ring_basics():
    f = LAM + 2 * MU
    g = LAM - 2 * MU
    assert f * g == LAM**2 - 4 * MU**2
    assert f - f == MultiPoly()
    assert not (f - f)
    assert (f + 1) - 1 == f
    assert Q(1, 2) * (2 * f) == f


def test_str_writes_a_coefficient_of_minus_one_as_a_sign():
    assert str(-LAM) == "-lam"
    assert str(1 - LAM * MU**2) == "-lam*mu^2 + 1"
    assert str(LAM - MU) == "lam - mu"
    assert str(Q(-3, 2) * LAM**2 - 1) == "-3/2*lam^2 - 1"
    assert str(MultiPoly()) == "0"


def test_linear_text_parenthesises_a_sum_and_prints_a_constant_as_is():
    # the one printer of polynomials and of the table's vectors
    assert _linear_text([("lam + 1", "a"), ("-lam + 1", "b"), ("-1", ""), ("1", "c")]) == \
        "(lam + 1)*a + (-lam + 1)*b - 1 + c"
    assert _linear_text([("-1/2", "a"), ("1", "")]) == "-1/2*a + 1"
    assert _linear_text([]) == "0"


def test_product_degree_adds():
    rng = random.Random(7)
    for _ in range(40):
        f, g = rand_poly(rng), rand_poly(rng)
        if not f or not g:
            continue
        assert (f * g).degree() == f.degree() + g.degree()


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(11)
    for _ in range(40):
        f, g, h = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        lam = Q(rng.randint(-5, 5), rng.randint(1, 5))
        mu = Q(rng.randint(-5, 5), rng.randint(1, 5))
        lhs, at_f, at_g, at_h = values(evaluate_all([f * g + h, f, g, h], lam, mu))
        assert lhs == at_f * at_g + at_h


@pytest.mark.parametrize("value", [0.1, 1.0, float("nan"), True, False, 1j])
def test_multipoly_refuses_floats_and_booleans(value):
    # reading a float would round it; a bool is not a number here
    with pytest.raises(TypeError):
        MultiPoly.const(value)
    with pytest.raises(TypeError):
        MultiPoly({(1, 0): value})
    with pytest.raises(TypeError):
        LAM + value
    with pytest.raises(TypeError):
        evaluate_all([LAM], value, 1)
    assert LAM != value


def test_multipoly_takes_exact_literals():
    assert MultiPoly.const("-3/64") == MultiPoly.const(Q(-3, 64)) == Q(-3, 64)
    assert MultiPoly({(1, 0): "1/2", (0, 1): 3}) == Q(1, 2) * LAM + 3 * MU
    f = MultiPoly({(1, 0): "2/4", (0, 0): Q(-1, 6)})
    assert (f.nums, f.den) == ({(1, 0): 3, (0, 0): -1}, 6)


def test_a_literal_exponent_is_held_to_the_int_digit_limit():
    # forming 10**e for "1e10000000" takes seconds, so the exponent meets the
    # limit int() puts on a string's digits, in either sign, before that
    limit = sys.get_int_max_str_digits()
    start = time.perf_counter()
    for text in ("1e10000000", "-2E-10000000", f"1e{limit + 1}", f" 3e-{limit + 1} "):
        with pytest.raises(ValueError, match=f"^the exponent of {re.escape(repr(text))} "
                                             f"exceeds the {limit}-digit limit$"):
            _literal(text)
    assert time.perf_counter() - start < 0.5
    assert _literal(f"1e{limit}") == 10 ** limit and _literal(f"1e-{limit}") == Q(1, 10 ** limit)
    assert _literal("1e400") == 10 ** 400


def test_json_round_trip():
    f = LAM**4 - Q(71, 64) * LAM**3 + Q(39, 2**21)
    assert f.to_json() == {"0,0": "39/2097152", "3,0": "-71/64", "4,0": "1"}
    assert MultiPoly({(0, 0): "39/2097152", (3, 0): "-71/64", (4, 0): "1"}) == f
    assert MultiPoly().to_json() == {}
    assert (3 * LAM).to_json() == {"1,0": "3"}
    for bad in (0.5, True, None):
        with pytest.raises(TypeError):
            MultiPoly({(0, 0): bad})


def test_coefficients_round_trip():
    f = LAM**2 * MU**2 + 2 * LAM * MU - Q(1, 3)
    grid, den = _integer_grid(f, "mu")  # f = sum grid[k][j] mu^k lam^j / den
    assert len(grid) == 3
    rebuilt = MultiPoly()
    for k, row in enumerate(grid):
        for j, n in enumerate(row):
            rebuilt = rebuilt + Q(n, den) * MU**k * LAM**j
    assert rebuilt == f


def test_resultant_linear():
    assert resultant(MU - LAM, MU + LAM, "mu") == 2 * LAM


def test_resultant_shared_root_vanishes():
    f = LAM - 1
    g = (LAM - 1) * (LAM - 2)
    assert resultant(f, g, "lam") == MultiPoly()


def test_resultant_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        resultant(MultiPoly(), LAM, "lam")
    # a first input constant in lam is no degenerate input: the resultant is f^1
    assert resultant(MU + 1, LAM, "lam") == MU + 1


def test_resultant_vanishes_iff_common_factor():
    rng = random.Random(3)
    for _ in range(10):
        a, b, c = (rng.randint(1, 5) for _ in range(3))
        common = LAM * MU + a
        f = common * (LAM + b)
        g = common * (MU + c)
        assert resultant(f, g, "lam") == MultiPoly()
        f2 = (LAM * MU + a) * (LAM + b)
        g2 = (LAM * MU + a + 1) * (MU + c)
        assert resultant(f2, g2, "lam") != MultiPoly()


# -- the integer resultant against the Fraction one it replaced -----------------
#
# ref_resultant is the former Fraction route: Sylvester determinants over Q
# at the nodes 0, 1, -1, 2, ... and Lagrange interpolation over Q.


def ref_lagrange(xs, ys):
    n = len(xs)
    acc = [Q(0)] * n
    for k in range(n):
        basis, denom = [Q(1)], Q(1)
        for j in range(n):
            if j == k:
                continue
            nxt = [Q(0)] * (len(basis) + 1)
            for d, c in enumerate(basis):
                nxt[d] += -xs[j] * c
                nxt[d + 1] += c
            basis = nxt
            denom *= xs[k] - xs[j]
        for d, c in enumerate(basis):
            acc[d] += ys[k] / denom * c
    return acc


def ref_resultant(f, g, eliminate):
    kept = "mu" if eliminate == "lam" else "lam"
    m, n = f.degree(eliminate), g.degree(eliminate)

    def grid(h):
        # row k: the coefficients of eliminate^k, by the power of kept
        return [[h.coefficient(*((k, j) if eliminate == "lam" else (j, k)))
                 for j in range(h.degree(kept) + 1)] for k in range(h.degree(eliminate) + 1)]

    fc, gc = grid(f), grid(g)
    bound = n * max(len(c) - 1 for c in fc) + m * max(len(c) - 1 for c in gc)
    xs, ys, t = [], [], 0
    while len(xs) < bound + 1:
        x = Q(t)
        fr = [sum((c * x**j for j, c in enumerate(cs)), Q(0)) for cs in fc]
        gr = [sum((c * x**j for j, c in enumerate(cs)), Q(0)) for cs in gc]
        rows = []
        for shift in range(n):
            row = [Q(0)] * (m + n)
            for k, c in enumerate(fr):
                row[shift + m - k] = c
            rows.append(row)
        for shift in range(m):
            row = [Q(0)] * (m + n)
            for k, c in enumerate(gr):
                row[shift + n - k] = c
            rows.append(row)
        xs.append(x)
        ys.append(ref_det(rows))
        t = -t if t > 0 else -t + 1
    return MultiPoly({(k, 0) if kept == "lam" else (0, k): c
                      for k, c in enumerate(ref_lagrange(xs, ys))})


def planted_pair(rng, huge):
    """Random f, g of positive degree in both variables, both vanishing at a
    random rational point, so that either resultant vanishes there."""
    def coeff():
        if huge:
            return Q(rng.randint(-2**60, 2**60), rng.randint(1, 2**50))
        return Q(rng.randint(-9, 9), rng.randint(1, 9))

    def poly():
        while True:
            f = MultiPoly({(rng.randint(0, 3), rng.randint(0, 3)): coeff() for _ in range(5)})
            if f.degree("lam") > 0 and f.degree("mu") > 0:
                return f

    lam0 = Q(rng.randint(-5, 5), rng.randint(1, 4))
    mu0 = Q(rng.randint(-5, 5), rng.randint(1, 4))
    f, g = poly(), poly()
    return f - ref_evaluate(f, lam0, mu0), g - ref_evaluate(g, lam0, mu0), lam0, mu0


@pytest.mark.parametrize("huge", [False, True])
def test_resultant_matches_fraction_reference(huge):
    rng = random.Random(41 + huge)
    for _ in range(10):
        f, g, lam0, mu0 = planted_pair(rng, huge)
        for eliminate, value in (("lam", mu0), ("mu", lam0)):
            res = resultant(f, g, eliminate)
            assert res == ref_resultant(f, g, eliminate)
            assert ref_evaluate(res, value, value) == 0


def sympy_resultant(f, g, eliminate):
    """Res(f, g) in the eliminated variable by sympy, as a MultiPoly."""
    sympy = pytest.importorskip("sympy")
    lam, mu = sympy.symbols("lam mu")

    def expr(h):
        return sympy.Add(*(sympy.Rational(c.numerator, c.denominator) * lam**i * mu**j
                           for (i, j), c in h.terms.items()))

    res = sympy.Poly(sympy.resultant(expr(f), expr(g), lam if eliminate == "lam" else mu),
                     lam, mu)
    return MultiPoly({e: Q(int(c.p), int(c.q)) for e, c in res.terms()})


def test_resultant_with_an_all_zero_sylvester_column():
    # f and g both vanish on lam = 0 (on mu = 0 in the last pair), so the
    # last Sylvester column is zero; it counts 0 in the column bound, which
    # leaves one node where a count of -1 left none
    cases = [(LAM * (MU * LAM + 2 * MU**2 - 1), LAM * (LAM**2 + MU + 3), "lam"),
             (LAM**2 * MU, LAM * (LAM - MU), "lam"),
             (3 * MU, MU, "mu"),
             (MU * (LAM + 1), MU, "mu")]
    for f, g, eliminate in cases:
        assert resultant(f, g, eliminate) == sympy_resultant(f, g, eliminate) == MultiPoly()
    # and where the column bound is the tighter one, the resultant is sympy's
    f = LAM**2 * MU**3 + LAM * MU + 1
    g = LAM * MU**2 + MU**3 - 2
    for eliminate in ("lam", "mu"):
        assert resultant(f, g, eliminate) == sympy_resultant(f, g, eliminate)


def test_resultant_takes_the_column_bound_on_the_two_relations(uni, monkeypatch):
    # p1 and p2: the row bound is 18 in both orders, the column bound 12
    # eliminating lam and 14 eliminating mu, the true degree 9
    p1, p2 = associativity_polynomials(uni)
    dets = []
    real_det = poly_mod.linalg.integer_det
    monkeypatch.setattr(poly_mod.linalg, "integer_det", lambda rows: dets.append(1) or real_det(rows))
    nodes = {}
    for eliminate in ("lam", "mu"):
        dets.clear()
        assert resultant(p1, p2, eliminate).degree() == 9
        nodes[eliminate] = len(dets)
    assert nodes == {"lam": 13, "mu": 15}


def test_resultant_at_a_node_where_a_leading_coefficient_vanishes():
    # the leading coefficients in lam vanish at the nodes mu = 0, 1 and -1
    f = MU * LAM**2 + LAM - Q(1, 3)
    g = (MU - 1) * (MU + 1) * LAM + Q(2, 7) * MU + 5
    for eliminate in ("lam", "mu"):
        assert resultant(f, g, eliminate) == ref_resultant(f, g, eliminate)


def test_newton_interpolation_is_exact():
    xs = [0, 1, -1, 2, -2]
    poly = [7, -3, 0, 11, -2]
    ys = [sum(c * x**k for k, c in enumerate(poly)) for x in xs]
    assert _newton_interpolate(xs, ys) == poly
    # t (t + 1) / 2 takes integer values but has no integer coefficients
    with pytest.raises(ArithmeticError):
        _newton_interpolate([0, 1, -1], [0, 1, 0])


# -- one power table against per-entry evaluation -------------------------------


def values(evaluated):
    """The Fraction values of evaluate_all's integers over one denominator."""
    nums, den = evaluated
    assert all(type(x) is int for x in nums) and type(den) is int and den > 0
    return [Q(x, den) for x in nums]


def test_evaluate_all_matches_the_direct_sum():
    rng = random.Random(5)
    polys = [rand_poly(rng, max_deg=5) for _ in range(30)] + [MultiPoly(), MultiPoly.const(3)]
    for lam, mu in [(Q(-7, 3), Q(5, 11)), (Q(0), Q(0)), (Q(2**40, 3**20), Q(-1, 7))]:
        want = [ref_evaluate(f, lam, mu) for f in polys]
        assert values(evaluate_all(polys, lam, mu)) == want
    assert values(evaluate_all([], 1, 2)) == []


def test_evaluate_point_matches_per_entry_evaluation(uni, points):
    off = [(Q(-7, 3), Q(5, 11)), (Q(1, 3), Q(1, 5)), (Q(0), Q(0))]
    for lam, mu in list(points) + off:
        got = evaluate_point(uni, EvalPoint(lam, mu))
        assert got.gram == [[ref_evaluate(x, lam, mu) for x in row] for row in uni.gram]
        assert got.product == [[[ref_evaluate(x, lam, mu) for x in vec] for vec in row]
                               for row in uni.product]
        # held as integer tables over positive denominators
        assert all(type(x) is int for row in got.table for vec in row for x in vec)
        assert all(type(x) is int for row in got.gram_table for x in row)
        assert got.den > 0 and got.gram_den > 0
        # and the symmetry matrices, as integer rows over one denominator
        for sym in (uni.tau0, uni.flip):
            rows, den = _eval_matrix(sym, EvalPoint(lam, mu))
            assert [[Q(x, den) for x in row] for row in rows] == \
                [[ref_evaluate(x, lam, mu) for x in row] for row in sym]


def test_rational_roots_factored():
    f = MU**2 - Q(65, 64) * MU + Q(1, 64)
    assert rational_roots(f) == {Q(1), Q(1, 64)}


def test_rational_roots_none():
    assert rational_roots(MU**2 + 1) == set()


def test_rational_roots_zero_root():
    f = LAM**3 - LAM**2
    assert rational_roots(f) == {Q(0), Q(1)}


def brute_force_roots(f, var):
    """Independent oracle: enumerate every rational-root-theorem candidate
    from the primitive integer form and keep the exact zeros."""
    from math import gcd

    coeffs = [f.coefficient(*((k, 0) if var == "lam" else (0, k)))
              for k in range(f.degree(var) + 1)]
    while coeffs and coeffs[0] == 0:
        coeffs = coeffs[1:]
    denom = 1
    for c in coeffs:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    ints = [int(c * denom) for c in coeffs]
    found = set()
    if ref_evaluate(f, 0, 0) == 0:
        found.add(Q(0))
    for p in range(1, abs(ints[0]) + 1):
        if ints[0] % p:
            continue
        for q in range(1, abs(ints[-1]) + 1):
            if ints[-1] % q:
                continue
            for cand in (Q(p, q), Q(-p, q)):
                if ref_evaluate(f, cand, cand) == 0:
                    found.add(cand)
    return found


def test_rational_roots_complete_against_brute_force():
    rng = random.Random(23)
    for _ in range(15):
        roots = [Q(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(3)]
        f = MultiPoly.const(rng.randint(1, 4))
        for r in roots:
            f = f * (LAM - r)
        assert rational_roots(f) == brute_force_roots(f, "lam")


def planted(var, roots, extra):
    """c * prod (q x - p) * extra over the planted roots p/q, with c > 0."""
    x = MultiPoly.variable(var)
    f = extra
    for r in roots:
        f = f * (r.denominator * x - r.numerator)
    return f


@pytest.mark.parametrize("var", ["lam", "mu"])
def test_rational_roots_hard_end_coefficients(var):
    x = MultiPoly.variable(var)
    # Trial division up to the square root of 2^64 * 3^40 would take about
    # 10^16 steps; the smooth end coefficient is factored in a few dozen.
    smooth = 2**64 * 3**40
    roots = {Q(0), Q(-1, smooth), Q(5, 2)}
    assert rational_roots(planted(var, roots, x**2 + x + 1)) == roots
    roots = {Q(smooth), Q(-1, 3)}
    assert rational_roots(planted(var, roots, x**2 + 2)) == roots
    # 2^20 * 1000003 leaves the prime 1000003 as the cofactor once the 2s
    # are divided out.
    roots = {Q(0), Q(-1), Q(9, 2**20 * 1000003)}
    assert rational_roots(planted(var, roots, x**2 - 2)) == roots
    assert rational_roots(planted(var, set(), 2**20 * 1000003 * x**2 + 3)) == set()


def test_rational_roots_recheck_every_candidate(monkeypatch):
    # a candidate is kept only when q^n f(p/q) == 0, so the re-check through
    # evaluate_all cannot fire; a faulty _homogeneous that reads 0 everywhere
    # lets +-2 through the sieve at -1 and the test, and they are no roots
    # of (lam^2 - 1)(lam^2 - 2)
    monkeypatch.setattr(poly_mod, "_homogeneous", lambda coeffs, p, q: 0)
    with pytest.raises(ArithmeticError, match=r"^candidate root -?2 does not annihilate "):
        rational_roots((LAM**2 - 1) * (LAM**2 - 2))


@pytest.mark.parametrize("call, message", [
    (lambda: rational_roots(MultiPoly()), "rational_roots of the zero polynomial"),
    (lambda: rational_roots(LAM * MU + 1), "polynomial is not univariate"),
    (lambda: leading_term(MultiPoly()), "zero polynomial has no leading term"),
    (lambda: (LAM + 1).constant_value(), "polynomial is not constant"),
    (lambda: LAM ** -1, "exponent must be a non-negative integer"),
    (lambda: MultiPoly.variable("nu"), "unknown variable 'nu'"),
], ids=["roots-of-zero", "roots-of-bivariate", "leading-term-of-zero",
        "constant-value-of-nonconstant", "negative-power", "unknown-variable"])
def test_argument_errors_name_the_fault(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_leading_term_grevlex():
    f = LAM**2 + LAM * MU**2
    e, c = leading_term(f)
    assert e == (1, 2) and c == 1
    # same total degree: the smaller mu-exponent leads
    g = LAM**2 * MU + LAM * MU**2
    assert leading_term(g)[0] == (2, 1)


# -- sympy as an independent oracle ---------------------------------------------


def sympy_setup():
    sympy = pytest.importorskip("sympy")
    lam, mu = sympy.symbols("lam mu")
    return sympy, {"lam": lam, "mu": mu}


def to_sympy(sympy, syms, f):
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * syms["lam"] ** i * syms["mu"] ** j
                       for (i, j), c in f.terms.items()))


def from_sympy(sympy, syms, expr):
    terms = sympy.Poly(expr, syms["lam"], syms["mu"]).terms()
    return MultiPoly({e: Q(int(c.p), int(c.q)) for e, c in terms})


@pytest.mark.parametrize("eliminate, kept", [("mu", "lam"), ("lam", "mu")])
def test_resultant_and_roots_against_sympy(uni, eliminate, kept):
    sympy, syms = sympy_setup()
    p1, p2 = associativity_polynomials(uni)
    theirs = sympy.resultant(to_sympy(sympy, syms, p1), to_sympy(sympy, syms, p2),
                             syms[eliminate])
    ours = resultant(p1, p2, eliminate)
    assert ours == from_sympy(sympy, syms, theirs)
    sympy_roots = sympy.roots(sympy.Poly(theirs, syms[kept]), filter="Q")
    assert rational_roots(ours) == {Q(int(r.p), int(r.q)) for r in sympy_roots}


@pytest.mark.parametrize("roots", [
    # 1000 is far from the other roots: a search that stops early at some
    # size of candidate has to reach it
    {Q(1, 64), Q(1000), Q(-7, 3)},
    # (2x + 1)(x - 2): the root 2 lies past every ratio |a_i| / |a_n| = 3/2
    # of the coefficients, so a search that stops there misses it
    {Q(-1, 2), Q(2)},
], ids=["far-root", "root-near-the-bound"])
def test_rational_roots_against_sympy(roots):
    sympy, syms = sympy_setup()
    f = planted("lam", roots, MultiPoly.const(1))
    theirs = sympy.roots(sympy.Poly(to_sympy(sympy, syms, f), syms["lam"]), filter="Q")
    assert rational_roots(f) == {Q(int(r.p), int(r.q)) for r in theirs} == roots


@pytest.mark.parametrize("huge", [False, True])
def test_resultant_of_planted_pairs_against_sympy(huge):
    sympy, syms = sympy_setup()
    rng = random.Random(43 + huge)
    for _ in range(8):
        f, g, _, _ = planted_pair(rng, huge)
        for eliminate in ("lam", "mu"):
            theirs = sympy.resultant(to_sympy(sympy, syms, f), to_sympy(sympy, syms, g),
                                     syms[eliminate])
            assert resultant(f, g, eliminate) == from_sympy(sympy, syms, theirs)


def test_standard_monomial_count_against_sympy(uni):
    # sympy's standard monomials count the quotient ring; common_zeros reads
    # the same number off the resultant's degree in either order
    p1, p2 = associativity_polynomials(uni)
    count = ref_quotient_dimension([p1, p2])
    assert [resultant(p1, p2, var).degree() for var in ("mu", "lam")] == [count, count]
