from fractions import Fraction as Q

import pytest

from axial import algebra as algebra_mod
from axial import linalg, sakuma
from axial.algebra import (ConsistencyError, ShapeError, StructureAlgebra, bilinear,
                           check_symmetric, defect, form_tensor, verify_form)
from axial.fusion import find_z2_gradings, frobenius_refine, virasoro_rules
from axial.poly import LAM, MU, MultiPoly, rational_roots, resultant
from axial.sakuma import (A0, A1, AM1, AM2, A2, LABELS, S1, S2E, S2O, EvalPoint,
                          UniversalAlgebra, _axis_sigma_form, _complete_gram, _constant_lead,
                          _seed, associativity_defects, associativity_polynomials,
                          axis_eigenvectors, classify, common_zeros,
                          discrepancy_quotient, evaluate_point,
                          expected_miyamoto_product_order, norton_sakuma_name,
                          rederive_products, solve_points)

from conftest import (POINT_AT, POINT_TABLE, TOTAL_DIM, associates_with_zero_eigenvectors,
                      fraction_inverse, ref_evaluate, ref_form_tensor, ref_quotient_dimension,
                      three_c)
from test_poly import to_sympy


def e8(i):
    return [Q(1) if k == i else Q(0) for k in range(8)]


def sym_vec(entries):
    out = [MultiPoly() for _ in range(8)]
    for k, v in entries.items():
        out[k] = v if isinstance(v, MultiPoly) else MultiPoly.const(v)
    return out


EXPECTED_P1 = (LAM**4 - Q(71, 2**6) * LAM**3 + Q(5, 2**8) * LAM**2 * MU
               + Q(45, 2**9) * LAM**2 + Q(139, 2**15) * LAM * MU
               + Q(1, 2**14) * MU**2 - Q(75, 2**15) * LAM
               - Q(167, 2**21) * MU + Q(39, 2**21))

EXPECTED_P2 = (LAM**5 - Q(577, 2**9) * LAM**4 + Q(25, 2**9) * LAM**3 * MU
               + Q(1347, 2**14) * LAM**3 - Q(389, 2**17) * LAM**2 * MU
               + Q(23, 2**17) * LAM * MU**2 - Q(105, 2**16) * LAM**2
               + Q(5183, 2**24) * LAM * MU + Q(87, 2**24) * MU**2
               - Q(63, 2**24) * LAM - Q(2901, 2**29) * MU + Q(117, 2**29))

# The paper's closed values, which the build derives and never reads:
# a0 * s2e, the form between the axes and the sigmas (by the parity of the
# axis subscript), <s1, s1>, nu3 = <a0, a3> and nu4 = <a0, a4>.
EXPECTED_A0_S2E = sym_vec({S2E: Q(7, 32), A0: Q(3, 4) * MU - MultiPoly.const(Q(25, 2**10)),
                           AM2: Q(7, 2**11), A2: Q(7, 2**11)})
EXPECTED_A_S1 = Q(1, 32) * (31 * LAM - 1)
EXPECTED_EVEN_2 = Q(1, 32) * (31 * MU - 1)
EXPECTED_ODD_2 = Q(1, 32) * (30 * LAM + MU - 1)
EXPECTED_S1_S1 = (Q(3, 4) * LAM**2 + Q(65, 2**9) * LAM
                  + Q(7, 2**11) * MU - MultiPoly.const(Q(3, 2**11)))
EXPECTED_NU3 = Q(-1, 7) * (2**15 * LAM**3 - 2**12 * 9 * LAM**2 + 2**7 * 15 * LAM * MU
                           + 2169 * LAM + 33 * MU - 33)
EXPECTED_NU4 = Q(1, 7) * (2**23 * LAM**4 - 2**15 * 293 * LAM**3 + 2**16 * 7 * LAM**2 * MU
                          + 2**12 * 189 * LAM**2 - 2**7 * 5 * LAM * MU - 2**7 * MU**2
                          - 2**7 * 155 * LAM - 21 * MU + 156)

# The paper's projections of a_1 and a_2 onto the eigenspaces of a_0, which
# axis_eigenvectors derives from alpha = 1/4 and beta = 1/32
EXPECTED_EIGENVECTORS = {
    "alpha1": sym_vec({S1: -4, A0: 3 * LAM - Q(1, 8), A1: Q(7, 16), AM1: Q(7, 16)}),
    "beta1": sym_vec({S1: 4, A0: -4 * LAM + Q(1, 8), A1: Q(1, 16), AM1: Q(1, 16)}),
    "gamma1": sym_vec({A1: Q(1, 2), AM1: Q(-1, 2)}),
    "alpha2": sym_vec({S2E: -4, A0: 3 * MU - Q(1, 8), A2: Q(7, 16), AM2: Q(7, 16)}),
    "beta2": sym_vec({S2E: 4, A0: -4 * MU + Q(1, 8), A2: Q(1, 16), AM2: Q(1, 16)}),
}


def derived_gram(prod, a3, a4):
    """The Gram matrix the build derives from a finished product table."""
    _, gram = _seed()
    _axis_sigma_form(prod, gram)
    return _complete_gram(prod, gram, a3, a4)


# -- the symbolic build ---------------------------------------------------


def test_window_products(uni):
    prod = uni.product
    assert prod[A0][A0] == sym_vec({A0: 1})
    assert prod[A0][A1] == sym_vec({S1: 1, A0: Q(1, 32), A1: Q(1, 32)})
    assert prod[AM1][A1] == sym_vec({S2O: 1, AM1: Q(1, 32), A1: Q(1, 32)})
    assert prod[A0][A2] == sym_vec({S2E: 1, A0: Q(1, 32), A2: Q(1, 32)})


def test_a0_s2e_matches_the_closed_formula(uni):
    assert uni.product[A0][S2E] == EXPECTED_A0_S2E


def test_table_is_total_and_symmetric(uni, monkeypatch):
    prod = uni.product
    for i in range(8):
        for j in range(8):
            assert prod[i][j] is not None
            assert prod[i][j] == prod[j][i]
    # the build checks both symbolic tables, as the rational constructor does
    import axial.sakuma as sakuma

    def skewed(prod, gram, a3, a4):
        gram = [list(row) for row in uni.gram]
        gram[A0][S1] = gram[A0][S1] + 1
        return gram

    monkeypatch.setattr(sakuma, "_complete_gram", skewed)
    with pytest.raises(ShapeError, match=r"gram matrix is not symmetric at \(5, 2\)"):
        sakuma.build_universal()
    wrong = [list(row) for row in prod]
    wrong[A1][S1] = wrong[A0][S1]
    with pytest.raises(ShapeError, match=r"product is not commutative at \(5, 3\)"):
        check_symmetric(wrong, uni.gram)


def test_a3_expansion(uni):
    c_quad = (Q(2**15, 7) * LAM**2 - Q(2**8 * 9, 7) * LAM + Q(2**7, 7) * MU
              + MultiPoly.const(Q(33, 7)))
    expected = sym_vec({
        AM2: 1,
        AM1: 2**8 * LAM - 6,
        A2: -(2**8) * LAM + 6,
        A0: c_quad,
        A1: MultiPoly() - c_quad,
        S2O: 32,
        S2E: -32,
    })
    assert uni.a3 == expected


def test_eigenvector_identities(uni):
    ev = axis_eigenvectors()
    a0 = sym_vec({A0: 1})
    zero = [MultiPoly()] * 8

    def scaled(c, v):
        return [MultiPoly.const(c) * x for x in v]

    def mult(x, y):
        return bilinear(uni.product, x, y, LABELS)

    assert mult(a0, ev["alpha1"]) == zero
    assert mult(a0, ev["beta1"]) == scaled(Q(1, 4), ev["beta1"])
    assert mult(a0, ev["gamma1"]) == scaled(Q(1, 32), ev["gamma1"])
    assert mult(a0, ev["alpha2"]) == zero
    assert mult(a0, ev["beta2"]) == scaled(Q(1, 4), ev["beta2"])


def test_axis_eigenvectors_are_derived_from_the_law():
    law = sakuma.ising_law()
    assert (law.alpha, law.beta) == (Q(1, 4), Q(1, 32))
    assert axis_eigenvectors() == EXPECTED_EIGENVECTORS


# -- the build's checks, each made to fail once ------------------------------


def patch_law(monkeypatch, alpha, beta):
    law = sakuma.ising_law()
    monkeypatch.setattr(sakuma, "ising_law", lambda: law._replace(alpha=alpha, beta=beta))


def patch_seed(monkeypatch, i, j, k, delta):
    """Add delta to coordinate k of the seeded window product e_i e_j."""
    real = sakuma._seed

    def seed():
        prod, gram = real()
        vec = list(prod[i][j])
        vec[k] = vec[k] + delta
        prod[i][j] = prod[j][i] = vec
        return prod, gram

    monkeypatch.setattr(sakuma, "_seed", seed)


def test_the_build_under_another_law_derives_its_eigenvectors(monkeypatch):
    # under alpha = 1/2, beta = 1/32 every check of the build passes, and the
    # derived projections are eigenvectors of a_0 in the derived table
    patch_law(monkeypatch, Q(1, 2), Q(1, 32))
    uni = sakuma.build_universal()
    ev = axis_eigenvectors()
    assert ev["beta1"][S1] == MultiPoly.const(2)
    a0 = sym_vec({A0: 1})
    for name, value in (("alpha1", 0), ("beta1", Q(1, 2)), ("gamma1", Q(1, 32)),
                        ("alpha2", 0), ("beta2", Q(1, 2))):
        assert bilinear(uni.product, a0, ev[name], LABELS) == [value * x for x in ev[name]]


@pytest.mark.parametrize("alpha, beta, message", [
    # beta = alpha/2 cancels the s2o term of the odd-sigma relation
    (Q(1, 4), Q(1, 8), r"^the coefficient of a0\*s2o is 0, not a nonzero constant$"),
    # beta = alpha/4 leaves no a_{-2} term in s1*s1
    (Q(1, 2), Q(1, 8), r"^cannot solve for a_3: degenerate flip symmetry$"),
])
def test_a_law_that_breaks_the_build_names_the_check(monkeypatch, alpha, beta, message):
    patch_law(monkeypatch, alpha, beta)
    with pytest.raises(ConsistencyError, match=message):
        sakuma.build_universal()


def test_eigenvectors_whose_sigma_terms_do_not_cancel_are_refused(monkeypatch):
    real = sakuma.axis_eigenvectors

    def doubled():
        ev = real()
        ev["beta1"] = [2 * x for x in ev["beta1"]]
        return ev

    monkeypatch.setattr(sakuma, "axis_eigenvectors", doubled)
    with pytest.raises(ConsistencyError,
                       match=r"^s1\*s1 does not cancel from the odd-sigma relation$"):
        sakuma.build_universal()


def test_an_a3_expansion_without_a_constant_s2o_term_is_refused(monkeypatch):
    patch_seed(monkeypatch, AM2, A0, S2E, LAM)
    with pytest.raises(ConsistencyError,
                       match=r"^the coefficient of s2o\*s2e is 16\*lam \+ 32, "
                             r"not a nonzero constant$"):
        sakuma.build_universal()


def test_a_wrong_window_product_fails_the_re_association(monkeypatch):
    patch_seed(monkeypatch, AM2, AM1, AM2, Q(1, 64))
    with pytest.raises(ConsistencyError, match=r"^two routes disagree for <a-2, s2o>$"):
        sakuma.build_universal()


@pytest.mark.parametrize("route, value", [
    ((AM2, AM1, AM1), "a-1, s1"),
    ((AM1, A0, A0), "a0, s1"),
    ((A0, A1, A1), "a1, s1"),
    ((AM2, A0, A0), "a0, s2e"),
], ids=["a-1-s1", "a0-s1", "a1-s1", "a0-s2e"])
def test_the_two_window_routes_to_an_axis_sigma_value_must_agree(monkeypatch, route, value):
    # each of these values is reached from two window pairs; the first route,
    # shifted by 1, must be caught by the second, not overwritten by it
    real = sakuma._sigma_form

    def shifted(prod, g, p, q, w):
        out = real(prod, g, p, q, w)
        return out + 1 if (p, q, w) == route else out

    monkeypatch.setattr(sakuma, "_sigma_form", shifted)
    with pytest.raises(ConsistencyError, match=rf"^two routes disagree for <{value}>$"):
        sakuma.build_universal()


@pytest.mark.parametrize("call, message", [
    (0, "tau0 is not an involution"),
    (1, "the flip is not an involution"),
    (3, "tau0 does not preserve the form"),
])
def test_the_symmetry_checks_name_what_fails(monkeypatch, call, message):
    # only a faulty matrix product reaches these: tau0 is a permutation
    # matrix, the flip is an involution by the way a_3 is solved for, and
    # no fault of the law, the eigenvectors or the seed got past the
    # re-association checks to a form tau0 does not preserve.  The build
    # calls linalg.matmul only here: tau0 tau0, flip flip, tau0^T G and
    # (tau0^T G) tau0, calls 0 to 3.
    real = linalg.matmul
    calls = []

    def faulty(a, b):
        out = real(a, b)
        if len(calls) == call:
            out[A0][A0] = out[A0][A0] + 1
        calls.append(call)
        return out

    monkeypatch.setattr(linalg, "matmul", faulty)
    with pytest.raises(ConsistencyError, match=f"^{message}$"):
        sakuma.build_universal()


def test_symmetries_are_involutions(uni):
    ident = [[MultiPoly.const(1 if i == j else 0) for j in range(8)] for i in range(8)]
    assert linalg.matmul(uni.tau0, uni.tau0) == ident
    assert linalg.matmul(uni.flip, uni.flip) == ident


def test_tau0_preserves_gram(uni):
    g = uni.gram
    t = uni.tau0
    assert linalg.matmul(linalg.matmul(linalg.transpose(t), g), t) == g


def test_flip_transports_products(uni):
    # where the images stay inside the window the flip is an automorphism
    prod = uni.product
    assert linalg.matvec(uni.flip, prod[A0][S1]) == prod[A1][S1]
    assert linalg.matvec(uni.flip, prod[A0][S2O]) == prod[A1][S2E]
    assert linalg.matvec(uni.tau0, prod[A1][S1]) == prod[AM1][S1]


def test_symmetry_images(uni):
    tau0, flip = uni.tau0, uni.flip
    assert linalg.matvec(tau0, sym_vec({A2: 1})) == sym_vec({AM2: 1})
    assert linalg.matvec(tau0, sym_vec({S2O: 1})) == sym_vec({S2O: 1})
    assert linalg.matvec(flip, sym_vec({S2E: 1})) == sym_vec({S2O: 1})
    assert linalg.matvec(flip, sym_vec({A0: 1})) == sym_vec({A1: 1})
    assert linalg.matvec(flip, sym_vec({AM2: 1})) == uni.a3


def test_sigma_one_squared_formula(uni):
    lam, mu = LAM, MU
    third, seven_third = Q(1, 3), Q(7, 3)
    expected = sym_vec({
        S1: third * (Q(-5, 4) * lam - Q(13, 2**9)),
        S2E: MultiPoly.const(third * Q(-7, 2**9)),
        S2O: MultiPoly.const(third * Q(21, 2**11)),
        A0: seven_third * (Q(1, 2) * lam**2 - Q(1, 2**7) * lam + Q(1, 2**9) * mu
                           - MultiPoly.const(Q(1, 2**15))),
        A1: seven_third * (Q(7, 2**8) * lam - Q(35, 2**16)),
        AM1: seven_third * (Q(7, 2**8) * lam - Q(35, 2**16)),
        A2: MultiPoly.const(seven_third * Q(7, 2**16)),
        AM2: MultiPoly.const(seven_third * Q(7, 2**16)),
    })
    assert uni.product[S1][S1] == expected


# -- the Gram matrix ------------------------------------------------------


def test_gram_printed_entries(uni):
    g = uni.gram
    assert g[A0][A0] == MultiPoly.const(1)
    assert g[A0][A1] == LAM
    assert g[A0][A2] == MU
    for k in range(5):
        assert g[k][S1] == EXPECTED_A_S1
    assert g[A0][S2E] == EXPECTED_EVEN_2
    assert g[A0][S2O] == EXPECTED_ODD_2
    assert g[S1][S1] == EXPECTED_S1_S1


def test_gram_nu3_nu4(uni):
    g = uni.gram
    assert g[AM2][A1] == EXPECTED_NU3
    assert g[AM1][A2] == EXPECTED_NU3
    assert g[AM2][A2] == EXPECTED_NU4


def test_gram_complete_re_derivation(uni):
    # the stored Gram matrix is the one the product table determines
    assert derived_gram(uni.product, uni.a3, uni.a4) == uni.gram


def test_gram_second_routes_catch_a_wrong_product(uni):
    # the build re-derives <s1, s1> through a0 * s1 and <a_k, sigma> through
    # associativity; a product that is off by a little must be refused
    prod = [list(row) for row in uni.product]
    wrong = list(prod[A1][S1])
    wrong[S1] = wrong[S1] + Q(1, 2**10)
    prod[A1][S1] = prod[S1][A1] = wrong
    with pytest.raises(ConsistencyError, match="two routes disagree"):
        derived_gram(prod, uni.a3, uni.a4)


def test_gram_second_routes_catch_a_wrong_expansion(uni):
    # nu3 = <a0, a3> is checked as <a3, a1> = mu, nu4 = <a0, a4> as <a4, a1> = nu3
    a3 = list(uni.a3)
    a3[A0] = a3[A0] + 1
    with pytest.raises(ConsistencyError, match=r"two routes disagree for <a0, a3>"):
        derived_gram(uni.product, a3, uni.a4)
    a4 = list(uni.a4)
    a4[A0] = a4[A0] + 1
    with pytest.raises(ConsistencyError, match=r"two routes disagree for <a0, a4>"):
        derived_gram(uni.product, uni.a3, a4)


def test_the_build_reads_no_entry_before_deriving_it():
    # the seed knows neither a0 * s1 nor <a0, s1>
    prod, gram = _seed()
    with pytest.raises(ConsistencyError, match=r"product \(a0, s1\) not yet available"):
        bilinear(prod, sym_vec({A0: 1}), sym_vec({S1: 1}), LABELS)
    with pytest.raises(ConsistencyError, match=r"form value <a0, s1> not yet available"):
        _complete_gram(prod, gram, sym_vec({S1: 1}), sym_vec({A2: 1}))


def test_sigma_gram_entries_by_parity(uni):
    g = uni.gram
    for k in range(5):
        if k % 2 == 0:
            assert g[k][S2E] == EXPECTED_EVEN_2 and g[k][S2O] == EXPECTED_ODD_2
        else:
            assert g[k][S2E] == EXPECTED_ODD_2 and g[k][S2O] == EXPECTED_EVEN_2


# -- associativity polynomials and the variety ----------------------------


def test_p1_p2_exact(uni):
    p1, p2 = associativity_polynomials(uni)
    assert p1 == EXPECTED_P1
    assert len(p1.terms) == 9
    assert p2 == EXPECTED_P2
    assert len(p2.terms) == 12


def test_diagonal_defect_vanishes(uni):
    defects = dict(associativity_defects(uni))
    assert (A0, A0, A0) not in defects


def test_defects_match_the_direct_loop(uni):
    # the scan reads its defects off the form tensor; the definition pairs twice
    prod, gram = uni.product, uni.gram
    direct = [((i, j, k), d) for i in range(8) for j in range(8) for k in range(8)
              if (d := defect(prod, gram, i, j, k))]
    assert associativity_defects(uni) == direct
    assert len(direct) == 136


def test_form_tensor_matches_the_per_term_loop(uni, points):
    # the symbolic tensor and the defects read off it
    want = ref_form_tensor(uni.product, uni.gram)
    got = form_tensor(uni.product, uni.gram)
    for i in range(8):
        for j in range(8):
            for k in range(8):
                assert type(got[i][j][k]) is MultiPoly
                assert got[i][j][k] == want[i][j][k], (i, j, k)
    defects = [((i, j, k), d) for i in range(8) for j in range(8) for k in range(8)
               if (d := want[i][j][k] - want[j][k][i])]
    assert associativity_defects(uni) == defects
    # and the integer tables of an evaluated algebra
    alg = evaluate_point(uni, points[POINT_AT["6A"]])
    table, gram = alg.table, alg.gram_table
    assert form_tensor(table, gram) == ref_form_tensor(table, gram)


def test_defects_vanish_at_all_points(uni, points):
    defects = associativity_defects(uni)
    assert defects  # the table is not associative over the polynomial ring
    for pt in points.values():
        for _, d in defects:
            assert ref_evaluate(d, pt.lam, pt.mu) == 0


def test_flip_preserves_gram_at_all_points(uni, points):
    # symbolically the flip moves some form values by ideal elements (the
    # entries involving a_{-2}); at the nine points those vanish
    from axial.sakuma import _eval_matrix

    def values(evaluated):
        rows, den = evaluated
        return [[Q(x, den) for x in row] for row in rows]

    for pt in points.values():
        g = values(_eval_matrix(uni.gram, pt))
        f = values(_eval_matrix(uni.flip, pt))
        assert linalg.matmul(linalg.matmul(linalg.transpose(f), g), f) == g


def test_lambda_resultant_roots(uni):
    p1, p2 = associativity_polynomials(uni)
    res = resultant(p1, p2, "mu")
    expected = {Q(1), Q(0), Q(1, 8), Q(1, 64), Q(13, 256), Q(1, 32), Q(3, 128), Q(5, 256)}
    assert rational_roots(res) == expected
    assert {pt.lam for pt in solve_points(uni)} == expected


def test_solve_points_table(uni):
    pts = solve_points(uni)
    assert [(pt.lam, pt.mu) for pt in pts] == sorted(POINT_AT.values())
    p1, p2 = associativity_polynomials(uni)
    for pt in pts:
        assert ref_evaluate(p1, pt.lam, pt.mu) == 0
        assert ref_evaluate(p2, pt.lam, pt.mu) == 0
        assert pt.name == f"({pt.lam}, {pt.mu})"


def test_quotient_ring_dimension(uni):
    p1, p2 = associativity_polynomials(uni)
    assert ref_quotient_dimension([p1, p2]) == 9
    # p1 = lam^4 + ... = mu^2/16384 + ...: both orders certify, each with degree 9
    assert _constant_lead(p1, "lam") and _constant_lead(p1, "mu")
    assert [resultant(p1, p2, var).degree() for var in ("mu", "lam")] == [9, 9]


def test_constant_lead():
    assert _constant_lead(3 * MU**2 + LAM * MU + LAM**5, "mu")
    assert not _constant_lead(3 * MU**2 + LAM * MU**2, "mu")
    assert _constant_lead(Q(1, 7) * LAM**2 + MU**3, "lam")
    assert not _constant_lead(LAM * MU - 1, "lam")


# Each p1 here, with p2 = mu - lam, generates the ideal (f(lam), mu - lam)
# for f = p1 at mu = lam: the mu(mu - lam) term makes p1 involve mu without
# changing the ideal.
@pytest.mark.parametrize("p1, count", [
    ((LAM**2 - 2) * (LAM - 1) + MU * (MU - LAM), 3),  # two irrational zeros
    ((LAM - 1) ** 2 + MU * (MU - LAM), 2),  # (1, 1) twice
], ids=["irrational", "double"])
def test_certificate_refuses_zeros_the_rational_search_misses(p1, count):
    p2 = MU - LAM
    assert ref_quotient_dimension([p1, p2]) == count
    assert [resultant(p1, p2, var).degree() for var in ("mu", "lam")] == [count, count]
    # the rational search alone finds only (1, 1)
    assert rational_roots(resultant(p1, p2, "mu")) == {Q(1)}
    with pytest.raises(ConsistencyError, match=f"dimension {count}, but 1 rational"):
        common_zeros(p1, p2)


# with MU - LAM, three simple rational zeros: (-1, -1), (1/3, 1/3) and (2, 2)
THREE_ZEROS = (LAM - 2) * (LAM - Q(1, 3)) * (LAM + 1) + MU * (MU - LAM)


def test_certificate_accepts_simple_rational_zeros():
    assert ref_quotient_dimension([THREE_ZEROS, MU - LAM]) == 3
    pts = common_zeros(THREE_ZEROS, MU - LAM)
    assert [(pt.lam, pt.mu) for pt in pts] == [(-1, -1), (Q(1, 3), Q(1, 3)), (2, 2)]


@pytest.mark.parametrize("var", ["mu", "lam"])
def test_certificate_checks_every_qualifying_order(monkeypatch, var):
    # a resultant one degree too high in either order is caught, though its
    # extra root (lam = 5 eliminating mu, mu = 5 eliminating lam) is no zero
    real = sakuma.resultant
    extra = {"mu": LAM - 5, "lam": MU - 5}[var]
    monkeypatch.setattr(sakuma, "resultant",
                        lambda f, g, v: real(f, g, v) * (extra if v == var else 1))
    with pytest.raises(ConsistencyError, match="dimension 4, but 3 rational"):
        common_zeros(THREE_ZEROS, MU - LAM)


def test_common_zeros_refuse_relations_that_vanish_on_a_whole_line(monkeypatch):
    # p1 and p2 share the factor lam - 1, so both vanish on the line
    # lam = 1; the true resultant is then identically zero and the
    # shared-factor check fires first.  Only a faulty resultant, here
    # lam - 1 itself, hands over a root on the line
    monkeypatch.setattr(sakuma, "resultant", lambda f, g, v: LAM - 1)
    with pytest.raises(ConsistencyError, match="^both relations vanish on a whole line$"):
        common_zeros((LAM - 1) * MU, (LAM - 1) * (MU - 1))


def test_certificate_needs_a_constant_leading_coefficient():
    # both orders find no rational zero and agree, but no resultant's degree
    # is the dimension of the quotient ring, so nothing is certified
    with pytest.raises(ConsistencyError, match="neither relation has a constant leading "
                                               "coefficient in lam or mu"):
        common_zeros(LAM * MU - 1, LAM * MU + LAM + MU)


def test_common_zeros_name_what_only_one_order_finds(monkeypatch):
    res_mu = resultant(THREE_ZEROS, MU - LAM, "mu")
    roots = sakuma.rational_roots
    # eliminating mu loses the root lam = 2 of its resultant
    monkeypatch.setattr(sakuma, "rational_roots",
                        lambda f: roots(f) - {2} if f == res_mu else roots(f))
    with pytest.raises(ConsistencyError, match=r"disagree: only eliminating mu finds nothing, "
                                               r"only eliminating lam finds \(2, 2\)$"):
        common_zeros(THREE_ZEROS, MU - LAM)


def test_common_zeros_fall_back_to_p2_where_p1_vanishes():
    # p1(1, mu) and p1(lam, 2) vanish identically, so each zero is read off p2
    assert common_zeros((LAM - 1) * (MU - 2), MU - LAM) == [(1, 1), (2, 2)]


def test_common_zeros_refuse_a_shared_factor():
    shared = LAM - MU
    with pytest.raises(ConsistencyError, match="resultant eliminating mu vanishes "
                                               "identically; shared factor"):
        common_zeros(shared * (LAM - 1), shared * (MU - 2))


def test_common_zeros_solve_relations_that_miss_a_variable():
    # a relation of degree 0 in the eliminated variable gives the resultant
    # f^n or g^m, and 1 when both are of degree 0
    assert common_zeros(LAM - 1, MU - 2) == [EvalPoint(1, 2)]
    assert common_zeros(LAM**2 - 1, MU - LAM) == [(-1, -1), (1, 1)]
    assert common_zeros(LAM - 1, LAM - 2) == []
    with pytest.raises(ConsistencyError, match="^resultant eliminating lam vanishes "
                                               "identically; shared factor$"):
        common_zeros(LAM - 1, LAM - 1)


# -- evaluation and quotients ----------------------------------------------


def test_evaluate_point_values(uni, points):
    alg_2b = evaluate_point(uni, points[POINT_AT["2B"]])
    assert alg_2b.gram[A0][A1] == 0
    alg_3c = evaluate_point(uni, points[POINT_AT["3C"]])
    assert alg_3c.product[A0][A1][S1] == 1
    alg_6a = evaluate_point(uni, points[POINT_AT["6A"]])
    assert alg_6a.gram[A0][S1] == Q(-101, 8192)


def test_distinct_product_objects_are_evaluated_on_both_sides(uni, points):
    # _put shares one list between (i, j) and (j, i); evaluate_point
    # evaluates each shared list once, and each of two distinct lists apart
    assert uni.product[A0][S1] is uni.product[S1][A0]
    pt = points[POINT_AT["4B"]]
    product = [list(row) for row in uni.product]
    product[S1][A0] = list(product[A0][S1])
    copied = UniversalAlgebra(product, uni.gram, uni.tau0, uni.flip, uni.a3, uni.a4)
    want = evaluate_point(uni, pt)
    got = evaluate_point(copied, pt)
    assert (got.table, got.den) == (want.table, want.den)
    # a distinct (j, i) list that differs is seen, and refused
    product[S1][A0] = [c + LAM if k == A1 else c for k, c in enumerate(product[A0][S1])]
    broken = UniversalAlgebra(product, uni.gram, uni.tau0, uni.flip, uni.a3, uni.a4)
    with pytest.raises(ShapeError, match=rf"not commutative at \({S1}, {A0}\)"):
        evaluate_point(broken, pt)


def test_ideal_and_quotient_dims(uni, points):
    for name, lam, mu, ideal_dim, dim in POINT_TABLE:
        disc = discrepancy_quotient(uni, points[(lam, mu)])
        assert disc.ideal_dim == ideal_dim, name
        assert disc.quotient.dim == dim, name
        for m in (uni.tau0, uni.flip):
            t = [[ref_evaluate(c, lam, mu) for c in row] for row in m]
            # the ideal is a canonical basis, which its images leave alone
            images = [linalg.matvec(t, v) for v in disc.ideal]
            assert linalg.echelon_span(disc.ideal + images) == disc.ideal, name


def test_a_form_that_fails_on_the_ideal_names_the_point(uni, points):
    # a wrong <s1, s1> keeps the symmetries but not the form's vanishing on
    # the ideal; quotient catches it once and discrepancy_quotient names the point
    gram = [list(row) for row in uni.gram]
    gram[S1][S1] = gram[S1][S1] + 1
    broken = UniversalAlgebra(uni.product, gram, uni.tau0, uni.flip, uni.a3, uni.a4)
    pt = points[POINT_AT["4B"]]
    with pytest.raises(ConsistencyError,
                       match=rf"the form does not vanish on the ideal at \({pt.lam}, {pt.mu}\)"):
        discrepancy_quotient(broken, pt)


def test_an_ideal_short_of_the_radical_names_the_point(uni, points, monkeypatch):
    # with no symmetry defects to close, the ideal at the 2B point is empty
    # while the radical of the form there has dimension 6; classify reaches
    # the 2B point first and adds no second name to the error
    import axial.sakuma as sakuma

    monkeypatch.setattr(sakuma, "ideal_closure", lambda alg, gens, maps: [])
    message = r"^the radical of the form has dimension 6 but the ideal 0 at \(0, 1\)$"
    with pytest.raises(ConsistencyError, match=message):
        discrepancy_quotient(uni, points[POINT_AT["2B"]])
    with pytest.raises(ConsistencyError, match=message):
        classify(uni)


def test_a_form_that_is_not_positive_definite_names_the_point(uni, points, monkeypatch):
    import axial.sakuma as sakuma

    real_quotient = sakuma.quotient

    def negated(alg, ideal):
        quot, proj = real_quotient(alg, ideal)
        gram = [[-x for x in row] for row in quot.gram_table]
        return StructureAlgebra.from_integers(quot.labels, quot.table, quot.den,
                                              gram, quot.gram_den), proj

    monkeypatch.setattr(sakuma, "quotient", negated)
    pt = points[POINT_AT["3A"]]
    with pytest.raises(ConsistencyError,
                       match=rf"^the form on the quotient is not positive definite "
                             rf"at \({pt.lam}, {pt.mu}\)$"):
        discrepancy_quotient(uni, pt)


def test_a_miyamoto_failure_in_classify_names_the_point(uni, monkeypatch):
    # grading the quarter field odd instead of 1/32 makes the involution of
    # an axis with a 1/4-eigenspace fail to be an automorphism
    from axial import sakuma
    from axial.fusion import Grading

    wrong = Grading(frozenset({Q(1), Q(0), Q(1, 32)}), frozenset({Q(1, 4)}))
    law = sakuma.ising_law()
    monkeypatch.setattr(sakuma, "ising_law", lambda: law._replace(grading=wrong))
    # the 3C quotient has no 1/4-eigenspace and now no odd one, so both its
    # involutions are the identity, and the order check refuses it first
    with pytest.raises(ConsistencyError,
                       match=r"^involution product order 1 does not match axis-shift order 3 "
                             r"at \(1/64, 1/64\)$"):
        classify(uni)
    # the 4B quotient has a 1/4-eigenspace, where miyamoto refuses
    real = sakuma.solve_points
    monkeypatch.setattr(sakuma, "solve_points",
                        lambda uni: [pt for pt in real(uni) if pt == POINT_AT["4B"]])
    with pytest.raises(ConsistencyError,
                       match=r"^the involution is not an automorphism at \(\d+, \d+\) "
                             r"at \(1/64, 1/8\)$"):
        classify(uni)


def test_2b_eigen_dims(uni, points):
    from axial.algebra import eigen_decompose

    rules = frobenius_refine(virasoro_rules(4, 3))
    disc = discrepancy_quotient(uni, points[POINT_AT["2B"]])
    ax0 = linalg.matvec(disc.projection, e8(A0))
    spaces, semisimple = eigen_decompose(disc.quotient.ad_integer(ax0), rules.fields)
    dims = tuple(len(spaces[f]) for f in rules.fields)
    assert dims == (1, 1, 0, 0) and semisimple


def test_2b_miyamoto_is_identity(uni, points):
    from axial.algebra import check_axis, miyamoto

    rules = frobenius_refine(virasoro_rules(4, 3))
    grading = next(g for g in find_z2_gradings(rules) if not g.trivial)
    disc = discrepancy_quotient(uni, points[POINT_AT["2B"]])
    ax0 = linalg.matvec(disc.projection, e8(A0))
    report = check_axis(disc.quotient, ax0, rules)
    assert miyamoto(disc.quotient, report, grading) == ([[1, 0], [0, 1]], 1)


# -- an independent oracle for the quotient pass --------------------------------
#
# Everything below runs in sympy on the symbolic tables: uni.product and
# uni.gram are evaluated by substitution, not through evaluate_point, and
# the radical, the quotient, the eigenspaces and the involutions come from
# sympy's own nullspaces, eigenvectors and inverses, not from linalg.


def sympy_order(sympy, m, bound=12):
    """Least k <= bound with m**k the identity, else None."""
    power = m
    for k in range(1, bound + 1):
        if power == sympy.eye(m.rows):
            return k
        power = power * m
    return None


def sympy_tables(sympy, uni):
    """(symbols, tables): uni's product, Gram matrix, flip and tau0 by
    name, with every entry a sympy expression in lam and mu."""
    syms = dict(zip(("lam", "mu"), sympy.symbols("lam mu")))

    def convert(node):
        return to_sympy(sympy, syms, node) if isinstance(node, MultiPoly) else \
            [convert(x) for x in node]

    return syms, {k: convert(getattr(uni, k)) for k in ("product", "gram", "flip", "tau0")}


def sympy_quotient_invariants(sympy, syms, tables, lam, mu, grading):
    """(radical dim, quotient dim, axis spectra, order of tau_a tau_b, shift
    order) at (lam, mu), all by sympy on the tables of sympy_tables.

    The radical of the form is the Gram nullspace R, checked closed under
    every ad(e_i).  Completed by unit vectors to a basis B = [R | C], every
    map that preserves R is block triangular in B, and its block on C is
    the map induced on the quotient: ad(a_0) and ad(a_1) there give the
    eigenvectors P and the Miyamoto involution P S P^-1, S = -1 on the odd
    eigenvalues, and flip tau0 gives the axis shift."""
    at = {syms["lam"]: sympy.Rational(lam.numerator, lam.denominator),
          syms["mu"]: sympy.Rational(mu.numerator, mu.denominator)}

    def matrix(m):
        return sympy.Matrix(8, 8, lambda i, j: m[i][j].xreplace(at))

    # column j of ad(e_i) is e_i e_j
    ads = [sympy.Matrix(8, 8, lambda k, j: tables["product"][i][j][k].xreplace(at))
           for i in range(8)]
    radical = matrix(tables["gram"]).nullspace()
    r = len(radical)
    basis = sympy.Matrix.hstack(*radical) if radical else sympy.zeros(8, 0)
    for ad in ads:
        assert sympy.Matrix.hstack(basis, ad * basis).rank() == r, "radical is no ideal"
    pivots = basis.T.rref()[1] if r else ()
    frame = sympy.Matrix.hstack(basis, *[sympy.eye(8)[:, k] for k in range(8) if k not in pivots])
    frame_inv = frame.inv()

    def induced(m):
        return (frame_inv * m * frame)[r:, r:]

    spectra, taus = [], []
    for i in (A0, A1):
        eigen = [(Q(int(val.p), int(val.q)), vecs)
                 for val, _, vecs in induced(ads[i]).eigenvects()]
        assert sum(len(vecs) for _, vecs in eigen) == 8 - r, "axis is not semisimple"
        spectra.append({val: len(vecs) for val, vecs in eigen})
        p = sympy.Matrix.hstack(*[v for _, vecs in eigen for v in vecs])
        signs = sympy.diag(*[-1 if grading.parity(val) else 1 for val, vecs in eigen
                             for _ in vecs])
        taus.append(p * signs * p.inv())
    shift = induced(matrix(tables["flip"]) * matrix(tables["tau0"]))
    return (r, 8 - r, spectra, sympy_order(sympy, taus[0] * taus[1]),
            sympy_order(sympy, shift))


def test_the_quotients_agree_with_an_independent_sympy_oracle(uni, report):
    sympy = pytest.importorskip("sympy")
    rules = frobenius_refine(virasoro_rules(4, 3))
    grading = next(g for g in find_z2_gradings(rules) if not g.trivial)
    syms, tables = sympy_tables(sympy, uni)
    rho_orders = []
    for p in report.points:
        radical, dim, spectra, rho, shift = sympy_quotient_invariants(
            sympy, syms, tables, p.lam, p.mu, grading)
        assert (radical, dim) == (p.ideal_dim, p.dim), p.name
        assert spectra == [{k: v for k, v in rep.spectrum.items() if v}
                           for rep in p.axis_reports], p.name
        assert (rho, shift) == (p.rho_order, p.shift_order), p.name
        rho_orders.append(rho)
    assert rho_orders == [1, 1, 1, 3, 3, 2, 2, 5, 3]


def test_quotient_forms_associate(uni, points):
    for pt in points.values():
        disc = discrepancy_quotient(uni, pt)
        check_symmetric(disc.quotient.table, disc.quotient.gram_table)
        assert verify_form(disc.quotient, {}).associative, pt.name


def test_axis_norms_in_quotients(uni, points):
    disc = discrepancy_quotient(uni, points[POINT_AT["2A"]])
    ax0 = linalg.matvec(disc.projection, e8(A0))
    assert disc.quotient.form(ax0, ax0) == 1


def test_seress_in_4a_quotient(uni, points):
    disc = discrepancy_quotient(uni, points[POINT_AT["4A"]])
    ax0 = linalg.matvec(disc.projection, e8(A0))
    assert associates_with_zero_eigenvectors(disc.quotient, ax0)


def test_3c_quotient_is_the_three_axis_algebra(uni, points):
    target = three_c()
    disc = discrepancy_quotient(uni, points[POINT_AT["3C"]])
    quot, proj = disc.quotient, disc.projection
    assert quot.dim == 3
    images = [linalg.matvec(proj, e8(A0)),   # -> a
              linalg.matvec(proj, e8(A1)),   # -> b
              linalg.matvec(proj, e8(AM1))]  # -> c
    basis_matrix = linalg.transpose(images)
    iso = fraction_inverse(basis_matrix)  # quotient coords -> 3C coords
    for i in range(3):
        for j in range(3):
            qi = [Q(1) if k == i else Q(0) for k in range(3)]
            qj = [Q(1) if k == j else Q(0) for k in range(3)]
            lhs = linalg.matvec(iso, quot.multiply(qi, qj))
            rhs = target.multiply(linalg.matvec(iso, qi), linalg.matvec(iso, qj))
            assert lhs == rhs
            assert quot.form(qi, qj) == target.form(linalg.matvec(iso, qi),
                                                    linalg.matvec(iso, qj))


# -- the classification race ----------------------------------------------


def test_classification_report(report):
    assert report.total_dim == TOTAL_DIM
    assert len(report.points) == len(POINT_TABLE)
    assert [p.name for p in report.points] == [r[0] for r in POINT_TABLE]
    assert [(p.lam, p.mu) for p in report.points] == [(r[1], r[2]) for r in POINT_TABLE]
    assert [p.ideal_dim for p in report.points] == [7, 6, 5, 5, 4, 3, 3, 2, 0]
    assert [p.dim for p in report.points] == [1, 2, 3, 3, 4, 5, 5, 6, 8]


def test_axis_reports_all_pass(report):
    for p in report.points:
        for rep in p.axis_reports:
            assert rep.passed
            assert rep.norm_ok


def test_shift_orders_match_names(report):
    assert [p.shift_order for p in report.points] == [1, 2, 2, 3, 3, 4, 4, 5, 6]


def test_miyamoto_product_orders(report):
    # on the quotient the rotation steps the axis orbit by two
    assert [p.rho_order for p in report.points] == [1, 1, 1, 3, 3, 2, 2, 5, 3]
    for p in report.points:
        assert p.rho_order == expected_miyamoto_product_order(int(p.name[0]))
        assert 2 * p.shift_order <= 12


def test_classify_refuses_symmetries_that_do_not_move_the_axes(uni):
    ident = [[MultiPoly.const(int(i == j)) for j in range(8)] for i in range(8)]
    for flip in (ident, uni.tau0):
        with pytest.raises(ConsistencyError,
                           match=r"^axis shift does not move a0 to a1 at \(0, 1\)$"):
            classify(uni._replace(flip=flip))
    # the shift is then the flip, of order 2, while the involutions still
    # multiply to the rotation of the orbit
    with pytest.raises(ConsistencyError,
                       match=r"^involution product order 3 does not match axis-shift order 2 "
                             r"at \(1/64, 1/64\)$"):
        classify(uni._replace(tau0=ident))


# The checks below hold at every certified point, so each test faults one
# helper of classify; the first point classify reaches is (0, 1), the 2B.


def test_classify_refuses_an_axis_that_fails_its_check(uni, monkeypatch):
    real = algebra_mod.check_axis
    monkeypatch.setattr(algebra_mod, "check_axis",
                        lambda *args: real(*args)._replace(fusion_ok=False))
    with pytest.raises(ConsistencyError, match=r"^axis verification failed at \(0, 1\)$"):
        classify(uni)


def test_an_error_raised_inside_certify_names_the_point(uni, monkeypatch):
    def broken(*args):
        raise ConsistencyError("the axis check broke")

    monkeypatch.setattr(algebra_mod, "check_axis", broken)
    with pytest.raises(ConsistencyError, match=r"^the axis check broke at \(0, 1\)$"):
        classify(uni)


def test_classify_refuses_a_form_that_fails_its_check(uni, monkeypatch):
    real = algebra_mod.verify_form
    monkeypatch.setattr(algebra_mod, "verify_form",
                        lambda *args: real(*args)._replace(associative=False))
    with pytest.raises(ConsistencyError, match=r"^form verification failed at \(0, 1\)$"):
        classify(uni)


@pytest.mark.parametrize("entry, message", [("gram", "form"), ("product", "axis")])
def test_a_fault_in_one_quotient_reaches_the_certificate(uni, monkeypatch, entry, message):
    # a real quotient with one integer entry changed, kept symmetric, not a
    # check's report edited after the fact: +1 on <s2e, s2o> keeps both
    # axes but breaks the form, +1 on the s2e coordinate of s2e s2o breaks
    # the axes
    real = sakuma.discrepancy_quotient

    def corrupted(uni, pt):
        disc = real(uni, pt)
        quot = disc.quotient
        if quot.labels != ["s2e", "s2o"]:
            return disc
        table = [[list(vec) for vec in row] for row in quot.table]
        gram = [list(row) for row in quot.gram_table]
        for i, j in ((0, 1), (1, 0)):
            if entry == "gram":
                gram[i][j] += 1
            else:
                table[i][j][0] += 1
        return disc._replace(quotient=StructureAlgebra.from_integers(
            quot.labels, table, quot.den, gram, quot.gram_den))

    monkeypatch.setattr(sakuma, "discrepancy_quotient", corrupted)
    with pytest.raises(ConsistencyError, match=rf"^{message} verification failed at \(0, 1\)$"):
        classify(uni)


@pytest.mark.parametrize("call, message", [(1, "involution product"), (2, "axis-shift")],
                         ids=["involution-product", "axis-shift"])
def test_classify_refuses_an_order_beyond_12(uni, monkeypatch, call, message):
    # classify asks matrix_order for the involution product, then the shift,
    # each up to 12; miyamoto asks it whether each involution squares to 1
    real, calls = linalg.matrix_order, []

    def order(m, bound, den=1):
        if bound == 12:
            calls.append(m)
            if len(calls) == call:
                return None
        return real(m, bound, den)

    monkeypatch.setattr(linalg, "matrix_order", order)
    with pytest.raises(ConsistencyError, match=rf"^{message} order exceeds 12 at \(0, 1\)$"):
        classify(uni)


@pytest.mark.parametrize("shift, message", [
    # every basis vector to a0: the ideal's vectors do not stay in it
    (lambda n: [[int(i == A0) for _ in range(n)] for i in range(n)],
     r"symmetry does not preserve the ideal at \(0, 1\)"),
    # twice the identity keeps the ideal, but doubles a product where an
    # automorphism would quadruple it; the 2B quotient has the basis s2e, s2o
    (lambda n: [[2 * (i == j) for j in range(n)] for i in range(n)],
     r"induced symmetry is not an automorphism at \(s2e, s2e\) at \(0, 1\)"),
], ids=["ideal", "automorphism"])
def test_classify_refuses_a_shift_that_is_no_symmetry_of_the_quotient(uni, monkeypatch,
                                                                       shift, message):
    # the shift is flip tau0 and the flip is an involution, so tau0 := flip X
    # makes the shift X
    real = sakuma.discrepancy_quotient

    def corrupted(uni, pt):
        disc = real(uni, pt)
        flip, d = disc.symmetries[1]
        tau0 = linalg.matmul(flip, shift(len(flip)))
        return disc._replace(symmetries=[(tau0, d), (flip, d)])

    monkeypatch.setattr(sakuma, "discrepancy_quotient", corrupted)
    with pytest.raises(ConsistencyError, match=f"^{message}$"):
        classify(uni)


def test_naming_rule_on_invented_invariants():
    assert norton_sakuma_name(1, 1) == "1A"
    assert norton_sakuma_name(2, 2) == "2B"
    assert norton_sakuma_name(2, 3) == "2A"
    assert norton_sakuma_name(3, 3) == "3C"
    assert norton_sakuma_name(3, 4) == "3A"
    assert norton_sakuma_name(5, 6) == "5A"
    assert norton_sakuma_name(6, 8) == "6A"
    # 4A and 4B share (4, 5); the subalgebra <<a0, a2>> tells them apart
    assert norton_sakuma_name(4, 5, "2B") == "4A"
    assert norton_sakuma_name(4, 5, "2A") == "4B"
    assert norton_sakuma_name(4, 5) is None
    assert norton_sakuma_name(4, 5, "3C") is None
    # the half name matters only for (4, 5)
    assert norton_sakuma_name(6, 8, "2B") == "6A"
    # invariants no Norton-Sakuma algebra has
    assert norton_sakuma_name(7, 9) is None
    assert norton_sakuma_name(2, 4) is None
    assert norton_sakuma_name(4, 6, "2B") is None


def test_unmatched_invariants_are_reported_unnamed(uni, monkeypatch):
    import axial.sakuma as sakuma

    # a rule set that knows no algebra of dimension 5: 4A and 4B come back
    # unnamed with their invariants, everything else keeps its name
    monkeypatch.setattr(sakuma, "_FOUR_BY_HALF", {})
    report = classify(uni)
    assert [p.name for p in report.points] == \
        [None if r[4] == 5 else r[0] for r in POINT_TABLE]
    unnamed = [p for p in report.points if p.name is None]
    assert [(p.shift_order, p.dim, p.lam, p.mu) for p in unnamed] == \
        [(4, 5, Q(1, 32), Q(0)), (4, 5, Q(1, 64), Q(1, 8))]
    assert all(p.to_json()["name"] is None for p in unnamed)
    assert "unnamed: lambda=1/32 mu=0 ideal_dim=3 dim=5" in report.summary()


def test_names_follow_the_sub_dihedral_algebra(report):
    # <<a0, a2>> of 4A sits at (mu, nu4) = (0, 1), the 2B point; of 4B at (1/8, 1), 2A
    by_name = {p.name: p for p in report.points}
    for four, two in (("4A", "2B"), ("4B", "2A")):
        p = by_name[four]
        assert (p.mu, p.gram_values["nu4"]) == POINT_AT[two]


def test_gram_signatures_distinct(report):
    sigs = [(p.gram_values["lambda"], p.gram_values["mu"]) for p in report.points]
    assert len(set(sigs)) == 9


def test_report_json_shape(report):
    data = report.to_json()
    assert data["passed"] is True
    assert len(data["points"]) == 9
    assert data["points"][0]["name"] == "1A"
    assert data["points"][8]["dim"] == 8


# -- re-derivations ---------------------------------------------------------


def test_rederive_products(uni):
    rep = rederive_products(uni)
    assert rep.passed, rep.summary()
    names = {d.name for d in rep.derivations}
    assert {"a0*s1", "a0*s2o", "s1*s1", "s1*s2e", "s2e*s2e",
            "norm(beta1)/4", "a0*gamma1"} <= names


def test_rederived_sigma_coefficient(uni):
    # the derived a0 * s1 has the paper's 7/32 sigma coefficient
    assert uni.product[A0][S1][S1] == MultiPoly.const(Q(7, 32))


def test_universal_json_loads_back(uni):
    data = uni.to_json()

    def parse(entry):
        return MultiPoly({tuple(map(int, k.split(","))): c for k, c in entry.items()})

    assert [[[parse(c) for c in vec] for vec in row] for row in data["product"]] == uni.product
    assert [[parse(c) for c in row] for row in data["gram"]] == uni.gram
    assert [[parse(c) for c in row] for row in data["tau0"]] == uni.tau0
    assert [[parse(c) for c in row] for row in data["flip"]] == uni.flip
    assert (data["dim"], data["labels"], data["marked"]) == (8, LABELS, [A0, A1])
    # a rational algebra it is not: the parser refuses the polynomial entries
    with pytest.raises(ShapeError, match="an entry is a polynomial"):
        StructureAlgebra.from_json(data)
