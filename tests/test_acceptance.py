"""Acceptance suite: one test per criterion, every comparison exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

from fractions import Fraction as Q

from axial import linalg
from axial.algebra import bilinear, certify, miyamoto
from axial.fusion import find_z2_gradings, frobenius_refine, virasoro_rules
from axial.poly import MU, MultiPoly, resultant
from axial.sakuma import (A0, A1, AM1, LABELS, associativity_polynomials,
                          axis_eigenvectors, discrepancy_quotient,
                          rederive_products, solve_points)

from conftest import (POINT_AT, POINT_TABLE, TOTAL_DIM, fraction_inverse, ref_quotient_dimension,
                      three_c)
from test_fusion import V43_TABLE, V53_TABLE
from test_sakuma import (EXPECTED_A_S1, EXPECTED_EVEN_2, EXPECTED_NU3, EXPECTED_NU4,
                         EXPECTED_ODD_2, EXPECTED_P1, EXPECTED_P2, EXPECTED_S1_S1, e8)


def ok(msg):
    print(f"PASS: {msg}")


def test_criterion_1_fusion_tables():
    v43 = virasoro_rules(4, 3)
    assert v43.central_charge == Q(1, 2)
    for (f, g), want in V43_TABLE.items():
        assert v43.product(f, g) == want
        assert v43.product(g, f) == want
    odd43 = [g for g in find_z2_gradings(v43) if not g.trivial]
    assert len(odd43) == 1 and odd43[0].odd == frozenset({Q(1, 32)})

    v53 = virasoro_rules(5, 3)
    assert v53.central_charge == Q(-3, 5)
    for (f, g), want in V53_TABLE.items():
        assert v53.product(f, g) == want
        assert v53.product(g, f) == want
    odd53 = [g for g in find_z2_gradings(v53) if not g.trivial]
    assert len(odd53) == 1 and odd53[0].odd == frozenset({Q(-1, 40), Q(3, 8)})
    ok("criterion 1: V(4,3) and V(5,3) tables, charges and gradings, exact")


def test_criterion_2_three_axis_fixture():
    alg = three_c()
    rules = frobenius_refine(virasoro_rules(4, 3))
    grading = next(g for g in find_z2_gradings(rules) if not g.trivial)
    cert = certify(alg, {alg.labels[i]: alg.basis_vector(i) for i in range(3)}, rules)
    reports = list(cert.axes.values())
    for report in reports:
        assert report.passed
        assert report.spectrum[Q(1, 4)] == 0
    assert cert.passed and cert.form.assoc_failures == []
    tau, d = miyamoto(alg, reports[0], grading)  # the involution is tau / d
    b, c = alg.basis_vector(1), alg.basis_vector(2)
    assert linalg.matvec(tau, b) == linalg.scale_vec(d, c)
    assert linalg.matvec(tau, c) == linalg.scale_vec(d, b)
    ok("criterion 2: three-axis fixture verifies, quarter field empty, involution swaps")


def test_criterion_3_symbolic_table(uni):
    prod = uni.product
    for i in range(8):
        for j in range(8):
            assert prod[i][j] is not None
    ev = axis_eigenvectors()
    a0 = [MultiPoly.const(1 if k == A0 else 0) for k in range(8)]
    zero = [MultiPoly()] * 8

    def scaled(c, v):
        return [MultiPoly.const(c) * x for x in v]

    def mult(x, y):
        return bilinear(prod, x, y, LABELS)

    assert mult(a0, ev["alpha1"]) == zero
    assert mult(a0, ev["beta1"]) == scaled(Q(1, 4), ev["beta1"])
    assert mult(a0, ev["gamma1"]) == scaled(Q(1, 32), ev["gamma1"])
    assert mult(a0, ev["alpha2"]) == zero
    assert mult(a0, ev["beta2"]) == scaled(Q(1, 4), ev["beta2"])
    ok("criterion 3: all 36 products built; eigenvector identities exact in Q[lam,mu]")


def test_criterion_4_rederivation(uni):
    report = rederive_products(uni)
    assert report.passed, report.summary()
    names = {d.name: d.ok for d in report.derivations}
    for required in ("a0*s1", "a0*s2o", "s1*s1", "s1*s2e", "s2e*s2e"):
        assert names[required]
    ok("criterion 4: products re-derived coefficient-for-coefficient")


def test_criterion_5_polynomials(uni):
    p1, p2 = associativity_polynomials(uni)
    assert p1 == EXPECTED_P1 and len(p1.terms) == 9
    assert p2 == EXPECTED_P2 and len(p2.terms) == 12
    assert p1.coefficient(4, 0) == 1
    assert p1.coefficient(3, 0) == Q(-71, 2**6)
    assert p1.coefficient(0, 0) == Q(39, 2**21)
    assert p2.coefficient(5, 0) == 1
    assert p2.coefficient(0, 0) == Q(117, 2**29)
    ok("criterion 5: p1 (9 monomials) and p2 (12 monomials) exact")


def test_criterion_6_variety(uni):
    pts = solve_points(uni)
    assert [(p.lam, p.mu) for p in pts] == sorted(POINT_AT.values())
    p1, p2 = associativity_polynomials(uni)
    for pt in pts:
        assert p1.evaluate(pt.lam, pt.mu) == 0
        assert p2.evaluate(pt.lam, pt.mu) == 0
    # the certificate: each resultant's degree is dim_Q Q[lam, mu]/(p1, p2)
    assert ref_quotient_dimension([p1, p2]) == 9
    assert [resultant(p1, p2, var).degree() for var in ("mu", "lam")] == [9, 9]
    ok("criterion 6: exactly the nine points; quotient ring dimension 9")


def test_criterion_7_classification(report):
    assert [(p.name, p.lam, p.mu) for p in report.points] == \
        [(n, lam, mu) for n, lam, mu, _, _ in POINT_TABLE]
    assert [p.ideal_dim for p in report.points] == [7, 6, 5, 5, 4, 3, 3, 2, 0]
    assert [p.dim for p in report.points] == [1, 2, 3, 3, 4, 5, 5, 6, 8]
    for p in report.points:
        for axis_report in p.axis_reports:
            assert axis_report.passed
            assert axis_report.norm_ok  # <a, a> = 1 = 2 CC
    assert report.total_dim == TOTAL_DIM
    ok("criterion 7: names 1A, 2B, 2A, 3C, 3A, 4A, 4B, 5A, 6A; ideal dims (7,6,5,5,4,3,3,2,0), quotient dims (1,2,3,3,4,5,5,6,8), "
       "all 18 axis checks, total 37")


def test_criterion_8_dihedral_orders(report):
    # The axis-shift rotation realises the numeral of each name; the product
    # of the two Miyamoto involutions steps the orbit by two, so its order
    # (the matrix-power oracle) is the numeral for odd names and half of it
    # for even ones.  Both are certified; dihedral size stays within 12.
    assert [p.shift_order for p in report.points] == [1, 2, 2, 3, 3, 4, 4, 5, 6]
    assert [p.rho_order for p in report.points] == [1, 1, 1, 3, 3, 2, 2, 5, 3]
    for p in report.points:
        assert 2 * p.shift_order <= 12
    ok("criterion 8: axis-shift orders (1,2,2,3,3,4,4,5,6); "
       "Miyamoto product orders (1,1,1,3,3,2,2,5,3); dihedral size <= 12")


def test_criterion_9_three_c_identification(uni, points):
    target = three_c()
    disc = discrepancy_quotient(uni, points[POINT_AT["3C"]])
    quot, proj = disc.quotient, disc.projection
    images = [linalg.matvec(proj, e8(A0)), linalg.matvec(proj, e8(A1)),
              linalg.matvec(proj, e8(AM1))]
    iso = fraction_inverse(linalg.transpose(images))
    for i in range(3):
        for j in range(3):
            qi = [Q(1) if k == i else Q(0) for k in range(3)]
            qj = [Q(1) if k == j else Q(0) for k in range(3)]
            assert linalg.matvec(iso, quot.multiply(qi, qj)) == \
                target.multiply(linalg.matvec(iso, qi), linalg.matvec(iso, qj))
            assert quot.form(qi, qj) == \
                target.form(linalg.matvec(iso, qi), linalg.matvec(iso, qj))
    ok("criterion 9: the quotient at (1/64, 1/64) is the three-axis fixture "
       "under a0 -> a, a1 -> b")


def test_criterion_10_gram_recomputations(uni):
    from axial.sakuma import A2, AM2, S1, S2E, S2O

    g = uni.gram
    for k in range(5):
        assert g[k][S1] == EXPECTED_A_S1
    assert g[S1][S1] == EXPECTED_S1_S1
    assert g[A0][S2E] == EXPECTED_EVEN_2
    assert g[A0][S2O] == EXPECTED_ODD_2
    assert g[AM1][A1] == MU
    assert g[AM2][A1] == EXPECTED_NU3
    assert g[AM2][A2] == EXPECTED_NU4
    ok("criterion 10: <a_k, s1> constant in k; printed form values reproduced exactly")
