"""The universal two-generated Frobenius axial algebra for the Ising
fusion rules V(4, 3), and its classification.

The algebra is an 8-dimensional module over Q[lam, mu] spanned by five
consecutive axes a_{-2} .. a_2 of the dihedral orbit and three invariant
elements sigma_1, sigma_2^e, sigma_2^o (an axis pair at distance d gives
the invariant  sigma = xy - beta (x + y)).  Here lam = <a_0, a_1>,
mu = <a_0, a_2>, and alpha = 1/4, beta = 1/32 are the eigenvalues of an
axis besides 1 and 0, read from the refined V(4, 3) (ising_law).
UniversalAlgebra holds it as two MultiPoly tables, product tensor and Gram
matrix, derived as the paper constructs them: from the axis products and
form values at distance <= 2, the eigenvectors of a_0, which derive from
(alpha, beta), and the fusion rules.  Everything outside the window is
reached through the symmetries

    tau0:  a_i -> a_{-i}, sigmas fixed,
    flip:  a_i -> a_{1-i}, sigma_2^e <-> sigma_2^o,

with the out-of-window axis a_3 expanded over the basis by requiring
sigma_1 * sigma_1 to be flip-symmetric.  The two associativity
polynomials p1, p2 cut out the admissible (lam, mu).  Their common zeros
are found by resultants in both variable orders and certified complete:
dim_Q Q[lam, mu]/(p1, p2) counts every complex zero with multiplicity, so
it must equal the number of distinct rational zeros found.  That dimension
is the degree of the resultant in each order where one relation has a
constant leading coefficient in the eliminated variable.  Evaluating at
a zero leaves a rational StructureAlgebra on which tau0 and the flip need
not be automorphisms.  Their failures m(xy) - m(x) m(y) generate an ideal,
closed under multiplication and under both symmetries (each is its own
inverse, so no longer words are needed), and certified to be the radical
of the form; the quotients by these ideals are the Norton-Sakuma algebras,
named from the invariants computed on them.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache, partial

from . import linalg
from .algebra import (ConsistencyError, StructureAlgebra, automorphism_defects,
                      bilinear, certify, check_symmetric, defect, form, form_defects,
                      ideal_closure, miyamoto, pair, quotient)
from .fusion import find_z2_gradings, frobenius_refine, virasoro_rules
from .linalg import add_vec, scale_vec, sub_vec
from .poly import (LAM, MU, ONE, ZERO, MultiPoly, _fibre, _integer_grid, _univariate,
                   evaluate_all, leading_term, rational_roots, resultant)

Q = Fraction

LABELS = ["a-2", "a-1", "a0", "a1", "a2", "s1", "s2e", "s2o"]
AM2, AM1, A0, A1, A2, S1, S2E, S2O = range(8)

# unordered pair of axes whose product defines each invariant element
SIGMA_PAIRS = {S1: (A0, A1), S2E: (A0, A2), S2O: (AM1, A1)}
# the axis pairs at distance 1 and 2, with the invariant element of each product
WINDOW = [(AM2, AM1, S1), (AM1, A0, S1), (A0, A1, S1), (A1, A2, S1),
          (AM2, A0, S2E), (A0, A2, S2E), (AM1, A1, S2O)]

# the two symmetries on basis indices; FLIP omits a_{-2}, whose image a_3 is off the basis
TAU0 = {AM2: A2, AM1: A1, A0: A0, A1: AM1, A2: AM2, S1: S1, S2E: S2E, S2O: S2O}
FLIP = {AM1: A2, A0: A1, A1: A0, A2: AM1, S1: S1, S2E: S2O, S2O: S2E}


class EvalPoint(namedtuple("EvalPoint", "lam mu")):
    __slots__ = ()

    @property
    def name(self) -> str:
        """The coordinate label, such as "(1/64, 1/8)"."""
        return f"({self.lam}, {self.mu})"

    def to_json(self) -> dict:
        return {"lambda": str(self.lam), "mu": str(self.mu)}


def _vec(entries: dict) -> list[MultiPoly]:
    out = [ZERO] * 8
    for idx, val in entries.items():
        out[idx] = val if isinstance(val, MultiPoly) else MultiPoly.const(val)
    return out


class UniversalAlgebra(namedtuple("UniversalAlgebra", "product gram tau0 flip a3 a4")):
    """The algebra over Q[lam, mu] on the basis LABELS, a_0 and a_1 marked:
    product tensor and Gram matrix as MultiPoly tables, and both symmetries.
    a3 is the expansion of the axis a_3 over the basis, a4 that of
    a_4 = flip(tau0(a_3))."""

    __slots__ = ()

    def to_json(self) -> dict:
        def rows(m):
            return [[c.to_json() for c in row] for row in m]

        return {"dim": len(LABELS), "labels": list(LABELS), "marked": [A0, A1],
                "product": [rows(row) for row in self.product], "gram": rows(self.gram),
                "tau0": rows(self.tau0), "flip": rows(self.flip)}


Law = namedtuple("Law", "rules grading alpha beta")


@cache
def ising_law() -> Law:
    """The Frobenius-refined V(4, 3), built once per process, with its
    non-trivial Z/2-grading, alpha the even field other than 0 and 1, and
    beta the odd field: the two eigenvalues of an axis besides 1 and 0."""
    rules = frobenius_refine(virasoro_rules(4, 3))
    grading = next(g for g in find_z2_gradings(rules) if not g.trivial)
    (alpha,) = grading.even - {0, 1}
    (beta,) = grading.odd
    return Law(rules, grading, alpha, beta)


def axis_eigenvectors() -> dict:
    """Projections of a_1 (resp. a_2) onto the eigenspaces of a_0, derived
    from (alpha, beta) of ising_law: the paper's alpha1, beta1 and gamma1 are
    the 0-, alpha- and beta-parts of a_1, alpha2 and beta2 those of a_2.

    At distance d, with nu = <a_0, a_d>: tau0 negates only the beta-part,
    so it is (a_d - a_{-d})/2, and the window product a_0 a_d = sigma +
    beta (a_0 + a_d) = nu a_0 + alpha x_alpha + beta x_beta gives x_alpha.
    """
    law = ising_law()
    a, b = 1 / law.alpha, law.beta
    out = {"gamma1": _vec({A1: Q(1, 2), AM1: Q(-1, 2)})}
    for d, nu, sig in ((1, LAM, S1), (2, MU, S2E)):
        # x_alpha = (sigma + (beta - nu) a_0 + beta (a_d + a_{-d})/2) / alpha
        out[f"beta{d}"] = _vec({sig: a, A0: (b - nu) * a, A0 + d: a * b / 2, A0 - d: a * b / 2})
        # x_0 = (a_d + a_{-d})/2 - nu a_0 - x_alpha
        out[f"alpha{d}"] = _vec({sig: -a, A0: (a - 1) * nu - a * b,
                                 A0 + d: (1 - a * b) / 2, A0 - d: (1 - a * b) / 2})
    return out


def _solve_a3(sigma1_sq):
    """Expand a_3 over the basis from the flip-symmetry of sigma_1^2.

    The flip takes a_{-2} to a_3 and the rest of the basis into itself, so
    flip(sigma_1^2) = sigma_1^2 reads c a_3 + flip(rest) = sigma_1^2, with c
    the a_{-2} coefficient of sigma_1^2; the matrix of FLIP, which omits
    a_{-2}, maps sigma_1^2 to flip(rest).
    """
    lead = sigma1_sq[AM2]
    if not lead.is_constant() or not lead:
        raise ConsistencyError("cannot solve for a_3: degenerate flip symmetry")
    image = linalg.matvec(_permutation_matrix(FLIP), sigma1_sq)
    return scale_vec(1 / lead.constant_value(), sub_vec(sigma1_sq, image))


def _permutation_matrix(perm):
    m = [[ZERO] * 8 for _ in range(8)]
    for j, i in perm.items():
        m[i][j] = ONE
    return m


def _basis(i):
    return _vec({i: ONE})


def _put(table, i, j, v):
    table[i][j] = table[j][i] = v


def _seed():
    """(prod, gram): the product and Gram tables holding only the facts the
    build starts from, a_i a_i = a_i, the window products and <a_i, a_j> =
    1, lam, mu at distance 0, 1, 2.  None marks every entry still to derive."""
    prod = [[None] * 8 for _ in range(8)]
    gram = [[None] * 8 for _ in range(8)]
    s = ising_law().beta
    for i in range(5):
        _put(prod, i, i, _basis(i))
        _put(gram, i, i, ONE)
    for i, j, sig in WINDOW:
        _put(prod, i, j, _vec({sig: 1, i: s, j: s}))
        _put(gram, i, j, LAM if sig == S1 else MU)
    return prod, gram


def build_universal() -> UniversalAlgebra:
    """Derive all 36 products and the full Gram matrix from the axioms.

    The build starts from _seed and the eigenvectors of a_0
    (axis_eigenvectors) and reaches every other entry through the fusion
    rules and the Frobenius property, in an order in which each step reads
    only entries reached before it: bilinear and pair raise
    ConsistencyError on any other.  Entries outside the window are
    transported by tau0 and the flip, with a_3 and a_4 expanded over the
    basis.  Every value reachable by a second route is recomputed and
    compared, both symmetry matrices are verified to be involutions and
    tau0 to preserve the form.
    """
    prod, g = _seed()
    x0, x_alpha, y0, y_alpha = map(axis_eigenvectors().get, ("alpha1", "beta1", "alpha2", "beta2"))
    alpha = ising_law().alpha
    e = _basis
    tau0 = _permutation_matrix(TAU0)
    flip = _permutation_matrix(FLIP)  # its a_{-2} column waits for a_3
    mult = partial(bilinear, prod, labels=LABELS)

    def split(x, y, p, q):
        """(c, r) with x y = c e_p e_q + r, where e_p e_q is the one product
        not yet known and c must be a nonzero constant to solve for it."""
        c = x[p] * y[q]
        if not c.is_constant() or not c:
            raise ConsistencyError(f"the coefficient of {LABELS[p]}*{LABELS[q]} is {c}, "
                                   "not a nonzero constant")
        ux = [ZERO if k == p else v for k, v in enumerate(x)]
        uy = [ZERO if k == q else v for k, v in enumerate(y)]
        return c.constant_value(), add_vec(mult(_vec({p: x[p]}), uy), mult(ux, y))

    def solve(x, y, p, q, rhs):
        """e_p e_q from x y = rhs."""
        c, r = split(x, y, p, q)
        return scale_vec(1 / c, sub_vec(rhs, r))

    def resurrected(x, y0, y_alpha, p, q):
        """e_p e_q from x y0 in the 0-space and x y_alpha in the alpha-space
        of a_0, for x in its 0-space (0*0 = {0}, 0*alpha = {alpha}): if they
        are e_p e_q + b_0 and + b_alpha, e_p e_q = a_0 (b_alpha - b_0) / alpha - b_alpha."""
        (c_alpha, r_alpha), (c0, r0) = split(x, y_alpha, p, q), split(x, y0, p, q)
        b_alpha = scale_vec(1 / c_alpha, r_alpha)
        image = mult(e(A0), sub_vec(b_alpha, scale_vec(1 / c0, r0)))
        return sub_vec(scale_vec(1 / alpha, image), b_alpha)

    t = linalg.matvec
    zero = _vec({})
    # a_0 annihilates its 0-space: a_0 x0 = 0 isolates a_0 sigma
    _put(prod, A0, S1, solve(e(A0), x0, A0, S1, zero))
    _put(prod, A0, S2E, solve(e(A0), y0, A0, S2E, zero))
    # a0 s1 lies in the span of a_0, a_{+-1} and s1, where the flip needs no a_3
    _put(prod, A1, S1, t(flip, prod[A0][S1]))
    _put(prod, AM1, S1, t(tau0, prod[A1][S1]))
    _axis_sigma_form(prod, g)

    # fusion puts x0^2 - x_alpha^2 + <x_alpha^2, a0> a0 in the 0-space of a_0,
    # with <x_alpha^2, a0> = <x_alpha, a0 x_alpha> = alpha norm(x_alpha); s1*s1
    # cancels from the difference, which leaves a_0 s2o
    (c0, r0), (c_alpha, r_alpha) = split(x0, x0, S1, S1), split(x_alpha, x_alpha, S1, S1)
    if c0 != c_alpha:
        raise ConsistencyError("s1*s1 does not cancel from the odd-sigma relation")
    eq = add_vec(sub_vec(r0, r_alpha), scale_vec(alpha * form(g, x_alpha, x_alpha, LABELS), e(A0)))
    _put(prod, A0, S2O, solve(e(A0), eq, A0, S2O, zero))

    # partial associativity (a_0 a_1) x0 = a_0 (a_1 x0) isolates s1*s1
    _put(prod, S1, S1, solve(prod[A0][A1], x0, S1, S1, mult(e(A0), mult(e(A1), x0))))

    a3 = _solve_a3(prod[S1][S1])
    for i in range(8):
        flip[i][AM2] = a3[i]
    a4 = t(flip, t(tau0, a3))

    # axis pairs at distance 3 and 4
    _put(prod, AM2, A1, t(flip, mult(e(A0), a3)))
    _put(prod, AM1, A2, t(tau0, prod[AM2][A1]))
    _put(prod, AM2, A2, t(flip, t(tau0, t(flip, mult(e(A0), a4)))))

    # transport the sigma products along the axis orbit
    _put(prod, A2, S1, t(flip, prod[AM1][S1]))
    _put(prod, AM2, S1, t(tau0, prod[A2][S1]))
    _put(prod, A1, S2E, t(flip, prod[A0][S2O]))
    _put(prod, AM1, S2E, t(tau0, prod[A1][S2E]))
    _put(prod, A2, S2O, t(flip, prod[AM1][S2E]))
    _put(prod, AM2, S2O, t(tau0, prod[A2][S2O]))
    _put(prod, A1, S2O, t(flip, prod[A0][S2E]))
    _put(prod, AM1, S2O, t(tau0, prod[A1][S2O]))
    _put(prod, A2, S2E, t(flip, prod[AM1][S2O]))
    _put(prod, AM2, S2E, t(tau0, prod[A2][S2E]))

    _put(prod, S1, S2E, resurrected(x0, y0, y_alpha, S1, S2E))
    _put(prod, S2E, S2E, resurrected(y0, y0, y_alpha, S2E, S2E))

    # products of the invariant elements
    _put(prod, S1, S2O, t(flip, prod[S1][S2E]))
    _put(prod, S2O, S2O, t(flip, prod[S2E][S2E]))
    # a_3 s2e is the flip of a_{-2} s2o, and the product of the a_3 expansion
    # with s2e holds s2e*s2o
    _put(prod, S2E, S2O, solve(a3, e(S2E), S2O, S2E, t(flip, prod[AM2][S2O])))

    gram = _complete_gram(prod, g, a3, a4)
    check_symmetric(prod, gram)
    uni = UniversalAlgebra(prod, gram, tau0, flip, a3, a4)
    _verify_symmetries(uni)
    return uni


def _verify_symmetries(uni: UniversalAlgebra):
    if linalg.matrix_order(uni.tau0, 2) is None:
        raise ConsistencyError("tau0 is not an involution")
    if linalg.matrix_order(uni.flip, 2) is None:
        raise ConsistencyError("the flip is not an involution")
    if linalg.matmul(linalg.matmul(linalg.transpose(uni.tau0), uni.gram), uni.tau0) != uni.gram:
        raise ConsistencyError("tau0 does not preserve the form")


def _sigma_form(prod, g, p, q, w):
    """<a_p a_q - beta (a_p + a_q), e_w>, associated as <a_p, a_q e_w>."""
    s = ising_law().beta
    return pair(g[p], prod[q][w], LABELS, p) - pair(g[w], _vec({p: s, q: s}), LABELS, w)


def _reassociated(prod, g, k, sig):
    """<a_k, sig> as <a_q, a_p a_k>, with a_p the factor of sig nearer a_k, so
    that a_p a_k is a window product."""
    p, q = SIGMA_PAIRS[sig]
    if abs(k - q) < abs(k - p):
        p, q = q, p
    return _sigma_form(prod, g, q, p, k)


def _axis_sigma_form(prod, g):
    """The form between the axes and the sigmas, and <s1, s1>.

    On a window pair, <a_p, sigma_pq> = <a_q, a_p a_p> - beta (<a_q, a_p> + 1)
    by idempotence.  An axis in two window pairs of one sigma reaches its
    value from both, and the two must agree.  <a0, s2o> and <a1, s2e>
    re-associate across one window product and are carried to the other
    axes of their parity, which _complete_gram's loop checks.  <s1, s1> is
    <a0, a1 s1> - ..., and the route through <a1, a0 s1> must agree.
    """
    for p, q, sig in WINDOW:
        for k, other in ((p, q), (q, p)):
            value = _sigma_form(prod, g, other, k, k)
            if g[k][sig] is None:
                _put(g, k, sig, value)
            elif g[k][sig] != value:
                raise ConsistencyError(f"two routes disagree for <{LABELS[k]}, {LABELS[sig]}>")
    for k, sig, parity in ((A0, S2O, (AM2, A0, A2)), (A1, S2E, (AM1, A1))):
        value = _reassociated(prod, g, k, sig)
        for j in parity:
            _put(g, j, sig, value)
    s1_s1 = _sigma_form(prod, g, A0, A1, S1)
    if _sigma_form(prod, g, A1, A0, S1) != s1_s1:
        raise ConsistencyError("two routes disagree for <s1, s1>")
    _put(g, S1, S1, s1_s1)


def _complete_gram(prod, g, a3, a4):
    """The form values beyond _axis_sigma_form, filled into g, which is
    returned.

    nu3 = <a0, a3> and nu4 = <a0, a4> come through the expansions and are
    checked as <a3, a1> = mu and <a4, a1> = nu3; the sigma-sigma entries
    come by expanding the left factor as an axis product and associating.
    Every axis-sigma entry is then recomputed by re-associating across a
    window product; disagreement aborts.
    """
    nu3 = pair(g[A0], a3, LABELS, A0)
    _put(g, AM2, A1, nu3)
    _put(g, AM1, A2, nu3)
    _put(g, AM2, A2, pair(g[A0], a4, LABELS, A0))
    if pair(g[A1], a3, LABELS, A1) != MU:
        raise ConsistencyError("two routes disagree for <a0, a3>")
    if pair(g[A1], a4, LABELS, A1) != nu3:
        raise ConsistencyError("two routes disagree for <a0, a4>")

    for x, y in ((S1, S2E), (S1, S2O), (S2E, S2E), (S2E, S2O), (S2O, S2O)):
        _put(g, x, y, _sigma_form(prod, g, *SIGMA_PAIRS[x], y))

    # re-associating only across window products: beyond distance 2 the
    # form genuinely fails to associate; those failures are the generating
    # relations
    for k in range(5):
        for sig in (S1, S2E, S2O):
            if _reassociated(prod, g, k, sig) != g[k][sig]:
                raise ConsistencyError(
                    f"two routes disagree for <{LABELS[k]}, {LABELS[sig]}>")
    return g


# -- associativity polynomials and their common zeros -------------------------


def associativity_defects(uni: UniversalAlgebra):
    """All nonzero values of <xy, z> - <x, yz> over ordered basis triples."""
    return form_defects(uni.product, uni.gram)


def associativity_polynomials(uni: UniversalAlgebra):
    """The two generating relations, normalized to leading coefficient 1:
    p1 from the triple (a_{-1}, a_{-2}, a_1) and p2 from
    (a_{-2}, a_{-2}, a_1).  The raw defects are rational multiples of
    these; scaling does not move the zero locus."""
    prod, gram = uni.product, uni.gram
    return _monic(defect(prod, gram, AM1, AM2, A1)), _monic(defect(prod, gram, AM2, AM2, A1))


def _monic(f: MultiPoly) -> MultiPoly:
    if not f:
        return f
    _, lc = leading_term(f)
    return f * (1 / lc)


def _constant_lead(f: MultiPoly, var: str) -> bool:
    """Whether f's leading coefficient in var, the last row of its grid, is
    a nonzero constant."""
    return not any(_integer_grid(f, var)[0][-1][1:])


def common_zeros(p1: MultiPoly, p2: MultiPoly) -> list[EvalPoint]:
    """Every common zero of p1 and p2 over the complex numbers, all of them
    rational and simple, in (lam, mu) order.

    Elimination goes through the resultant in each variable.  Each of its
    rational roots r is lifted through the integer fibre over r of p1, or
    of p2 where p1's vanishes; each candidate is verified exactly, and the
    two elimination orders must agree.  Completeness is certified by the
    finiteness theorem: dim_Q Q[lam, mu]/(p1, p2) counts the complex zeros
    with multiplicity, so it must equal the number of rational zeros found,
    or an irrational or repeated zero exists and ConsistencyError names
    both numbers.

    If p1 or p2, say f, has a constant leading coefficient in y, of degree
    m, Q[x, y]/(f) is a free Q[x]-module on 1, ..., y^(m-1).  Multiplication
    by the other relation g on it has determinant c Res_y(f, g), c a nonzero
    constant (the norm of g), and Q[x, y]/(f, g) is its cokernel: by the
    Smith normal form over Q[x], of Q-dimension deg Res_y(f, g), which is
    nonzero as a shared factor is refused.  Every order that qualifies is
    checked; if none does, ConsistencyError.
    """

    def rational_zeros(eliminate, kept):
        res = resultant(p1, p2, eliminate)
        if not res:
            raise ConsistencyError(f"resultant eliminating {eliminate} vanishes identically; "
                                   "shared factor")
        grids = [_integer_grid(p, eliminate)[0] for p in (p1, p2)]
        zeros = set()
        for r in sorted(rational_roots(res)):
            f1, f2 = (_fibre(grid, *r.as_integer_ratio()) for grid in grids)
            if not any(f1) and not any(f2):
                raise ConsistencyError("both relations vanish on a whole line")
            for s in rational_roots(_univariate(f1 if any(f1) else f2, eliminate)):
                lam_v, mu_v = (r, s) if kept == "lam" else (s, r)
                if not any(evaluate_all([p1, p2], lam_v, mu_v)[0]):
                    zeros.add(EvalPoint(lam_v, mu_v))
        return res, zeros

    res_mu, via_mu = rational_zeros("mu", "lam")
    res_lam, via_lam = rational_zeros("lam", "mu")
    if via_mu != via_lam:
        only = [", ".join(pt.name for pt in sorted(a - b)) or "nothing"
                for a, b in ((via_mu, via_lam), (via_lam, via_mu))]
        raise ConsistencyError(f"the two elimination orders disagree: only eliminating mu "
                               f"finds {only[0]}, only eliminating lam finds {only[1]}")
    degrees = [res.degree() for var, res in (("mu", res_mu), ("lam", res_lam))
               if _constant_lead(p1, var) or _constant_lead(p2, var)]
    if not degrees:
        raise ConsistencyError("neither relation has a constant leading coefficient in lam "
                               "or mu, so no resultant degree certifies the zeros")
    for count in degrees:
        if count != len(via_mu):
            raise ConsistencyError(f"Q[lam, mu]/(p1, p2) has dimension {count}, "
                                   f"but {len(via_mu)} rational common zeros were found")
    return sorted(via_mu)


def solve_points(uni: UniversalAlgebra) -> list[EvalPoint]:
    """The certified common zeros of the two associativity polynomials."""
    return common_zeros(*associativity_polynomials(uni))


# -- evaluation and quotients --------------------------------------------------


def _eval_matrix(m, pt):
    """(rows, den): the matrix of polynomials evaluated at pt, as integer
    rows over one denominator."""
    nums, den = evaluate_all([x for row in m for x in row], pt.lam, pt.mu)
    return linalg.split_rows(nums, len(m)), den


def evaluate_point(uni: UniversalAlgebra, pt: EvalPoint) -> StructureAlgebra:
    """Substitute (lam, mu) into every structure constant and form value,
    straight into the integer tables of the evaluated algebra.  Each list
    object is evaluated once (_put shares one between (i, j) and (j, i)),
    so from_integers still compares any two that are not shared."""
    distinct = {id(vec): vec for row in uni.product for vec in row}
    rows, den = _eval_matrix(list(distinct.values()), pt)
    value = dict(zip(distinct, rows))
    table = [[value[id(vec)] for vec in row] for row in uni.product]
    return StructureAlgebra.from_integers(LABELS, table, den, *_eval_matrix(uni.gram, pt),
                                          marked=[A0, A1])


class Discrepancy(namedtuple("Discrepancy",
                             "point evaluated ideal quotient projection symmetries")):
    """The evaluated algebra at a point, its discrepancy ideal as the
    canonical integer basis ideal_closure returns, the quotient, the projection
    onto it, and symmetries: the evaluated tau0 and flip as (M, d) for M / d."""

    __slots__ = ()

    @property
    def ideal_dim(self) -> int:
        return len(self.ideal)


def discrepancy_quotient(uni: UniversalAlgebra, pt: EvalPoint) -> Discrepancy:
    """Quotient the evaluated algebra by the failures of the symmetries.

    Generators are t(x y) - t(x) t(y) for basis pairs and t in {tau0, flip},
    each its own inverse.  Their span is closed under multiplication and
    under both symmetries, which gives the smallest ideal containing them
    that the whole symmetry group preserves; modulo it every word in tau0
    and the flip is an automorphism.  The quotient is formed; quotient
    checks that the ideal is one and that the form vanishes on it, and a
    failure of either names the point.

    The ideal is certified a second way.  Every axis has <a, a> = 1, so the
    radical of the form is the largest ideal containing no axis (Khasraw,
    McInroy and Shpectorov, "On the structure of axial algebras", 2020); the
    ideal must equal it, and the form on the quotient must be positive
    definite by Sylvester's criterion.
    """
    alg = evaluate_point(uni, pt)
    symmetries = [_eval_matrix(uni.tau0, pt), _eval_matrix(uni.flip, pt)]
    gens = [diff for m, d in symmetries for _, diff in automorphism_defects(alg, m, d)]
    ideal = ideal_closure(alg, gens, [m for m, _ in symmetries])
    try:
        quot, proj = quotient(alg, ideal)
    except ConsistencyError as err:
        raise ConsistencyError(f"{err} at {pt.name}") from None
    radical = linalg.integer_kernel(alg.gram_table)
    if radical != ideal:
        raise ConsistencyError(f"the radical of the form has dimension {len(radical)} "
                               f"but the ideal {len(ideal)} at {pt.name}")
    # gram_den > 0, so the integer minors have the signs of the rational ones
    gram = quot.gram_table
    if any(linalg.integer_det([row[:k] for row in gram[:k]]) <= 0 for k in range(1, quot.dim + 1)):
        raise ConsistencyError(f"the form on the quotient is not positive definite at {pt.name}")
    return Discrepancy(pt, alg, ideal, quot, proj, symmetries)


# -- the classification --------------------------------------------------------


def expected_miyamoto_product_order(numeral: int) -> int:
    """Order of the product of the two Miyamoto involutions on the quotient.

    The rotation a_i -> a_{i+2} walks the axis orbit in steps of two, so on
    an orbit of size n it has order n for odd n and n/2 for even n; since
    the axes generate, that is the order on the whole algebra.
    """
    return numeral if numeral % 2 else numeral // 2


# The letter of each Norton-Sakuma algebra by (shift order, quotient
# dimension).  4A and 4B share (4, 5); there the letter follows the name of
# the subalgebra generated by a_0 and a_2, 2B for 4A and 2A for 4B.
_LETTERS = {(1, 1): "A", (2, 2): "B", (2, 3): "A", (3, 3): "C", (3, 4): "A",
            (5, 6): "A", (6, 8): "A"}
_FOUR_BY_HALF = {"2B": "A", "2A": "B"}


def norton_sakuma_name(shift_order: int, dim: int, half: str | None = None) -> str | None:
    """The Norton-Sakuma name for these invariants, or None if none fits.

    The numeral is the order of the axis shift a_i -> a_{i+1}; the letter
    comes from the quotient dimension and, for numeral 4, from `half`, the
    name of the dihedral subalgebra <<a_0, a_2>> (Ivanov, Pasechnik, Seress
    and Shpectorov, "Majorana representations of the symmetric group of
    degree 4", J. Algebra 2010, the table of the Norton-Sakuma algebras).
    """
    if (shift_order, dim) == (4, 5):
        letter = _FOUR_BY_HALF.get(half)
    else:
        letter = _LETTERS.get((shift_order, dim))
    return None if letter is None else f"{shift_order}{letter}"


class PointReport(namedtuple("PointReport", "lam mu ideal_dim dim axis_reports rho_order "
                                           "shift_order gram_values name")):
    """rho_order is the order of tau0 * tau1 on the quotient, shift_order
    that of the axis shift a_i -> a_{i+1}; name is None when no naming rule
    fits the invariants."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "lambda": str(self.lam),
            "mu": str(self.mu),
            "ideal_dim": self.ideal_dim,
            "dim": self.dim,
            "axes": [r.to_json() for r in self.axis_reports],
            "rho_order": self.rho_order,
            "shift_order": self.shift_order,
            "gram": {k: str(v) for k, v in self.gram_values.items()},
            "passed": True,
        }


class ClassificationReport(namedtuple("ClassificationReport", "points total_dim")):
    """What classify certified.  classify returns a report only when every
    check passed, so its verdicts are constants; the points have distinct
    signatures (lam, mu), as solve_points returns each point once."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "points": [p.to_json() for p in self.points],
            "total_dim": self.total_dim,
            "signatures_distinct": True,
            "passed": True,
        }

    def summary(self) -> str:
        lines = [f"{p.name or 'unnamed'}: lambda={p.lam} mu={p.mu} ideal_dim={p.ideal_dim} "
                 f"dim={p.dim} rho_order={p.rho_order} shift_order={p.shift_order} [ok]"
                 for p in self.points]
        lines.append(f"total dimension: {self.total_dim}")
        lines.append("PASS")
        return "\n".join(lines)


def classify(uni: UniversalAlgebra) -> ClassificationReport:
    """Evaluate, certify and name the quotient of uni at every certified point.

    uni is the universal algebra as build_universal returns it.  Each
    point's quotient is taken once, by the ideal closed under multiplication
    and the two symmetries (see discrepancy_quotient).  Each quotient must
    pass certify on the two generators, axes and form; the axis shift must
    move a_0 to a_1; and the product of the two Miyamoto involutions must
    have the order the shift's orbit determines.  Any failure raises
    ConsistencyError naming the point, so a returned report passed every
    check.  The reports come sorted by (shift order, dimension, mu) and are
    named by norton_sakuma_name.
    """
    rules, grading = ising_law()[:2]

    reports = []
    for pt in solve_points(uni):
        disc = discrepancy_quotient(uni, pt)
        quot = disc.quotient
        ax0, ax1 = ([row[i] for row in disc.projection] for i in (A0, A1))
        # discrepancy_quotient names the point itself; every check after it
        # is named here, once
        try:
            cert = certify(quot, {LABELS[A0]: ax0, LABELS[A1]: ax1}, rules)
            rep0, rep1 = cert.axes.values()
            if not (rep0.passed and rep1.passed):
                raise ConsistencyError("axis verification failed")
            if not cert.form.passed:
                raise ConsistencyError("form verification failed")
            tau_a, da = miyamoto(quot, rep0, grading)
            tau_b, db = miyamoto(quot, rep1, grading)
            order = linalg.matrix_order(linalg.matmul(tau_a, tau_b), 12, da * db)
            if order is None:
                raise ConsistencyError("involution product order exceeds 12")

            # the rotation of the axis orbit: a_i -> a_{i+1}
            (tau0, d0), (flip, d1) = disc.symmetries
            proj, scale = linalg.clear_matrix(disc.projection)
            shift, d = _project_symmetry(disc, proj, scale, linalg.matmul(flip, tau0), d0 * d1)
            shift_order = linalg.matrix_order(shift, 12, d)
            if shift_order is None:
                raise ConsistencyError("axis-shift order exceeds 12")
            if linalg.matvec(shift, [row[A0] for row in proj]) != [d * row[A1] for row in proj]:
                raise ConsistencyError("axis shift does not move a0 to a1")
            if order != expected_miyamoto_product_order(shift_order):
                raise ConsistencyError(f"involution product order {order} does not match "
                                       f"axis-shift order {shift_order}")
        except ConsistencyError as err:
            raise ConsistencyError(f"{err} at {pt.name}") from None

        g, gd = disc.evaluated.gram_table, disc.evaluated.gram_den
        gram_values = {"lambda": Q(g[A0][A1], gd), "mu": Q(g[A0][A2], gd),
                       "nu3": Q(g[AM2][A1], gd), "nu4": Q(g[AM2][A2], gd)}
        reports.append(PointReport(pt.lam, pt.mu, disc.ideal_dim, quot.dim, [rep0, rep1],
                                   order, shift_order, gram_values, None))
    reports.sort(key=lambda p: (p.shift_order, p.dim, p.mu))
    names = {}
    for k, p in enumerate(reports):
        # <<a_0, a_2>> is the algebra at (<a_0, a_2>, <a_0, a_4>); for even
        # numerals its shift order is half of p's, so it is named already
        half = names.get((p.mu, p.gram_values["nu4"]))
        name = names[(p.lam, p.mu)] = norton_sakuma_name(p.shift_order, p.dim, half)
        reports[k] = p._replace(name=name)
    return ClassificationReport(reports, sum(p.dim for p in reports))


def _project_symmetry(disc, proj, scale, m, d):
    """Induce the evaluated symmetry m / d, m an integer matrix, on the
    quotient, as (S, den) with S / den the induced matrix in lowest terms;
    proj / scale is disc's projection, proj an integer matrix.

    The matrix must preserve the discrepancy ideal and act as an algebra
    automorphism downstairs; both are verified on the integers.
    """
    quot = disc.quotient
    moved = linalg.matmul(proj, m)
    if any(any(row) for row in linalg.matmul(moved, linalg.transpose(disc.ideal))):
        raise ConsistencyError("symmetry does not preserve the ideal")
    # lifting quotient coordinates to the surviving basis vectors picks columns
    comp = [LABELS.index(lbl) for lbl in quot.labels]
    induced, den = linalg.lowest_terms([[row[c] for c in comp] for row in moved], scale * d)
    failures = automorphism_defects(quot, induced, den)
    if failures:
        (i, j), _ = failures[0]
        raise ConsistencyError("induced symmetry is not an automorphism "
                               f"at ({quot.labels[i]}, {quot.labels[j]})")
    return induced, den


# -- the paper's closed formulas, compared with the derived table ---------------


Derivation = namedtuple("Derivation", "name ok detail")


class RederiveReport(namedtuple("RederiveReport", "derivations")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(d.ok for d in self.derivations)

    def summary(self) -> str:
        lines = [f"{d.name}: {'ok' if d.ok else 'MISMATCH ' + d.detail}"
                 for d in self.derivations]
        lines.append("PASS" if self.passed else "FAIL")
        return "\n".join(lines)


def _diff_description(got, want):
    if not isinstance(want, list):
        return str(got - want)
    return "; ".join(f"{LABELS[i]}: {x - y}" for i, (x, y) in enumerate(zip(got, want)) if x != y)


def _paper_formulas() -> dict:
    """The paper's closed formulas for the hard products and for a quarter of
    beta1's norm, by the names rederive_products reports.

    They are the second route of that comparison and nothing else reads
    them: build_universal derives every entry instead.
    """
    lam, mu = LAM, MU
    lam2 = lam * lam
    lam3, lam4 = lam2 * lam, lam2 * lam2
    return {
        "a0*s1": _vec({
            S1: Q(7, 32),
            A0: Q(3, 4) * lam - Q(25, 2**10),
            AM1: Q(7, 2**11), A1: Q(7, 2**11),
        }),
        "norm(beta1)/4": MultiPoly() - lam2 + lam + Q(1, 64) * (mu - 1),
        "a0*s2o": scale_vec(Q(-1, 3), _vec({
            S1: -32 * lam + Q(19, 16),
            S2E: Q(-7, 32),
            A0: 32 * lam2 - 5 * lam + Q(1, 8) * mu + Q(127, 2**10),
            A1: Q(-1, 2) * lam + Q(19, 2**10),
            AM1: Q(-1, 2) * lam + Q(19, 2**10),
            A2: Q(-7, 2**11), AM2: Q(-7, 2**11),
        })),
        "s1*s1": add_vec(
            scale_vec(Q(1, 3), _vec({
                S1: Q(-5, 4) * lam - Q(13, 2**9),
                S2E: Q(-7, 2**9),
                S2O: Q(21, 2**11),
            })),
            scale_vec(Q(7, 3), _vec({
                A0: Q(1, 2) * lam2 - Q(1, 2**7) * lam + Q(1, 2**9) * mu - Q(1, 2**15),
                A1: Q(7, 2**8) * lam - Q(35, 2**16),
                AM1: Q(7, 2**8) * lam - Q(35, 2**16),
                A2: Q(7, 2**16), AM2: Q(7, 2**16),
            }))),
        "s1*s2e": add_vec(
            scale_vec(Q(1, 3), _vec({
                A0: 2**8 * lam3 - Q(27, 2) * lam2 + lam * mu + Q(17, 2**7) * lam
                    - Q(19, 2**9) * mu + Q(19, 2**15),
                A1: 14 * lam2 - Q(203, 2**8) * lam + Q(665, 2**16),
                AM1: 14 * lam2 - Q(203, 2**8) * lam + Q(665, 2**16),
                A2: Q(7, 2**7) * lam - Q(133, 2**16),
                AM2: Q(7, 2**7) * lam - Q(133, 2**16),
                S1: -(2**4) * 19 * lam2 + Q(41, 2) * lam + Q(51, 16) * mu - Q(197, 2**9),
                S2E: Q(-17, 8) * lam + Q(11, 2**8),
            })),
            _vec({S2O: Q(-7, 8) * lam + Q(49, 2**11)})),
        "s2e*s2e": _vec({
            A0: 2**19 * 5 * lam4 - Q(2**7 * 6407, 3) * lam3 - 2**7 * 85 * lam2 * mu
                + Q(20303, 2) * lam2 + Q(2329, 6) * lam * mu + Q(3, 2) * mu * mu
                - Q(61409, 2**7 * 3) * lam - Q(5315, 2**9 * 3) * mu + Q(89069, 2**15 * 3),
            A1: 2**9 * 7 * lam3 - Q(791, 3) * lam2 + Q(2317, 2**7 * 3) * lam - Q(8645, 2**16 * 3),
            AM1: 2**9 * 7 * lam3 - Q(791, 3) * lam2 + Q(2317, 2**7 * 3) * lam - Q(8645, 2**16 * 3),
            A2: -49 * lam2 + Q(343, 2**6 * 3) * lam + Q(21, 2**8) * mu - Q(3563, 2**16 * 3),
            AM2: -49 * lam2 + Q(343, 2**6 * 3) * lam + Q(21, 2**8) * mu - Q(3563, 2**16 * 3),
            S1: -(2**20) * 3 * lam4 + 2**14 * 45 * lam3 - 2**12 * 3 * lam2 * mu
                - Q(2**4 * 7523, 3) * lam2 + 2**6 * 7 * lam * mu + Q(4819, 6) * lam
                - Q(65, 16) * mu - Q(65, 12),
            S2E: -(2**14) * 3 * lam3 - 2**4 * 99 * lam2 - 2**6 * 3 * lam * mu
                + Q(2837, 24) * lam + Q(47, 16) * mu - Q(4079, 2**10 * 3),
            S2O: -(2**5) * 21 * lam2 + Q(49, 2) * lam - Q(455, 2**11),
        }),
    }


def rederive_products(uni: UniversalAlgebra) -> RederiveReport:
    """Compare the derived products and beta1's norm with the paper's closed
    formulas (_paper_formulas), and check that a_0 gamma1 = gamma1 / 32.

    build_universal reaches these entries by derivation from the fusion
    rules and the form, so each line compares two independent routes.
    Every mismatch is reported with the differing coordinates.
    """
    prod = uni.product
    ev = axis_eigenvectors()
    gamma1 = ev["gamma1"]
    built = {"a0*s1": prod[A0][S1],
             "norm(beta1)/4": Q(1, 4) * form(uni.gram, ev["beta1"], ev["beta1"], LABELS),
             "a0*s2o": prod[A0][S2O], "s1*s1": prod[S1][S1],
             "s1*s2e": prod[S1][S2E], "s2e*s2e": prod[S2E][S2E],
             "a0*gamma1": bilinear(prod, _basis(A0), gamma1, LABELS)}
    expected = {**_paper_formulas(), "a0*gamma1": scale_vec(Q(1, 32), gamma1)}
    results = []
    for name, want in expected.items():
        got = built[name]
        ok = got == want
        results.append(Derivation(name, ok, "" if ok else _diff_description(got, want)))
    return RederiveReport(results)
