import json
from fractions import Fraction as Q
from math import gcd, lcm
from operator import mul
from pathlib import Path

import pytest

from axial import linalg
from axial.algebra import StructureAlgebra, bilinear, eigen_decompose
from axial.sakuma import build_universal, classify, solve_points

# The oracle: the Norton-Sakuma algebras in table order, each with its
# (lam, mu), the dimension of the symmetry-discrepancy ideal and of the
# quotient (the paper's table; Ivanov, Pasechnik, Seress and Shpectorov,
# J. Algebra 2010).  The program derives all of this; the tests compare.
POINT_TABLE = [
    ("1A", Q(1), Q(1), 7, 1),
    ("2B", Q(0), Q(1), 6, 2),
    ("2A", Q(1, 8), Q(1), 5, 3),
    ("3C", Q(1, 64), Q(1, 64), 5, 3),
    ("3A", Q(13, 256), Q(13, 256), 4, 4),
    ("4A", Q(1, 32), Q(0), 3, 5),
    ("4B", Q(1, 64), Q(1, 8), 3, 5),
    ("5A", Q(3, 128), Q(3, 128), 2, 6),
    ("6A", Q(5, 256), Q(13, 256), 0, 8),
]
TOTAL_DIM = 37

# (lam, mu) of each algebra, by name
POINT_AT = {name: (lam, mu) for name, lam, mu, _, _ in POINT_TABLE}

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def repo_argv(args: str) -> list[str]:
    """The axial arguments of a table row, with each path under fixtures/ or
    tests/ made absolute, so that the row runs from any directory."""
    return [str(ROOT / a) if a.startswith(("fixtures/", "tests/")) else a for a in args.split()]


def three_c():
    """The three-axis algebra of fixtures/3c.json, with xx = x and
    xy = (x + y - z)/64 for its generators; a fresh copy on each call."""
    return StructureAlgebra.from_json(json.loads((FIXTURES / "3c.json").read_text()))


def fraction_algebra(labels, product, gram, marked=()):
    """The algebra with Fraction or int tables, read as an algebra file is."""
    return StructureAlgebra.from_json({"labels": labels, "product": product, "gram": gram,
                                       "marked": list(marked)})


def fraction_inverse(m):
    """The inverse of an invertible rational matrix m = A / den as Fractions:
    den N / d, where N / d = A^-1 from linalg.integer_inverse."""
    rows, den = linalg.clear_matrix(m)
    nums, d = linalg.integer_inverse(rows)
    return [[Q(den * x, d) for x in row] for row in nums]


def associates_with_zero_eigenvectors(algebra, a) -> bool:
    """Whether a associates with its 0-eigenvectors: a(xz) = (ax)z for every
    basis vector x and every z in the kernel of ad(a) (Seress' condition)."""
    kernel = linalg.integer_kernel(algebra.ad_integer(a)[0])
    for i in range(algebra.dim):
        x = algebra.basis_vector(i)
        ax = algebra.multiply(a, x)
        for z in kernel:
            if algebra.multiply(a, algebra.multiply(x, z)) != algebra.multiply(ax, z):
                return False
    return True


# Row reduction as linalg.integer_rref wrote it before its loop was written
# out: the pivot found by next() over a generator, and a call that divides
# out the content per row operation.  The canonical rows and pivots must be
# the same.


def ref_integer_rref(rows):
    """(rows, pivots) of the reduced echelon form of an integer matrix, each
    row primitive with a positive pivot entry."""
    def primitive(row):
        g = gcd(*row)
        return [x // g for x in row] if g > 1 else row

    work = [primitive(row) for row in rows]
    n_rows = len(work)
    n_cols = len(work[0]) if n_rows else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        prow = work[r]
        p = prow[c]
        for i in range(n_rows):
            f = work[i][c]
            if i != r and f:
                g = gcd(p, f)
                a, b = p // g, f // g
                work[i] = primitive([a * x - b * y for x, y in zip(work[i], prow)])
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return [row if row[c] > 0 else [-x for x in row] for row, c in zip(work, pivots)], pivots


# ad(v) by the loop StructureAlgebra built it with before it kept the
# fibres of its tensor: one scaled table row added per nonzero coordinate.


def ref_ad_columns(algebra, nums):
    """The columns of den ad(v) for an integer vector v, den (v e_j) for each
    j, summed over the nonzero coordinates of v."""
    cols = [[0] * algebra.dim for _ in range(algebra.dim)]
    for x, row in zip(nums, algebra.table):
        if x:
            cols = [[c + x * t for c, t in zip(col, vec)] for col, vec in zip(cols, row)]
    return cols


# The fusion law by annihilator polynomials, the route check_axis took
# before its span test: V_f V_g lies in the sum of the V_h for h in f*g
# exactly when the product of the ad(a) - h kills every product of an f-
# and a g-eigenvector, since for distinct h the kernel of that product is
# the sum of the eigenspaces whether or not ad(a) is diagonalisable.


def ref_annihilator_coeffs(roots):
    """Coefficients, low to high, of the monic prod (t - r) over the roots."""
    coeffs = [Q(1)]
    for r in roots:
        coeffs = [h - r * c for c, h in zip(coeffs + [Q(0)], [Q(0)] + coeffs)]
    return coeffs


def ref_apply_ad_poly(algebra, coeffs, a, v):
    """f(ad(a)) v by Horner steps, one multiply each, for f with the given
    coefficients, low to high."""
    out = [Q(0)] * algebra.dim
    for c in reversed(list(coeffs)):
        out = algebra.multiply(a, out)
        out = [o + c * vi for o, vi in zip(out, v)]
    return out


def ref_violations(algebra, a, rules):
    """The field pairs (f, g), f before g in the field order, whose
    eigenspace products the annihilator of f*g does not kill."""
    spaces, _ = eigen_decompose(algebra.ad_integer(a), rules.fields)
    realized = [t for t, b in spaces.items() if b]
    out = []
    for i, f in enumerate(realized):
        for g in realized[i:]:
            coeffs = ref_annihilator_coeffs(sorted(rules.product(f, g)))
            if any(any(ref_apply_ad_poly(algebra, coeffs, a, algebra.multiply(u, v)))
                   for u in spaces[f] for v in spaces[g]):
                out.append((f, g))
    return out


# The form tensor by the per-term loop: one ring product and one ring sum,
# each normalised, per nonzero coordinate.  form_tensor sums each pairing
# with poly.dot instead; the two must agree entry by entry.


def ref_form_tensor(table, gram):
    """T[i][j][k] = <e_i e_j, e_k>, each pairing summed term by term."""
    n = len(gram)
    tensor = [[[None] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                vec = table[i][j]
                total = 0 * vec[0]
                for c, g in zip(vec, gram[k]):
                    if c:
                        total = total + c * g
                tensor[i][j][k] = total
    return tensor


# The automorphism defects by the dense loop automorphism_defects ran
# before it read each matrix by its nonzero columns: n row sums for the
# image of every pair and bilinear on the two dense columns.


def ref_automorphism_defects(algebra, mat, d):
    """[((i, j), d M T_ij - (M e_i)(M e_j))] over the pairs i <= j where
    it is nonzero, for the integer tensor T of a rational algebra."""
    table = algebra.table
    cols = linalg.transpose(mat)
    out = []
    for i in range(algebra.dim):
        for j in range(i, algebra.dim):
            image = [d * sum(map(mul, row, table[i][j])) for row in mat]
            diff = linalg.sub_vec(image, bilinear(table, cols[i], cols[j], algebra.labels))
            if any(diff):
                out.append(((i, j), diff))
    return out


# The ideal closure by full rounds, the route ideal_closure took before it
# went semi-naive: every round multiplies and maps every basis row and
# reduces the old rows with all their images, until the rank stops growing.


def ref_ideal_closure(algebra, gens, maps=()):
    """The canonical basis of the smallest subspace containing gens and
    stable under multiplication and each matrix in maps, by full rounds."""
    maps = [linalg.clear_matrix(m)[0] for m in maps]
    basis, _ = linalg.integer_rref([linalg.clear_denominators(v)[0] for v in gens])
    while True:
        extended = list(basis)
        for v in basis:
            extended.extend(algebra._ad_columns(v))
            extended.extend([sum(map(mul, row, v)) for row in m] for m in maps)
        new_basis, _ = linalg.integer_rref(extended)
        if len(new_basis) == len(basis):
            return new_basis
        basis = new_basis


def ref_evaluate(f, lam, mu):
    """The value of a MultiPoly at a rational point, summed over its terms."""
    return sum((c * Q(lam)**i * Q(mu)**j for (i, j), c in f.terms.items()), Q(0))


# The rational roots without the sieve at x = 1 and x = -1, and without the
# package's factorisation: every rational-root-theorem candidate p/q, p a
# divisor of the lowest and q of the highest coefficient of the integer
# multiple of f, both from sympy, is tested exactly by ref_evaluate.


def ref_rational_roots(f):
    """Every rational root of a nonzero univariate f, no candidate skipped."""
    sympy = pytest.importorskip("sympy")
    axis = 0 if f.degree("lam") > 0 else 1
    coeffs = {e[axis]: c for e, c in f.terms.items()}  # exponent -> Fraction
    if max(coeffs) == 0:
        return set()
    scale = lcm(*(c.denominator for c in coeffs.values()))
    low, high = (int(coeffs[k] * scale) for k in (min(coeffs), max(coeffs)))
    roots = {Q(0)} if min(coeffs) > 0 else set()
    for p in sympy.divisors(low):
        for q in sympy.divisors(high):
            roots.update(r for r in (Q(p, q), Q(-p, q)) if ref_evaluate(f, r, r) == 0)
    return roots


# The dimension of Q[lam, mu]/(polys) from sympy's Groebner basis: the
# standard monomials, those no leading monomial divides, are a basis of the
# quotient ring.  common_zeros reads the dimension off a resultant's degree
# instead, so this is the independent count the certificate is held to.


def ref_quotient_dimension(polys):
    """dim_Q Q[lam, mu]/(polys) for polys generating a zero-dimensional
    ideal, by the standard monomials of sympy's grevlex Groebner basis."""
    sympy = pytest.importorskip("sympy")
    lam, mu = sympy.symbols("lam mu")
    exprs = [sympy.Add(*(sympy.Rational(c.numerator, c.denominator) * lam**i * mu**j
                         for (i, j), c in f.terms.items())) for f in polys]
    basis = sympy.groebner(exprs, lam, mu, order="grevlex")
    leads = [sympy.Poly(g, lam, mu).monoms(order="grevlex")[0] for g in basis.exprs]
    n_lam = min((i for i, j in leads if j == 0), default=None)
    n_mu = min((j for i, j in leads if i == 0), default=None)
    if n_lam is None or n_mu is None:
        raise ValueError("the ideal is not zero-dimensional")
    return sum(1 for i in range(n_lam) for j in range(n_mu)
               if not any(a <= i and b <= j for a, b in leads))


@pytest.fixture(scope="session")
def uni():
    return build_universal()


@pytest.fixture(scope="session")
def points(uni):
    return {(pt.lam, pt.mu): pt for pt in solve_points(uni)}


@pytest.fixture(scope="session")
def report(uni):
    return classify(uni)
