"""Finite-dimensional commutative algebras given by structure constants.

An algebra carries a symmetric product tensor, a symmetric bilinear form
(the Frobenius form), and a list of marked generator indices.  Entries
are either Fraction (evaluated algebras) or MultiPoly (the symbolic
algebra over Q[lam, mu]); only the eigenspace machinery requires the
rational case.  A rational algebra also keeps its product tensor and Gram
matrix as integers over one common denominator each, and runs the kernel
below on those.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from . import linalg
from .fusion import FusionRules, Grading
from .poly import MultiPoly, _literal


class ConsistencyError(Exception):
    """An internal cross-check failed; the model is wrong, not the input."""


class ShapeError(ValueError):
    """The input does not describe an algebra: a tensor or vector of the wrong
    shape, a product that is not commutative, a Gram matrix that is not
    symmetric, a marked index out of range, a missing table or an entry that
    is not a rational literal."""


# -- the product, form and defect kernel ---------------------------------------
#
# Every bilinear product, form pairing and associativity defect in the
# package goes through these functions.  They work on bare tables, so
# the symbolic build can use them while its tables are still filling in, and
# they are generic over the ring: Fraction, MultiPoly or int entries.


def bilinear(table, x, y, labels):
    """x y by bilinear extension of a product table.

    Entries may be Fraction, MultiPoly or int.  A table that is still being
    filled holds None for the products not yet known; needing one raises
    ConsistencyError naming the pair by its basis labels.
    """
    out = [0 * xi for xi in x]
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = table[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            entry = row[j]
            if entry is None:
                raise ConsistencyError(f"product ({labels[i]}, {labels[j]}) not yet available")
            c = xi * yj
            out = [o + c * e for o, e in zip(out, entry)]
    return out


def pair(row, v):
    """<e_k, v> from row k of the Gram matrix: the contraction sum_r v_r row[r]."""
    total = 0 * row[0]
    for c, g in zip(v, row):
        if c:
            total = total + c * g
    return total


def defect(table, gram, i, j, k):
    """<e_i e_j, e_k> - <e_i, e_j e_k>, zero when the form associates."""
    return pair(gram[k], table[i][j]) - pair(gram[i], table[j][k])


def form_tensor(table, gram):
    """T[i][j][k] = <e_i e_j, e_k>, so that defect(table, gram, i, j, k) is
    T[i][j][k] - T[j][k][i].

    The product is commutative, so each row T[i][j] is computed once for
    i <= j and shared with T[j][i]: n^2 (n + 1) / 2 pairings instead of the
    2 n^3 a scan of every defect makes.
    """
    n = len(gram)
    tensor = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            tensor[i][j] = tensor[j][i] = [pair(gram[k], table[i][j]) for k in range(n)]
    return tensor


class StructureAlgebra:
    """Commutative algebra with product tensor, Gram matrix and marked axes."""

    def __init__(self, labels, product, gram, marked=()):
        self.dim = len(labels)
        self.labels = list(labels)
        self.product = product
        self.gram = gram
        self.marked = list(marked)
        if any(not isinstance(m, int) or not 0 <= m < self.dim for m in self.marked):
            raise ShapeError(f"marked indices {self.marked} are not all in 0..{self.dim - 1}")
        if (len(product) != self.dim or any(len(row) != self.dim for row in product)
                or any(len(vec) != self.dim for row in product for vec in row)):
            raise ShapeError("product tensor has the wrong shape")
        if len(gram) != self.dim or any(len(row) != self.dim for row in gram):
            raise ShapeError("gram matrix has the wrong shape")
        for i in range(self.dim):
            for j in range(i):
                if product[i][j] != product[j][i]:
                    raise ShapeError(f"product is not commutative at ({i}, {j})")
                if gram[i][j] != gram[j][i]:
                    raise ShapeError(f"gram matrix is not symmetric at ({i}, {j})")
        self._integer = _integer_tables(product, gram)

    def basis_vector(self, i: int):
        zero, one = self._zero_one()
        return [one if j == i else zero for j in range(self.dim)]

    def _zero_one(self):
        sample = self.gram[0][0]
        if isinstance(sample, MultiPoly):
            return MultiPoly(), MultiPoly.const(1)
        return Fraction(0), Fraction(1)

    def multiply(self, x, y):
        """Bilinear extension of the structure constants."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ShapeError("vector length does not match the algebra dimension")
        if self._integer is None:
            return bilinear(self.product, x, y, self.labels)
        table, den, _, _ = self._integer
        (x, dx), (y, dy) = linalg.clear_denominators(x), linalg.clear_denominators(y)
        den *= dx * dy
        return [Fraction(c, den) for c in bilinear(table, x, y, self.labels)]

    def ad_matrix(self, a):
        """Matrix of left multiplication by a, acting on column vectors, in a
        rational algebra."""
        ad, den = self.ad_integer(a)
        return [[Fraction(x, den) for x in row] for row in ad]

    def ad_integer(self, a):
        """(A, den) with ad(a) = A / den for an integer matrix A, built in one
        pass over the integer product tensor of a rational algebra: column j
        of A is sum_i a_i e_i e_j with a cleared to integers."""
        table, den, _, _ = self._integer
        nums, da = linalg.clear_denominators(a)
        cols = [[0] * self.dim for _ in range(self.dim)]
        for x, row in zip(nums, table):
            if x:
                cols = [[c + x * t for c, t in zip(col, vec)] for col, vec in zip(cols, row)]
        return linalg.transpose(cols), den * da

    def form(self, x, y):
        """Value of the bilinear form on two coordinate vectors."""
        if self._integer is None:
            total, _ = self._zero_one()
            for xi, row in zip(x, self.gram):
                if xi:
                    total = total + xi * pair(row, y)
            return total
        _, _, gram, den = self._integer
        (x, dx), (y, dy) = linalg.clear_denominators(x), linalg.clear_denominators(y)
        return Fraction(sum(xi * pair(row, y) for xi, row in zip(x, gram) if xi), den * dx * dy)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        def entry(e):
            return e.to_json() if isinstance(e, MultiPoly) else str(e)

        return {
            "dim": self.dim,
            "labels": self.labels,
            "product": [[[entry(c) for c in vec] for vec in row] for row in self.product],
            "gram": [[entry(c) for c in row] for row in self.gram],
            "marked": self.marked,
        }

    @staticmethod
    def from_json(data: dict) -> "StructureAlgebra":
        """Parse an algebra; input that does not describe one raises ShapeError."""
        if not isinstance(data, dict):
            raise ShapeError("an algebra is a JSON object with labels, product and gram")
        missing = [key for key in ("labels", "product", "gram") if key not in data]
        if missing:
            raise ShapeError(f"missing {', '.join(missing)}")
        marked = data.get("marked", [])
        if not isinstance(data["labels"], list) or not isinstance(marked, list):
            raise ShapeError("labels and marked must be lists")

        def entry(e):
            try:
                return MultiPoly.from_json(e) if isinstance(e, dict) else _literal(e)
            except (TypeError, ValueError, ZeroDivisionError):
                raise ShapeError(f"entry {e!r} is not a rational literal") from None

        try:
            product = [[[entry(c) for c in vec] for vec in row] for row in data["product"]]
            gram = [[entry(c) for c in row] for row in data["gram"]]
        except TypeError:
            raise ShapeError("product and gram must be nested lists") from None
        return StructureAlgebra(data["labels"], product, gram, marked)


def _integer_tables(product, gram):
    """(product, den_p, gram, den_g) with every entry an integer over its
    table's common denominator, or None unless the tables are rational."""
    flat = [c for row in product for vec in row for c in vec]
    flat_gram = [c for row in gram for c in row]
    if not linalg.is_rational([flat, flat_gram]):
        return None
    n = len(gram)
    nums, den_p = linalg.clear_denominators(flat)
    table = [[nums[(i * n + j) * n:(i * n + j + 1) * n] for j in range(n)] for i in range(n)]
    return (table, den_p, *linalg.clear_matrix(gram))


def three_c() -> StructureAlgebra:
    """The three-axis algebra with xx = x and xy = (x + y - z)/64.

    Its three generators are axes for the Ising fusion rules with the
    quarter eigenvalue unrealised; the form has <x, x> = 1, <x, y> = 1/64.
    """
    one, s = Fraction(1), Fraction(1, 64)
    product = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            if i == j:
                vec = [one if k == i else Fraction(0) for k in range(3)]
            else:
                vec = [s if k in (i, j) else -s for k in range(3)]
            product[i][j] = vec
    gram = [[one if i == j else s for j in range(3)] for i in range(3)]
    return StructureAlgebra(["a", "b", "c"], product, gram, marked=[0, 1, 2])


# -- polynomials in the adjoint ---------------------------------------------


def apply_ad_poly(algebra: StructureAlgebra, coeffs, a, v):
    """Evaluate f(ad(a)) v for a rational algebra; coeffs are low-to-high."""
    nums, dv = linalg.clear_denominators(v)
    out, den = _ad_poly_numerators(algebra.ad_integer(a), coeffs, nums)
    return [Fraction(x, den * dv) for x in out]


def _ad_poly_numerators(ad, coeffs, w):
    """(out, den) with f(A / d) w = out / den, by integer Horner steps.

    ad = (A, d) as from ad_integer, w is an integer vector and coeffs are
    the rational coefficients of f, low to high.  With those cleared to
    c_k / e and K the degree, e d^K f(A / d) = sum c_k d^(K-k) A^k.
    """
    mat, d = ad
    nums, e = linalg.clear_denominators(list(coeffs))
    out = [0] * len(w)
    for step, c in enumerate(reversed(nums)):
        c *= d ** step
        out = [sum(map(mul, row, out)) + c * x for row, x in zip(mat, w)]
    return out, e * d ** max(len(nums) - 1, 0)


def annihilator_coeffs(roots) -> list[Fraction]:
    """Coefficients (low to high) of prod (t - r) over the given roots."""
    coeffs = [Fraction(1)]
    for r in roots:
        r = Fraction(r)
        coeffs = [Fraction(0)] + coeffs
        coeffs = [c - r * h for c, h in zip(coeffs, coeffs[1:] + [Fraction(0)])]
    return coeffs


# -- eigenspaces and the axis predicates -------------------------------------


def eigen_decompose(algebra: StructureAlgebra, a, candidates):
    """Kernel of ad(a) - theta for each candidate theta.

    Returns (spaces, semisimple): spaces maps each candidate to its
    echelonized eigenspace basis, and semisimple records whether the
    dimensions add up to the whole algebra.
    """
    return _eigenspaces(algebra.ad_integer(a), candidates)


def _eigenspaces(ad, candidates):
    """eigen_decompose for ad(a) = A / d given as (A, d): the kernel of
    ad(a) - p/q is that of the integer matrix q A - p d."""
    mat, d = ad
    spaces = {}
    total = 0
    for theta in candidates:
        theta = Fraction(theta)
        p, q = theta.numerator * d, theta.denominator
        shifted = [[q * x - (p if i == j else 0) for j, x in enumerate(row)]
                   for i, row in enumerate(mat)]
        _, _, kernel = linalg.rref_and_kernel(shifted)
        basis = linalg.echelon_span(kernel)
        spaces[theta] = basis
        total += len(basis)
    return spaces, total == len(mat)


@dataclass
class AxisReport:
    """Outcome of the axis conditions for one idempotent candidate."""

    idempotent: bool
    norm_ok: bool
    spectrum: dict
    semisimple: bool
    primitive: bool
    fusion_ok: bool
    violations: list = field(default_factory=list)
    # the eigenspace bases behind `spectrum`, by candidate; miyamoto can take
    # them instead of decomposing again.  Not serialised.
    spaces: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def passed(self) -> bool:
        return (self.idempotent and self.norm_ok and self.semisimple
                and self.primitive and self.fusion_ok)

    def to_json(self) -> dict:
        return {
            "idempotent": self.idempotent,
            "norm_ok": self.norm_ok,
            "spectrum": {str(k): v for k, v in sorted(self.spectrum.items(), reverse=True)},
            "semisimple": self.semisimple,
            "primitive": self.primitive,
            "fusion_ok": self.fusion_ok,
            "violations": [[str(f), str(g)] for f, g in self.violations],
            "passed": self.passed,
        }


def check_axis(algebra: StructureAlgebra, a, rules: FusionRules) -> AxisReport:
    """Test the axis conditions for `a` against the given fusion rules.

    Checks: aa = a; <a, a> = 2 * central charge; the candidate spectrum
    (the field set) exhausts the algebra; a spans its own 1-eigenspace;
    and each eigenspace product lands in the prescribed eigenspace sum,
    tested with annihilator polynomials in ad(a).  Unrealised fields are
    recorded with dimension 0 and skipped in the product scan.
    """
    idempotent = algebra.multiply(a, a) == list(a)
    norm_ok = algebra.form(a, a) == 2 * rules.central_charge
    ad = algebra.ad_integer(a)
    spaces, semisimple = _eigenspaces(ad, rules.fields)
    spectrum = {theta: len(basis) for theta, basis in spaces.items()}
    one_space = spaces.get(Fraction(1), [])
    primitive = len(one_space) == 1 and linalg.in_span(one_space, a) and not linalg.is_zero_vec(a)

    # eigenvectors cleared to integers once; u v is then tested up to scale
    table = algebra._integer[0]
    cleared = {theta: [linalg.clear_denominators(u)[0] for u in basis]
               for theta, basis in spaces.items()}
    violations = []
    realized = [theta for theta, basis in spaces.items() if basis]
    for i, f in enumerate(realized):
        for g in realized[i:]:
            coeffs = annihilator_coeffs(sorted(rules.product(f, g)))
            if any(any(_ad_poly_numerators(ad, coeffs, bilinear(table, u, v, algebra.labels))[0])
                   for u in cleared[f] for v in cleared[g]):
                violations.append((f, g))
    return AxisReport(idempotent, norm_ok, spectrum, semisimple,
                      primitive, not violations, violations, spaces)


def miyamoto(algebra: StructureAlgebra, a, grading: Grading, rules: FusionRules,
             spaces=None):
    """Matrix of the involution fixing the even eigenspaces of `a` and
    negating the odd ones.

    spaces, when given, are the eigenspaces of `a` for rules.fields as
    eigen_decompose returns them (check_axis keeps them on its report);
    otherwise they are computed.  Raises ConsistencyError if the
    eigenspaces do not span, or if the result fails to be an involutive
    automorphism preserving the form.
    """
    if spaces is None:
        spaces, _ = eigen_decompose(algebra, a, rules.fields)
    if sum(len(basis) for basis in spaces.values()) != algebra.dim:
        raise ConsistencyError("eigenspaces of the axis do not span the algebra")
    columns = []
    signs = []
    for theta, basis in spaces.items():
        for v in basis:
            columns.append(v)
            signs.append(Fraction(-1) if grading.parity(theta) else Fraction(1))
    p = linalg.transpose(columns)
    d = [[signs[i] if i == j else Fraction(0) for j in range(len(signs))]
         for i in range(len(signs))]
    tau = linalg.matmul(linalg.matmul(p, d), linalg.inverse(p))

    if linalg.matmul(tau, tau) != linalg.identity(algebra.dim):
        raise ConsistencyError("the involution does not square to the identity")
    gram = algebra.gram
    if linalg.matmul(linalg.matmul(linalg.transpose(tau), gram), tau) != gram:
        raise ConsistencyError("the involution does not preserve the form")
    failures = automorphism_failures(algebra, tau)
    if failures:
        (i, j), _ = failures[0]
        raise ConsistencyError(f"the involution is not an automorphism at ({i}, {j})")
    return tau


def automorphism_failures(algebra: StructureAlgebra, m):
    """[((i, j), m(e_i e_j) - (m e_i)(m e_j))] over basis pairs i <= j where
    the difference is nonzero; empty exactly when m is an automorphism.

    m is cleared once to M / d and the algebra is rational with product
    tensor T / p, so the difference is d M T_ij - (M e_i)(M e_j) under T,
    an integer vector, over p d^2.
    """
    table, p, _, _ = algebra._integer
    mat, d = linalg.clear_matrix(m)
    cols = linalg.transpose(mat)
    n = algebra.dim
    out = []
    for i in range(n):
        for j in range(i, n):
            image = [d * sum(map(mul, row, table[i][j])) for row in mat]
            diff = linalg.sub_vec(image, bilinear(table, cols[i], cols[j], algebra.labels))
            if any(diff):
                out.append(((i, j), [Fraction(x, p * d * d) for x in diff]))
    return out


@dataclass
class FormReport:
    symmetric: bool
    associative: bool
    assoc_failures: list
    perpendicular: dict

    @property
    def passed(self) -> bool:
        return self.symmetric and self.associative and all(self.perpendicular.values())

    def to_json(self) -> dict:
        return {
            "symmetric": self.symmetric,
            "associative": self.associative,
            "assoc_failures": self.assoc_failures,
            "perpendicular": {str(k): v for k, v in self.perpendicular.items()},
            "passed": self.passed,
        }


def verify_form(algebra: StructureAlgebra, rules: FusionRules | None = None) -> FormReport:
    """Check symmetry, associativity <xy, z> = <x, yz> on all basis triples,
    and perpendicularity of distinct eigenspaces at every marked axis.

    The eigenspace scan needs a candidate spectrum, so it runs only when
    fusion rules are supplied.
    """
    n = algebra.dim
    symmetric = all(algebra.gram[i][j] == algebra.gram[j][i]
                    for i in range(n) for j in range(n))
    product, gram = algebra.product, algebra.gram
    if algebra._integer is not None:
        # integer defects are the rational ones times den_p * den_g
        product, _, gram, _ = algebra._integer
    tensor = form_tensor(product, gram)
    failures = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)
                if tensor[i][j][k] != tensor[j][k][i]]
    perpendicular = {}
    if rules is not None:
        for m in algebra.marked:
            a = algebra.basis_vector(m)
            spaces, _ = eigen_decompose(algebra, a, rules.fields)
            ok = True
            thetas = [t for t, b in spaces.items() if b]
            for x, f in enumerate(thetas):
                for g in thetas[x + 1:]:
                    for u in spaces[f]:
                        for v in spaces[g]:
                            if algebra.form(u, v) != 0:
                                ok = False
            perpendicular[algebra.labels[m]] = ok
    return FormReport(symmetric, not failures, failures, perpendicular)


def seress_assoc_check(algebra: StructureAlgebra, a) -> bool:
    """Does `a` associate with its 0-eigenvectors: a(xz) = (ax)z exactly."""
    _, _, kernel = linalg.rref_and_kernel(algebra.ad_integer(a)[0])
    for i in range(algebra.dim):
        x = algebra.basis_vector(i)
        ax = algebra.multiply(a, x)
        for z in kernel:
            if algebra.multiply(a, algebra.multiply(x, z)) != algebra.multiply(ax, z):
                return False
    return True


def resurrect(algebra: StructureAlgebra, a, b_lm, b_0, lm):
    """Recover x from its corrections b_lm, b_0 into two eigenspaces:
    x = (1/lm) a(b_lm - b_0) - b_lm."""
    lm = Fraction(lm)
    if lm == 0:
        raise ValueError("the eigenvalue must be nonzero")
    diff = [p - q for p, q in zip(b_lm, b_0)]
    image = algebra.multiply(a, diff)
    inv = 1 / lm
    return [inv * w - b for w, b in zip(image, b_lm)]


# -- ideals and quotients -----------------------------------------------------


def ideal_closure(algebra: StructureAlgebra, gens, maps=()):
    """Smallest subspace containing gens and stable under multiplication
    and under each matrix in maps.

    A subspace stable under an invertible matrix is stable under its
    inverse, so with the generators of a group as maps the result is the
    smallest ideal the whole group preserves; no words in the generators
    are needed.
    """
    # spans are all that matter here, so every image is taken up to scale:
    # each map is cleared to integers once, each basis vector once per round
    maps = [linalg.clear_matrix(m)[0] for m in maps]
    basis = linalg.echelon_span(gens)
    while True:
        extended = list(basis)
        for v in basis:
            # e_i v for every i: the columns of ad(v)
            extended.extend(linalg.transpose(algebra.ad_integer(v)[0]))
            nums, _ = linalg.clear_denominators(v)
            extended.extend([sum(map(mul, row, nums)) for row in m] for m in maps)
        new_basis = linalg.echelon_span(extended)
        if len(new_basis) == len(basis):
            return new_basis
        basis = new_basis


def quotient(algebra: StructureAlgebra, ideal):
    """Quotient by an ideal on which the form vanishes.

    Returns (quotient algebra, projection matrix); the projection maps
    old coordinates to coordinates on the surviving basis vectors.
    Raises ConsistencyError when the subspace is not an ideal or the form
    does not vanish on it, both of which signal a modelling error.
    """
    basis = linalg.echelon_span(ideal)
    # e_i v for every i and v: the columns of each ad(v), up to scale
    images = [col for v in basis for col in linalg.transpose(algebra.ad_integer(v)[0])]
    if len(linalg.echelon_span(basis + images)) != len(basis):
        raise ConsistencyError("subspace is not closed under multiplication")
    if any(pair(row, v) for v in basis for row in algebra.gram):
        raise ConsistencyError("the form does not vanish on the ideal")
    pivots = [next(c for c, x in enumerate(row) if x != 0) for row in basis]
    complement = [c for c in range(algebra.dim) if c not in pivots]
    # projection columns: each old basis vector reduced through the ideal
    columns = []
    for j in range(algebra.dim):
        residual = linalg.reduce_vector(basis, algebra.basis_vector(j))
        columns.append([residual[c] for c in complement])
    proj = [[columns[j][r] for j in range(algebra.dim)] for r in range(len(complement))]

    labels = [algebra.labels[c] for c in complement]
    m = len(complement)
    product = [[None] * m for _ in range(m)]
    for r, c1 in enumerate(complement):
        for s, c2 in enumerate(complement):
            vec = algebra.product[c1][c2]
            residual = linalg.reduce_vector(basis, vec)
            product[r][s] = [residual[c] for c in complement]
    gram = [[algebra.gram[c1][c2] for c2 in complement] for c1 in complement]
    quot = StructureAlgebra(labels, product, gram, marked=())
    return quot, proj
