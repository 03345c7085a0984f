"""Finite-dimensional commutative algebras over Q given by structure constants.

An algebra carries a symmetric product tensor, a symmetric bilinear form
(the Frobenius form), and a list of marked generator indices.  It is held
only as integers: its product tensor and its Gram matrix each as integer
numerators over one denominator.  Products, forms, ad(a), eigenspaces,
the axis and automorphism checks, ideal closures and quotients all run on
those integers, and `product` and `gram` are read-only Fraction views of
them.  ad(v) is read off the fibres of the tensor, fibre (r, j) the vector
of T[k][j][r] over k, built once per algebra: each entry of den ad(v) is
one dot product of v with a fibre (ad_integer, check_axis, ideal_closure,
quotient).  Whether vectors lie in a subspace (primitivity, ideal closure,
the quotient's ideal test) is always decided on canonical integer echelon
rows, by comparing them or by their complement projection
(linalg.complement_projection); the fusion law is decided by coordinates
in an eigenframe of the axis, inverted once, with the eigenspaces and the
law (FusionRules.law) taken by field position (see check_axis); miyamoto
takes the eigenspaces and that inverse from the axis report, and certify
passes them to verify_form.  The symbolic algebra over Q[lam, mu] is two
bare MultiPoly tables (sakuma.UniversalAlgebra), not a StructureAlgebra;
the ring-generic kernel below serves it as well.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul

from . import linalg
from .fusion import FusionRules, Grading
from .poly import _literal, dot


class ConsistencyError(Exception):
    """An internal cross-check failed; the model is wrong, not the input."""


class ShapeError(ValueError):
    """The input does not describe an algebra: a tensor or vector of the wrong
    shape, a product that is not commutative, a Gram matrix that is not
    symmetric, labels that are not distinct strings, a marked index that is
    a boolean or out of range, a missing table, or an entry that is not a
    rational literal in a file or not an int given to the constructor."""


# -- the product, form and defect kernel ---------------------------------------
#
# Every bilinear product, form pairing and associativity defect in the
# package goes through these functions.  They work on bare tables, so
# the symbolic build can use them while its tables are still filling in, and
# they are generic over the ring: Fraction, MultiPoly or int entries.


def bilinear(table, x, y, labels):
    """x y by bilinear extension of a product table: coordinate k is the dot
    product of the coefficients x_i y_j with the entries T[i][j][k].

    Entries may be Fraction, MultiPoly or int.  A table that is still being
    filled holds None for the products not yet known; needing one raises
    ConsistencyError naming the pair by its basis labels.
    """
    coeffs, entries = [], []
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
            coeffs.append(xi * yj)
            entries.append(entry)
    if not entries:
        return [0 * xi for xi in x]
    return [dot(coeffs, column) for column in zip(*entries)]


def pair(row, v, labels=None, k=None):
    """<e_k, v> from row k of the Gram matrix: the contraction sum_r v_r row[r].
    A row still being filled holds None for the values not yet known; needing
    one raises ConsistencyError naming it, by labels when labels and k are given."""
    if type(None) in map(type, row):
        for r, (c, g) in enumerate(zip(v, row)):
            if c and g is None:
                entry = f"{labels[k]}, {labels[r]}" if labels else f"?, {r}"
                raise ConsistencyError(f"form value <{entry}> not yet available")
        row = [0 if g is None else g for g in row]
    return dot(v, row)


def form(gram, x, y, labels=None):
    """<x, y> = sum_k x_k <e_k, y> by bilinear extension of a Gram table;
    a missing value raises as in pair."""
    return dot(x, [pair(row, y, labels, k) if c else 0 for k, (c, row) in enumerate(zip(x, gram))])


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
            tensor[i][j] = tensor[j][i] = [dot(table[i][j], row) for row in gram]
    return tensor


def form_defects(table, gram):
    """[((i, j, k), T[i][j][k] - T[j][k][i])] for every ordered basis triple
    on which the form fails to associate, T the form_tensor."""
    t, n = form_tensor(table, gram), range(len(gram))
    return [((i, j, k), t[i][j][k] - t[j][k][i]) for i in n for j in n for k in n
            if t[i][j][k] != t[j][k][i]]


class StructureAlgebra:
    """Commutative algebra over Q with product tensor, Gram matrix and marked axes.

    The product tensor is the integer `table` over `den` and the Gram
    matrix the integer `gram_table` over `gram_den`; each denominator is a
    positive integer coprime to its table's entries.
    """

    def __init__(self, labels, table, den, gram, gram_den, marked=()):
        """The rational algebra with product tensor table / den and Gram
        matrix gram / gram_den, for integer tables and nonzero integer
        denominators; each table is put in lowest terms."""
        self.dim = n = len(labels)
        self.labels, self.marked = list(labels), list(marked)
        # the axis reports are keyed by label, so labels must tell axes apart
        if not all(isinstance(x, str) for x in self.labels) or len(set(self.labels)) != n:
            raise ShapeError("labels must be distinct strings")
        _check_shapes(n, table, gram)
        vecs = [vec for row in table for vec in row]
        for x in (den, gram_den, *(x for rows in (vecs, gram) for row in rows for x in row)):
            # a bool would be kept as an integer, and a float or a Fraction would fail in gcd
            if type(x) is not int:
                raise ShapeError(f"a {type(x).__name__} is not an integer entry or denominator")
        if not den or not gram_den:
            raise ShapeError("a denominator is zero")
        if any(isinstance(m, bool) for m in self.marked):
            raise ShapeError("a marked index is a boolean, not an integer")
        if any(not isinstance(m, int) or not 0 <= m < n for m in self.marked):
            raise ShapeError(f"marked indices {self.marked} are not all in 0..{n - 1}")
        repeated = [m for k, m in enumerate(self.marked) if m in self.marked[:k]]
        if repeated:
            raise ShapeError(f"marked index {repeated[0]} is repeated in {self.marked}")
        vecs, self.den = linalg.lowest_terms(vecs, den)
        self.table = linalg.split_rows(vecs, n)
        self.gram_table, self.gram_den = linalg.lowest_terms(gram, gram_den)
        check_symmetric(self.table, self.gram_table)

    @cached_property
    def fibres(self):
        """F[r][j] = (T[0][j][r], ..., T[n-1][j][r]) for the integer tensor
        T: entry (r, j) of den ad(v) is the dot product of v with F[r][j].
        Built on first use, by transposing each slice T[.][j]."""
        by_column = [list(zip(*(row[j] for row in self.table))) for j in range(self.dim)]
        return [list(col) for col in zip(*by_column)]

    @property
    def product(self):
        """The product tensor as Fractions."""
        den = self.den
        return [[[Fraction(x, den) for x in vec] for vec in row] for row in self.table]

    @property
    def gram(self):
        """The Gram matrix as Fractions."""
        den = self.gram_den
        return [[Fraction(x, den) for x in row] for row in self.gram_table]

    def _check_lengths(self, *vectors):
        # the kernels zip a vector with the tables, which would cut it to fit
        if any(len(v) != self.dim for v in vectors):
            raise ShapeError("vector length does not match the algebra dimension")

    def basis_vector(self, i: int):
        if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < self.dim:
            raise ShapeError(f"basis index {i!r} is not in 0..{self.dim - 1}")
        return [Fraction(int(j == i)) for j in range(self.dim)]

    def multiply(self, x, y):
        """Bilinear extension of the structure constants."""
        self._check_lengths(x, y)
        (x, dx), (y, dy) = linalg.clear_denominators(x), linalg.clear_denominators(y)
        den = self.den * dx * dy
        return [Fraction(c, den) for c in bilinear(self.table, x, y, self.labels)]

    def ad_integer(self, a):
        """(A, den) with ad(a) = A / den for an integer matrix A, the matrix of
        left multiplication by a acting on column vectors, read off the
        fibres of the integer product tensor."""
        self._check_lengths(a)
        nums, da = linalg.clear_denominators(a)
        return self._ad_rows(nums), self.den * da

    def _ad_rows(self, v):
        """The rows of den ad(v) for an integer vector v, one dot product
        with a fibre per entry."""
        return [[sum(map(mul, v, f)) for f in row] for row in self.fibres]

    def _ad_columns(self, v):
        """The columns of den ad(v) for an integer vector v: den (v e_j) for
        each j, as integer vectors."""
        return linalg.transpose(self._ad_rows(v))

    def form(self, x, y):
        """Value of the bilinear form on two coordinate vectors."""
        self._check_lengths(x, y)
        (x, dx), (y, dy) = linalg.clear_denominators(x), linalg.clear_denominators(y)
        return Fraction(form(self.gram_table, x, y), self.gram_den * dx * dy)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "labels": self.labels,
            "product": [[[str(c) for c in vec] for vec in row] for row in self.product],
            "gram": [[str(c) for c in row] for row in self.gram],
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
        labels, marked = data["labels"], data.get("marked", [])
        if not isinstance(labels, list) or not isinstance(marked, list):
            raise ShapeError("labels and marked must be lists")
        dim = data.get("dim", len(labels))
        if type(dim) is not int or dim != len(labels):
            raise ShapeError(f"dim {dim!r} is not the number of labels, {len(labels)}")

        def nested(rows):
            # a string is iterable too, so every level must be a list
            if not isinstance(rows, list):
                raise ShapeError("product and gram must be nested lists")
            return rows

        def entries(rows, depth):
            return [entries(r, depth - 1) if depth else _entry_ratio(r) for r in nested(rows)]

        product, gram = entries(data["product"], 2), entries(data["gram"], 1)
        den = lcm(*(q for row in product for vec in row for _, q in vec))
        gram_den = lcm(*(q for row in gram for _, q in row))
        return StructureAlgebra(
            labels, [[[p * (den // q) for p, q in vec] for vec in row] for row in product], den,
            [[p * (gram_den // q) for p, q in row] for row in gram], gram_den, marked)


def _entry_ratio(e):
    """(p, q) with q > 0 and e == p / q for a rational literal entry of an
    algebra file; ShapeError for anything else.  An int and a plain ASCII
    "p", "-p" or "p/q" are read as integers; every other entry goes
    through poly._literal, so the two accept the same entries."""
    if isinstance(e, dict):
        raise ShapeError("an entry is a polynomial, so the algebra is not rational")
    try:
        if type(e) is int:
            return e, 1
        if type(e) is str and e.isascii():
            num, slash, den = e.partition("/")
            q = int(den) if den.isdigit() else 0 if slash else 1
            if q and num.removeprefix("-").isdigit():
                return int(num), q
        return _literal(e).as_integer_ratio()
    except (TypeError, ValueError, ZeroDivisionError):
        raise ShapeError(f"entry {e!r} is not a rational literal") from None


def check_symmetric(table, gram):
    """Raise ShapeError unless the product table is commutative and the
    Gram matrix symmetric; generic over the ring of the entries."""
    for i in range(len(gram)):
        for j in range(i):
            if table[i][j] != table[j][i]:
                raise ShapeError(f"product is not commutative at ({i}, {j})")
            if gram[i][j] != gram[j][i]:
                raise ShapeError(f"gram matrix is not symmetric at ({i}, {j})")


def _check_shapes(n, product, gram):
    if (len(product) != n or any(len(row) != n for row in product)
            or any(len(vec) != n for row in product for vec in row)):
        raise ShapeError("product tensor has the wrong shape")
    if len(gram) != n or any(len(row) != n for row in gram):
        raise ShapeError("gram matrix has the wrong shape")


# -- eigenspaces and the axis predicates -------------------------------------


def eigen_decompose(ad, candidates):
    """Kernel of ad(a) - theta for each candidate theta, with ad(a) = A / d
    given as (A, d) from ad_integer.

    Returns (spaces, semisimple): spaces maps each candidate to the
    canonical integer basis of its eigenspace (see linalg.echelon_span),
    and semisimple records whether the dimensions add up to the whole
    algebra.  The kernel of ad(a) - p/q is that of the integer matrix
    q A - p d, and linalg.integer_kernel returns its canonical basis.
    The spaces come in the order of the candidates, so their positions are
    those of the candidates.
    """
    mat, d = ad
    spaces = {}
    for theta in candidates:
        p, q = theta.numerator * d, theta.denominator
        shifted = [[q * x for x in row] for row in mat]
        for i, row in enumerate(shifted):
            row[i] -= p
        spaces[theta] = linalg.integer_kernel(shifted)
    return spaces, sum(map(len, spaces.values())) == len(mat)


class AxisReport(namedtuple("AxisReport", "idempotent norm_ok spectrum semisimple "
                                         "primitive violations spaces inverse")):
    """Outcome of the axis conditions for one idempotent candidate.

    spaces holds the canonical integer eigenspace bases behind spectrum, by
    candidate, which miyamoto takes and certify passes to verify_form;
    inverse is (N, d) with N / d the inverse of the eigenframe check_axis
    inverted, which miyamoto takes too.  Neither is serialised.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return (self.idempotent and self.norm_ok and self.semisimple
                and self.primitive and not self.violations)

    def to_json(self) -> dict:
        return {
            "idempotent": self.idempotent,
            "norm_ok": self.norm_ok,
            "spectrum": {str(k): v for k, v in sorted(self.spectrum.items(), reverse=True)},
            "semisimple": self.semisimple,
            "primitive": self.primitive,
            "fusion_ok": not self.violations,
            "violations": [[str(f), str(g)] for f, g in self.violations],
            "passed": self.passed,
        }


def check_axis(algebra: StructureAlgebra, a, rules: FusionRules) -> AxisReport:
    """Test the axis conditions for `a` against the given fusion rules.

    Checks: aa = a; <a, a> = 2 * central charge; the candidate spectrum
    (the field set) exhausts the algebra; a spans its own 1-eigenspace;
    and each eigenspace product lands in the prescribed eigenspace sum.
    That law is decided in an eigenframe, inverted once: the eigenvectors,
    completed by the unit vectors of the non-pivot columns of their echelon
    form when they do not span.  V_f V_g lies in the sum of the V_h for h
    in f*g exactly when each product u v, formed once per pair of frame
    eigenvectors, has no frame coordinate outside it.  The eigenspaces are
    taken by field position and the law read from rules.law, so no field
    is looked up by value.  Unrealised fields are recorded with dimension 0.
    """
    idempotent = algebra.multiply(a, a) == list(a)
    norm_ok = algebra.form(a, a) == 2 * rules.central_charge
    fields = rules.fields
    spaces, semisimple = eigen_decompose(algebra.ad_integer(a), fields)
    bases = list(spaces.values())  # by field position
    spectrum = {theta: len(basis) for theta, basis in spaces.items()}
    one_space = bases[fields.index(1)] if 1 in fields else []
    # canonical bases are equal exactly when the spans are; a zero a gives []
    primitive = len(one_space) == 1 and one_space == linalg.echelon_span([a])

    # where[k] is the field position of frame vector k, -1 for a completing
    # unit vector, which lies in no eigenspace
    realized = [p for p, basis in enumerate(bases) if basis]
    frame = [v for p in realized for v in bases[p]]
    where = [p for p in realized for _ in bases[p]]
    n, m = algebra.dim, len(frame)
    if not semisimple:
        pivots = linalg.integer_rref(frame)[1]
        frame += [[int(j == c) for j in range(n)] for c in range(n) if c not in pivots]
        where += [-1] * (n - m)
    try:
        inverse = linalg.integer_inverse(linalg.transpose(frame))
    except ValueError:
        raise ConsistencyError("the eigenvectors of the axis are not independent") from None
    # forbidden[p, q]: the coordinate rows outside the sum allowed for V_p V_q
    forbidden = {}
    for x, p in enumerate(realized):
        for q in realized[x:]:
            allowed = rules.law[p][q]
            forbidden[p, q] = [row for row, r in zip(inverse[0], where) if r not in allowed]
    broken = set()
    for i in range(m):
        ad = algebra._ad_rows(frame[i])
        for j in range(i, m):
            w = [sum(map(mul, row, frame[j])) for row in ad]
            if any(sum(map(mul, row, w)) for row in forbidden[where[i], where[j]]):
                broken.add((where[i], where[j]))
    violations = [(fields[p], fields[q]) for p, q in sorted(broken)]
    return AxisReport(idempotent, norm_ok, spectrum, semisimple,
                      primitive, violations, spaces, inverse)


def miyamoto(algebra: StructureAlgebra, report: AxisReport, grading: Grading):
    """(T, d) with T / d the involution fixing the even eigenspaces of an
    axis and negating the odd ones, T an integer matrix.

    report is check_axis's AxisReport on the axis: its spaces are the
    integer eigenspace bases, and its inverse is (N, d) with N / d the
    inverse of P, the matrix with those eigenvectors as columns.  With the
    signs on the diagonal of S, tau = P S P^-1, so T = P S N.  Raises
    ConsistencyError if the eigenspaces do not span, or if T / d fails to
    be an involutive automorphism preserving the form; the checks run on
    the integers: T^2 = d^2 I, T^t G T = d^2 G for the integer Gram matrix
    G, and the automorphism defects of T / d vanish.
    """
    spaces = report.spaces
    if sum(len(basis) for basis in spaces.values()) != algebra.dim:
        raise ConsistencyError("eigenspaces of the axis do not span the algebra")
    columns = [v for basis in spaces.values() for v in basis]
    signs = [-1 if grading.parity(theta) else 1
             for theta, basis in spaces.items() for _ in basis]
    inv, d = report.inverse
    signed = [[s * x for x in row] for s, row in zip(signs, inv)]
    tau, d = linalg.lowest_terms(linalg.matmul(linalg.transpose(columns), signed), d)

    if linalg.matrix_order(tau, 2, d) is None:
        raise ConsistencyError("the involution does not square to the identity")
    gram = algebra.gram_table
    image = linalg.matmul(linalg.matmul(linalg.transpose(tau), gram), tau)
    if image != [[d * d * x for x in row] for row in gram]:
        raise ConsistencyError("the involution does not preserve the form")
    failures = automorphism_defects(algebra, tau, d)
    if failures:
        (i, j), _ = failures[0]
        raise ConsistencyError(f"the involution is not an automorphism at ({i}, {j})")
    return tau, d


def automorphism_defects(algebra: StructureAlgebra, mat, d):
    """[((i, j), den d^2 (m(e_i e_j) - (m e_i)(m e_j)))] over basis pairs
    i <= j where the difference is nonzero, for m = mat / d with mat an
    integer matrix; empty exactly when m is an automorphism.

    The algebra is rational with product tensor T / den, so the difference
    is d M T_ij - (M e_i)(M e_j) under T, over den d^2.

    mat is applied through the nonzero entries of its columns: d M T_ij is
    the sum of the columns k of d M with T_ij[k] != 0.  A symmetry is often
    close to a permutation, so when columns i and j are monomial, c e_p and
    c' e_q, the product (M e_i)(M e_j) is the scaled table row c c' T[p][q];
    other pairs of columns are multiplied by bilinear.
    """
    table, n = algebra.table, algebra.dim
    cols = linalg.transpose(mat)
    # column k of d M as its nonzero entries (row, value)
    scaled = [[(r, d * x) for r, x in enumerate(col) if x] for col in cols]
    out = []
    for i in range(n):
        for j in range(i, n):
            image = [0] * n
            for t, col in zip(table[i][j], scaled):
                if t:
                    for r, x in col:
                        image[r] += t * x
            if len(scaled[i]) == len(scaled[j]) == 1:
                p, q = scaled[i][0][0], scaled[j][0][0]
                c = cols[i][p] * cols[j][q]
                product = [c * x for x in table[p][q]]
            else:
                product = bilinear(table, cols[i], cols[j], algebra.labels)
            if image != product:
                out.append(((i, j), linalg.sub_vec(image, product)))
    return out


class FormReport(namedtuple("FormReport", "assoc_failures perpendicular")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.assoc_failures and all(self.perpendicular.values())

    def to_json(self) -> dict:
        return {
            # check_symmetric refused every asymmetric Gram matrix when the
            # algebra was built
            "symmetric": True,
            "associative": not self.assoc_failures,
            "assoc_failures": self.assoc_failures,
            "perpendicular": {str(k): v for k, v in self.perpendicular.items()},
            "passed": self.passed,
        }


def verify_form(algebra: StructureAlgebra, spaces) -> FormReport:
    """Check associativity <xy, z> = <x, yz> on all basis triples, and
    perpendicularity of distinct eigenspaces at each axis in spaces.

    spaces maps an axis label to its eigenspaces as check_axis reports
    them (AxisReport.spaces, integer bases by eigenvalue); each pair of
    distinct eigenspaces is paired on the integer Gram matrix G, whose
    products vanish exactly when the rational ones do, as u . G v with G v
    formed once per eigenvector v.
    """
    gram = algebra.gram_table
    # the integer defects are the rational ones times den * gram_den
    failures = [triple for triple, _ in form_defects(algebra.table, gram)]
    perpendicular = {}
    for label, eigen in spaces.items():
        bases = list(eigen.values())
        images = [[[sum(map(mul, row, v)) for row in gram] for v in basis] for basis in bases]
        perpendicular[label] = not any(
            sum(map(mul, u, gv)) for x, basis in enumerate(bases) for later in images[x + 1:]
            for u in basis for gv in later)
    return FormReport(failures, perpendicular)


class Certificate(namedtuple("Certificate", "axes form")):
    """Whether an algebra is a Frobenius axial algebra for a law: check_axis's
    report on each axis, by label, and verify_form's report with their
    eigenspaces.  It fails with no axis, for no axis generates the algebra."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return bool(self.axes) and self.form.passed and all(r.passed for r in self.axes.values())

    def to_json(self) -> dict:
        return {"axes": {k: r.to_json() for k, r in self.axes.items()},
                "form": self.form.to_json(), "passed": self.passed}


def certify(algebra: StructureAlgebra, axes, rules: FusionRules) -> Certificate:
    """check_axis on each vector of axes, by label, then verify_form with their eigenspaces."""
    reports = {label: check_axis(algebra, a, rules) for label, a in axes.items()}
    return Certificate(reports, verify_form(algebra, {k: r.spaces for k, r in reports.items()}))


# -- ideals and quotients -----------------------------------------------------


def ideal_closure(algebra: StructureAlgebra, gens, maps=()):
    """Smallest subspace containing gens and stable under multiplication
    and under each matrix in maps, as its canonical integer basis (see
    linalg.echelon_span).

    A subspace stable under an invertible matrix is stable under its
    inverse, so with the generators of a group as maps the result is the
    smallest ideal the whole group preserves; no words in the generators
    are needed.  Each round multiplies and maps only the rows whose pivots
    are new, which span the new space modulo the old (a semi-naive
    closure), and it stops once every image lies in the span.
    """
    # spans are all that matter here, so every vector and map is taken up
    # to scale: as integers, eliminated over the integers until the end
    maps = [linalg.clear_matrix(m)[0] for m in maps]
    basis, pivots = linalg.integer_rref([linalg.clear_denominators(v)[0] for v in gens])
    new = basis
    while True:
        images = []
        for v in new:
            # e_i v for every i: the columns of ad(v)
            images.extend(algebra._ad_columns(v))
            images.extend([sum(map(mul, row, v)) for row in m] for m in maps)
        # keep the images outside the span: those the projection does not kill
        proj = linalg.complement_projection(basis, pivots, algebra.dim)[0]
        images = [w for w in images if any(sum(map(mul, row, w)) for row in proj)]
        if not images:
            return basis
        old = set(pivots)
        basis, pivots = linalg.integer_rref(basis + images)
        new = [row for row, c in zip(basis, pivots) if c not in old]


def quotient(algebra: StructureAlgebra, ideal):
    """Quotient by an ideal on which the form vanishes.

    Returns (quotient algebra, projection matrix); the projection maps
    old coordinates to coordinates on the surviving basis vectors.
    Raises ConsistencyError when the subspace is not an ideal or the form
    does not vanish on it, both of which signal a modelling error.

    L times the projection is the integer P of linalg.complement_projection
    on the ideal's echelon rows; P kills e_i v for each i and row v exactly
    when the ideal is closed.  The quotient's product tensor is P T over
    den L, and its Gram matrix the surviving block of the integer one.
    """
    basis, pivots = linalg.integer_rref([linalg.clear_denominators(v)[0] for v in ideal])
    proj, scale, complement = linalg.complement_projection(basis, pivots, algebra.dim)
    # e_i v for every i and v, the columns of each ad(v), must project to 0
    images = [col for v in basis for col in algebra._ad_columns(v)]
    if any(sum(map(mul, row, w)) for w in images for row in proj):
        raise ConsistencyError("subspace is not closed under multiplication")
    gram = algebra.gram_table
    if any(pair(row, v) for v in basis for row in gram):
        raise ConsistencyError("the form does not vanish on the ideal")

    m = len(complement)
    table = [[None] * m for _ in range(m)]
    for r, c1 in enumerate(complement):
        for s in range(r, m):
            vec = algebra.table[c1][complement[s]]
            table[r][s] = table[s][r] = [sum(map(mul, row, vec)) for row in proj]
    quot = StructureAlgebra(
        [algebra.labels[c] for c in complement], table, algebra.den * scale,
        [[gram[c1][c2] for c2 in complement] for c1 in complement], algebra.gram_den)
    return quot, [[Fraction(x, scale) for x in row] for row in proj]
