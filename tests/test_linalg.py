import random
from fractions import Fraction as Q
from math import gcd, prod

import pytest

from axial import linalg


def det(m):
    """The determinant of a rational matrix by linalg.integer_det: the rows
    cleared to integers, their denominators multiplied out."""
    cleared = [linalg.clear_denominators(row) for row in m]
    return Q(linalg.integer_det([nums for nums, _ in cleared]), prod(d for _, d in cleared))


def rank_and_kernel(m):
    """(rank, integer kernel basis) of a rational matrix, its rows cleared.

    The kernel basis must be canonical, as echelon_span makes it, and m
    must kill each of its rows."""
    rows = [linalg.clear_denominators(row)[0] for row in m]
    kernel = linalg.integer_kernel(rows)
    assert kernel == linalg.echelon_span(kernel)
    for v in kernel:
        assert all(type(x) is int for x in v)
        assert not any(linalg.matvec(m, v))
    return len(linalg.integer_rref(rows)[0]), kernel


def eye(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def rand_matrix(rng, rows, cols):
    return [[Q(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(cols)]
            for _ in range(rows)]


def test_identity_has_full_rank():
    rank, kernel = rank_and_kernel(eye(3))
    assert rank == 3 and kernel == []


def test_zero_matrix_kernel():
    rank, kernel = rank_and_kernel([[Q(0)] * 2 for _ in range(2)])
    assert rank == 0 and kernel == eye(2)
    # the kernel comes back in reduced echelon form, each row primitive
    # with a positive pivot: (3, 0, 1) and (0, 3, 2) for x + 2y - 3z = 0
    assert linalg.integer_kernel([[2, 4, -6]]) == [[3, 0, 1], [0, 3, 2]]
    assert linalg.integer_kernel([[3, 6], [1, 2]]) == [[2, -1]] == \
        linalg.integer_kernel([[-6, -12]])
    # complement_projection's rows are L e_k minus a pivot part, and need
    # the reduction: the kernel of (2, 0, 1), (0, 3, 1) is spanned by
    # (-3, -2, 6), whose canonical form has a positive pivot
    assert linalg.integer_kernel([[2, 0, 1], [0, 3, 1]]) == [[3, 2, -6]]


def test_rank_nullity_and_exact_kernel():
    rng = random.Random(2)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_matrix(rng, rows, cols)
        rank, kernel = rank_and_kernel(m)
        assert rank + len(kernel) == cols


def test_rref_is_canonical():
    rng = random.Random(9)
    for _ in range(10):
        m = rand_matrix(rng, 4, 4)
        red = linalg.echelon_span(m)
        assert linalg.echelon_span(red) == red
        assert linalg.echelon_span(m[::-1]) == red


def test_det_and_inverse():
    m = [[2, 1], [1, 1]]
    assert det(m) == 1
    inv, d = linalg.integer_inverse(m)  # the inverse is inv / d
    assert linalg.matmul(m, inv) == [[d * x for x in row] for row in eye(2)]
    singular = [[1, 2], [2, 4]]
    assert det(singular) == 0
    with pytest.raises(ValueError):
        linalg.integer_inverse(singular)


def test_echelon_span_equality_is_subspace_equality():
    basis1 = linalg.echelon_span([[Q(1), Q(1), Q(0)], [Q(0), Q(1), Q(1)]])
    basis2 = linalg.echelon_span([[Q(1), Q(2), Q(1)], [Q(2), Q(3), Q(1)]])
    assert basis1 == basis2 == [[1, 0, -1], [0, 1, 1]]
    assert linalg.echelon_span(basis1 + [[Q(1), Q(0), Q(-1)]]) == basis1
    assert linalg.echelon_span(basis1 + [[Q(0), Q(0), Q(1)]]) != basis1
    # the canonical form: primitive integer rows with positive pivots
    for m in cases(39, count=2):
        for row in linalg.echelon_span(m):
            assert all(type(x) is int for x in row) and gcd(*row) == 1
            assert next(x for x in row if x) > 0
        # scaling a spanning vector leaves the basis unchanged
        scaled = [[Q(-3, 7) * x for x in m[0]]] + m[1:]
        assert linalg.echelon_span(scaled) == linalg.echelon_span(m)


def test_complement_projection_edge_cases():
    # no rows: P = I with L = 1, so only the zero vector is a member
    assert linalg.complement_projection([], [], 3) == ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1,
                                                      [0, 1, 2])
    # full rank: P has no rows and every vector is a member
    full, pivots = linalg.integer_rref([[2, 1], [1, 3]])
    assert linalg.complement_projection(full, pivots, 2) == ([], 1, [])
    # the span of (2, 0, 1) and (0, 3, 1): P = [-3, -2, 6] over L = 6
    basis, pivots = linalg.integer_rref([[2, 0, 1], [0, 3, 1]])
    proj, scale, complement = linalg.complement_projection(basis, pivots, 3)
    assert (proj, scale, complement) == ([[-3, -2, 6]], 6, [2])
    for w, member in (([0, 0, 0], True), ([2, 3, 2], True), ([0, 0, 1], False)):
        assert (not any(sum(a * b for a, b in zip(row, w)) for row in proj)) == member


def test_matrix_order():
    rot = [[Q(0), Q(-1)], [Q(1), Q(0)]]  # quarter turn
    assert linalg.matrix_order(rot, 12) == 4
    # an integer matrix standing for itself over a denominator
    assert linalg.matrix_order([[0, -2], [2, 0]], 12, 2) == 4
    assert linalg.matrix_order([[0, -2], [2, 0]], 12) is None
    assert linalg.matrix_order(eye(3), 12) == 1
    shear = [[Q(1), Q(1)], [Q(0), Q(1)]]
    assert linalg.matrix_order(shear, 12) is None


def test_matvec_dimension_mismatch():
    with pytest.raises(ValueError):
        linalg.matvec([[Q(1), Q(2)]], [Q(1)])


def test_matmul_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        linalg.matmul([[Q(1), Q(2)]], [[Q(1)], [Q(1)], [Q(1)]])
    # on int matrices too: zip would cut the shapes to fit, and this
    # product would read [[3]]
    with pytest.raises(ValueError, match="dimension mismatch"):
        linalg.matmul([[1, 2, 3]], [[1], [1]])
    product = linalg.matmul([[1, 2, 3]], [[1], [1], [1]])
    assert product == [[6]] and type(product[0][0]) is int


# -- the integer kernel against plain Fraction loops ----------------------------
#
# These are the Fraction elimination and product loops the integer kernel
# replaced, kept as references.


def ref_rref(m):
    work = [[Q(x) for x in row] for row in m]
    n_rows = len(work)
    n_cols = len(work[0]) if n_rows else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        pv = work[r][c]
        work[r] = [x / pv for x in work[r]]
        for i in range(n_rows):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return work, pivots


def ref_det(m):
    n = len(m)
    work = [[Q(x) for x in row] for row in m]
    sign, result = 1, Q(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if work[i][c] != 0), None)
        if pivot is None:
            return Q(0)
        if pivot != c:
            work[c], work[pivot] = work[pivot], work[c]
            sign = -sign
        pv = work[c][c]
        result *= pv
        for i in range(c + 1, n):
            if work[i][c] != 0:
                f = work[i][c] / pv
                work[i] = [a - f * b for a, b in zip(work[i], work[c])]
    return sign * result


def ref_matvec(m, v):
    return [sum((row[j] * v[j] for j in range(len(v))), Q(0)) for row in m]


def ref_matmul(a, b):
    return [[sum((ra[k] * b[k][j] for k in range(len(ra))), Q(0)) for j in range(len(b[0]))]
            for ra in a]


def ref_reduce_vector(basis, v):
    """v reduced by a monic reduced echelon basis, as from ref_rref."""
    out = [Q(x) for x in v]
    for row in basis:
        pc = next(c for c, x in enumerate(row) if x != 0)
        if out[pc] != 0:
            f = out[pc]
            out = [a - f * b for a, b in zip(out, row)]
    return out


ENTRIES = {
    "small": lambda rng: Q(rng.randint(-6, 6), rng.randint(1, 4)),
    "int": lambda rng: rng.randint(-9, 9),  # plain int entries
    "huge": lambda rng: Q(rng.randint(-2**80, 2**80), rng.randint(1, 2**70)),
}
SHAPES = [(1, 1), (1, 5), (5, 1), (2, 3), (3, 2), (4, 4), (5, 5), (6, 4), (3, 7)]


def structured_matrix(rng, rows, cols, kind):
    """A random matrix with, at random, a zero row, a zero column and a row
    that is a combination of two others (so rank deficiency is common)."""
    entry = ENTRIES[kind]
    m = [[entry(rng) for _ in range(cols)] for _ in range(rows)]
    if rng.random() < 0.4:
        m[rng.randrange(rows)] = [0 * x for x in m[0]]
    if rng.random() < 0.4:
        c = rng.randrange(cols)
        for row in m:
            row[c] = 0 * row[c]
    if rows >= 3 and rng.random() < 0.5:
        i, j, k = rng.sample(range(rows), 3)
        s, t = entry(rng), entry(rng)
        m[k] = [s * a + t * b for a, b in zip(m[i], m[j])]
    return m


def cases(seed, count=12):
    rng = random.Random(seed)
    for kind in ENTRIES:
        for rows, cols in SHAPES:
            for _ in range(count):
                yield structured_matrix(rng, rows, cols, kind)


def all_fractions(rows):
    return all(type(x) is Q for row in rows for x in row)


def all_ints(rows):
    return all(type(x) is int for row in rows for x in row)


def test_clear_denominators():
    v = [Q(1, 6), Q(-3, 4), 5, Q(0)]
    nums, den = linalg.clear_denominators(v)
    assert den == 12 and nums == [2, -9, 60, 0]
    assert all(type(x) is int for x in nums)
    assert linalg.clear_denominators([]) == ([], 1)
    big = [Q(2**70 + 1, 3**45), Q(-1, 2**66)]
    nums, den = linalg.clear_denominators(big)
    assert [Q(x, den) for x in nums] == big


def monic_echelon(m):
    """(rows, pivots): the reduced echelon form of a rational matrix by
    linalg.integer_rref, which must agree with echelon_span, each row
    divided by its pivot entry; the zero rows are left out."""
    rows, pivots = linalg.integer_rref([linalg.clear_denominators(row)[0] for row in m])
    assert rows == linalg.echelon_span(m) and all_ints(rows)
    return [[Q(x, row[c]) for x in row] for row, c in zip(rows, pivots)], pivots


def test_rref_matches_fraction_reference():
    for m in cases(31):
        red, pivots = monic_echelon(m)
        want, want_pivots = ref_rref(m)
        assert pivots == want_pivots
        assert red == want[:len(pivots)]
        assert not any(any(row) for row in want[len(pivots):])


def test_det_matches_fraction_reference():
    rng = random.Random(33)
    for kind in ENTRIES:
        for n in range(0, 7):
            for _ in range(10):
                m = structured_matrix(rng, n, n, kind) if n else []
                d = det(m)
                assert d == ref_det(m) and type(d) is Q


def test_matvec_and_matmul_match_fraction_reference():
    rng = random.Random(34)
    for m in cases(35, count=4):
        v = [ENTRIES["huge"](rng) if rng.random() < 0.3 else Q(rng.randint(-3, 3))
             for _ in range(len(m[0]))]
        assert linalg.matvec(m, v) == ref_matvec(m, v)
        b = structured_matrix(rng, len(m[0]), rng.randint(1, 4), rng.choice(list(ENTRIES)))
        product = linalg.matmul(m, b)
        assert product == ref_matmul(m, b)
        # the product stays in the ring of its entries: ints for int matrices
        if all_ints(m) and all_ints(b):
            assert all_ints(product)
        elif all_fractions(m) and all_fractions(b):
            assert all_fractions(product)


def test_span_membership_matches_the_fraction_reduction():
    rng = random.Random(36)
    for m in cases(37, count=4):
        basis = linalg.echelon_span(m)
        monic, _ = ref_rref(basis)
        for _ in range(3):
            v = [ENTRIES[rng.choice(list(ENTRIES))](rng) for _ in range(len(m[0]))]
            inside = linalg.echelon_span(basis + [v]) == basis
            assert inside == (not any(ref_reduce_vector(monic, v)))
        # a vector in the span reduces to zero
        combo = ref_matvec(linalg.transpose(m), [Q(rng.randint(-2, 2)) for _ in m])
        assert not any(ref_reduce_vector(monic, combo))
        assert linalg.echelon_span(basis + [combo]) == basis


def test_rref_against_sympy():
    sympy = pytest.importorskip("sympy")
    for m in cases(38, count=3):
        red, pivots = monic_echelon(m)
        want, want_pivots = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                                           for x in row] for row in m]).rref()
        assert pivots == list(want_pivots)
        assert red == [[Q(int(x.p), int(x.q)) for x in want.row(i)] for i in range(len(pivots))]
        assert want[len(pivots):, :].is_zero_matrix
