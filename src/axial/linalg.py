"""Dense exact linear algebra.

Matrices and vectors are plain nested lists.  The kernel works on
integers: a rational vector or matrix is held as integer numerators over
one common denominator (`clear_denominators`, `clear_matrix`), and row
reduction, kernels, inverses and determinants eliminate over the integers
(`integer_rref`, `integer_kernel`, `integer_inverse`, `integer_det`).
`integer_rref` is the innermost loop of every check, so its pivot search
and the content division of each new row are written out in it, with no
call per row operation.  A subspace is held as its canonical basis, the
primitive integer rows of its reduced echelon form with positive pivots
(`echelon_span`), so equal subspaces have equal bases; w lies in one
exactly when P w = 0 for its `complement_projection` P, and the rows of P
span the kernel of the basis, which is how `integer_kernel` reads a kernel
off an echelon form; the kernel comes back as its canonical basis too.
Echelon forms come back as integer rows only; no function here makes a
Fraction it was not given.  `matvec` and `matmul` are generic over the
ring, each entry one `poly.dot`: they serve matrices over the polynomial
ring, and return ints for int matrices and Fractions for Fraction ones.
"""

from __future__ import annotations

from math import gcd, lcm

from . import poly


def clear_denominators(v):
    """(numerators, den) with v[i] == numerators[i] / den for a rational vector.

    den is the least common denominator of the entries; int entries need
    no special case, since they have an integer ratio too.
    """
    ratios = [x.as_integer_ratio() for x in v]
    den = lcm(*[d for _, d in ratios])
    return [n * (den // d) for n, d in ratios], den


def clear_matrix(m):
    """(rows, den) with m[i][j] == rows[i][j] / den: integer rows over one
    denominator for the whole rational matrix, so that the integer matrix
    acts as den times m."""
    nums, den = clear_denominators([x for row in m for x in row])
    return split_rows(nums, len(m)), den


def split_rows(flat, n_rows):
    """The flat list cut into n_rows rows of equal length, in order."""
    width = len(flat) // n_rows if n_rows else 0
    return [flat[i * width:(i + 1) * width] for i in range(n_rows)]


def lowest_terms(rows, den):
    """(rows, den) for the integer matrix rows / den with the common gcd of
    den and every entry divided out and den made positive."""
    g = gcd(den, *(x for row in rows for x in row))
    if den < 0:
        g = -g
    if g == 1:
        return rows, den
    return [[x // g for x in row] for row in rows], den // g


def transpose(m):
    return [list(col) for col in zip(*m)]


def matvec(m, v):
    if m and len(m[0]) != len(v):
        raise ValueError("dimension mismatch")
    return [poly.dot(row, v) for row in m]


def matmul(a, b):
    if a and b and len(a[0]) != len(b):
        raise ValueError("dimension mismatch")
    bt = transpose(b)
    return [[poly.dot(ra, cb) for cb in bt] for ra in a]


def scale_vec(c, v):
    return [c * x for x in v]


def add_vec(u, v):
    return [a + b for a, b in zip(u, v)]


def sub_vec(u, v):
    return [a - b for a, b in zip(u, v)]


def integer_rref(rows):
    """(rows, pivots): the nonzero rows of a reduced row echelon form of an
    integer matrix, computed over the integers.

    Each row is first divided by its content, which leaves its span alone.
    Elimination replaces a row by p * row - f * pivot_row (p and f divided
    by their gcd) and divides the result by its content, so entries stay
    small.  The rows come back primitive with positive pivot entries, which
    makes them the canonical basis of their span.  The pivot search and the
    content division are written out in the loop: this is the innermost
    loop of every check, and a call per row operation costs more than the
    arithmetic of a short row.
    """
    work = []
    for row in rows:
        g = gcd(*row)
        work.append([x // g for x in row] if g > 1 else row)
    n_rows = len(work)
    n_cols = len(work[0]) if n_rows else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        for pivot in range(r, n_rows):
            if work[pivot][c]:
                break
        else:
            continue
        prow = work[pivot]
        work[pivot] = work[r]
        work[r] = prow
        p = prow[c]
        for i, row in enumerate(work):
            f = row[c]
            if f and i != r:
                g = gcd(p, f)
                a, b = p // g, f // g
                row = [a * x - b * y for x, y in zip(row, prow)]
                g = gcd(*row)
                work[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return [row if row[c] > 0 else [-x for x in row] for row, c in zip(work, pivots)], pivots


def integer_det(rows) -> int:
    """Determinant of a square integer matrix by Bareiss elimination.

    Each step (p * a - f * b) // previous_pivot divides exactly (Bareiss,
    "Sylvester's identity and multistep integer-preserving Gaussian
    elimination", Math. Comp. 1968), so the last pivot is the determinant.
    The rows are not modified.
    """
    work = list(rows)
    n = len(work)
    sign = 1
    prev = 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if work[i][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            work[c], work[pivot] = work[pivot], work[c]
            sign = -sign
        prow = work[c]
        p = prow[c]
        for i in range(c + 1, n):
            f = work[i][c]
            work[i] = [(p * a - f * b) // prev for a, b in zip(work[i], prow)]
        prev = p
    return sign * prev


def integer_kernel(rows):
    """The canonical basis (see `echelon_span`) of the kernel of an integer
    matrix: the rows of its `complement_projection`, which vanish on the
    row space, one for each free column, reduced by `integer_rref`.  A
    matrix with no rows raises ValueError, since its column count is unknown."""
    if not rows:
        raise ValueError("the kernel of a matrix with no rows is not defined")
    return integer_rref(complement_projection(*integer_rref(rows), len(rows[0]))[0])[0]


def integer_inverse(rows):
    """(N, d) with N / d the inverse of an invertible square integer matrix,
    by Gauss-Jordan elimination of [rows | I] over the integers."""
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    work, pivots = integer_rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    d = lcm(*(row[i] for i, row in enumerate(work)))
    return [[x * (d // row[i]) for x in row[n:]] for i, row in enumerate(work)], d


def echelon_span(vectors):
    """Canonical basis of the span of the given rational vectors: the
    integer rows of `integer_rref`, each primitive with a positive pivot.

    The result is unique for the subspace, so equality of subspaces is
    equality of these bases.
    """
    return integer_rref([clear_denominators(v)[0] for v in vectors])[0]


def complement_projection(rows, pivots, n_cols):
    """(P, L, complement) for canonical rows and their pivots as
    `integer_rref` returns them, L the lcm of the pivot entries p_r: P has
    a row for each non-pivot column k in complement, L at k and
    -row_r[k] L / p_r at each pivot c_r.  (P w)_k is L times what is left
    at k once the pivots of w are eliminated, so w is in the span iff P w = 0."""
    scale = lcm(*(row[c] for row, c in zip(rows, pivots)))
    complement = [c for c in range(n_cols) if c not in pivots]
    proj = [[scale if j == c else 0 for j in range(n_cols)] for c in complement]
    for row, c in zip(rows, pivots):
        f = scale // row[c]
        for out, k in zip(proj, complement):
            out[c] = -f * row[k]
    return proj, scale, complement


def matrix_order(m, bound: int, den=1) -> int | None:
    """Least k <= bound with (m / den)**k the identity, else None.  For an
    integer m the powers stay integers; Fraction and MultiPoly entries work too."""
    n = len(m)
    power = m
    for k in range(1, bound + 1):
        if power == [[den ** k if i == j else 0 for j in range(n)] for i in range(n)]:
            return k
        power = matmul(power, m)
    return None
