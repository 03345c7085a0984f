"""Dense exact linear algebra.

Matrices and vectors are plain nested lists.  Anything that divides
(row reduction, kernels, inverses) requires Fraction entries; the shape
helpers and products are generic and also serve matrices over the
polynomial ring.
"""

from __future__ import annotations

from fractions import Fraction


def zeros(rows: int, cols: int):
    return [[Fraction(0)] * cols for _ in range(rows)]


def identity(n: int):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def transpose(m):
    return [list(col) for col in zip(*m)]


def matvec(m, v):
    if m and len(m[0]) != len(v):
        raise ValueError("dimension mismatch")
    return [sum((row[j] * v[j] for j in range(len(v))), start=0 * v[0]) for row in m]


def matmul(a, b):
    if a and b and len(a[0]) != len(b):
        raise ValueError("dimension mismatch")
    bt = transpose(b)
    return [[sum((ra[k] * cb[k] for k in range(len(ra))), start=0 * ra[0]) for cb in bt] for ra in a]


def scale_vec(c, v):
    return [c * x for x in v]


def add_vec(u, v):
    return [a + b for a, b in zip(u, v)]


def sub_vec(u, v):
    return [a - b for a, b in zip(u, v)]


def is_zero_vec(v) -> bool:
    return all(not x for x in v)


def rref(m):
    """Reduced row echelon form over Fraction.  Returns (rref, pivot_cols)."""
    work = [[Fraction(x) for x in row] for row in m]
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


def rref_and_kernel(m):
    """(rref, rank, kernel basis) of a Fraction matrix.

    Kernel vectors are exact: m @ v == 0.  rank + len(kernel) equals the
    column count.
    """
    n_cols = len(m[0]) if m else 0
    red, pivots = rref(m)
    rank = len(pivots)
    free = [c for c in range(n_cols) if c not in pivots]
    kernel = []
    for fc in free:
        v = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        kernel.append(v)
    return red, rank, kernel


def det(m) -> Fraction:
    """Determinant over Fraction by elimination."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    work = [[Fraction(x) for x in row] for row in m]
    sign = 1
    result = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if work[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
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


def inverse(m):
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
           for i, row in enumerate(m)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def echelon_span(vectors):
    """Canonical (RREF) basis of the span of the given vectors.

    The result is unique for the subspace, so equality of subspaces is
    equality of these bases.
    """
    vecs = [v for v in vectors if not is_zero_vec(v)]
    if not vecs:
        return []
    red, pivots = rref(vecs)
    return [red[r] for r in range(len(pivots))]


def reduce_vector(basis, v):
    """Residual of v after eliminating the pivot coordinates of an RREF basis."""
    out = [Fraction(x) for x in v]
    for row in basis:
        pc = next(c for c, x in enumerate(row) if x != 0)
        if out[pc] != 0:
            f = out[pc]
            out = [a - f * b for a, b in zip(out, row)]
    return out


def in_span(basis, v) -> bool:
    return is_zero_vec(reduce_vector(basis, v))


def matrix_order(m, bound: int) -> int | None:
    """Least k <= bound with m**k the identity, else None."""
    n = len(m)
    ident = identity(n)
    power = m
    for k in range(1, bound + 1):
        if power == ident:
            return k
        power = matmul(power, m)
    return None
