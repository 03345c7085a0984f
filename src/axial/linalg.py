"""Dense exact linear algebra.

Matrices and vectors are plain nested lists.  Inside the kernel a rational
vector or matrix row (Fraction or int entries) is held as integer
numerators over one common denominator (`clear_denominators`): products
accumulate integers and divide once per output entry, row reduction and
determinants eliminate over the integers, and every result is handed back
as exact Fractions.  Anything that divides (row reduction, kernels,
inverses) requires rational entries; the shape helpers and products are
generic and also serve matrices over the polynomial ring.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

_ZERO = Fraction(0)


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
    width = len(m[0]) if m else 0
    return [nums[i * width:(i + 1) * width] for i in range(len(m))], den


def is_rational(rows) -> bool:
    """Whether every entry of the rows is a Fraction or an int.

    Rational inputs take the integer route of the kernel; anything else
    (MultiPoly entries) takes the generic loops.
    """
    return all(isinstance(x, (Fraction, int)) for row in rows for x in row)


def _primitive(row):
    """The integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def zeros(rows: int, cols: int):
    return [[Fraction(0)] * cols for _ in range(rows)]


def identity(n: int):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def transpose(m):
    return [list(col) for col in zip(*m)]


def matvec(m, v):
    if m and len(m[0]) != len(v):
        raise ValueError("dimension mismatch")
    if is_rational([v]) and is_rational(m):
        nv, dv = clear_denominators(v)
        out = []
        for row in m:
            nr, dr = clear_denominators(row)
            out.append(Fraction(sum(map(mul, nr, nv)), dr * dv))
        return out
    return [sum((row[j] * v[j] for j in range(len(v))), start=0 * v[0]) for row in m]


def matmul(a, b):
    if a and b and len(a[0]) != len(b):
        raise ValueError("dimension mismatch")
    bt = transpose(b)
    if is_rational(a) and is_rational(b):
        cols = [clear_denominators(col) for col in bt]
        out = []
        for row in a:
            nr, dr = clear_denominators(row)
            out.append([Fraction(sum(map(mul, nr, nc)), dr * dc) for nc, dc in cols])
        return out
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
    """Reduced row echelon form of a rational matrix.  Returns (rref, pivot_cols).

    Each row is cleared to primitive integers, which leaves its span
    alone.  Elimination replaces a row by p * row - f * pivot_row (p and f
    divided by their gcd) and divides the result by its content, so
    entries stay small and no rational arithmetic happens until each
    pivot row is divided by its pivot at the end.
    """
    work = [_primitive(clear_denominators(row)[0]) for row in m]
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
                work[i] = _primitive([a * x - b * y for x, y in zip(work[i], prow)])
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    red = [[Fraction(x, row[c]) if x else _ZERO for x in row]
           for row, c in zip(work, pivots)]
    red.extend([_ZERO] * n_cols for _ in range(n_rows - r))
    return red, pivots


def rref_and_kernel(m):
    """(rref, rank, kernel basis) of a rational matrix.

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
    """Determinant of a rational matrix by Bareiss elimination.

    Rows are cleared to integers, whose determinant `integer_det` takes;
    the row denominators are then multiplied out.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    cleared = [clear_denominators(row) for row in m]
    return Fraction(integer_det([nums for nums, _ in cleared]),
                    prod(den for _, den in cleared))


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


def inverse(m):
    n = len(m)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
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
    """Residual of v after eliminating the pivot coordinates of an RREF basis.

    The residual is kept as integers over one denominator; subtracting
    f times a cleared row nums / d is d * out - f * nums over den * d.
    """
    out, den = clear_denominators(v)
    for row in basis:
        pc = next(c for c, x in enumerate(row) if x != 0)
        f = out[pc]
        if f:
            nums, d = clear_denominators(row)
            out = [d * a - f * b for a, b in zip(out, nums)]
            g = gcd(den * d, *out)
            den = den * d // g
            out = [a // g for a in out]
    return [Fraction(a, den) if a else _ZERO for a in out]


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
