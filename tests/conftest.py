from fractions import Fraction as Q

import pytest

from axial import linalg
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


@pytest.fixture(scope="session")
def uni():
    return build_universal()


@pytest.fixture(scope="session")
def points(uni):
    return {(pt.lam, pt.mu): pt for pt in solve_points(uni)}


@pytest.fixture(scope="session")
def report(uni):
    return classify(uni)
