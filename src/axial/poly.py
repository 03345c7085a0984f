"""Sparse bivariate polynomials over Q, with resultants and rational roots.

The coefficient ring used throughout the package is Q[lam, mu]: exact
fractions in two fixed variables.  Rational scalars are plain
``fractions.Fraction`` values and coerce freely into polynomials, so code
that is generic over the coefficient ring can mix the two.  Nothing here
ever rounds: a float is refused, not converted.

A polynomial is stored in content/primitive-part style as integer
numerators over one positive denominator (Geddes, Czapor and Labahn,
*Algorithms for Computer Algebra*, 1992, ch. 2), so the ring operations,
evaluation and elimination all run on Python integers: a sum takes one
lcm of denominators, a product one product of them, and each result one
gcd normalisation; `dot`, the one sum of products beneath the algebra
kernel and `linalg`'s matrix products, normalises once per sum.  Evaluation
tables the powers of the point's numerators and denominators once for a
whole batch and returns the values as integers over one denominator
(`evaluate_all`), `resultant` is built on integer Bareiss determinants
(Bareiss, Math. Comp. 1968) and exact integer interpolation (Collins,
J. ACM 1971).  Polynomials and the vectors of the table print through one
`_linear_text`.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from . import linalg

VARS = ("lam", "mu")


def _var_index(var: str) -> int:
    if var not in VARS:
        raise ValueError(f"unknown variable {var!r}, expected one of {VARS}")
    return VARS.index(var)


def _literal(value) -> Fraction:
    """A rational literal: a Fraction, an integer, or a string such as
    "-3/64".  Floats and booleans raise TypeError, since reading them would
    round.  A string's exponent, as in "1e-3", is held to the digit limit
    int() puts on a string (sys.get_int_max_str_digits) in either sign, so
    "1e10000000" raises ValueError instead of taking seconds to read."""
    if isinstance(value, bool) or not isinstance(value, (str, int, Fraction)):
        raise TypeError(f"{value!r} is not a rational literal")
    if isinstance(value, str):
        exp = re.search(r"[eE]([-+]?\d[\d_]*)\s*$", value)
        # Pythons before 3.10.7 have no digit limit: int() gives 0, which is none
        limit = getattr(sys, "get_int_max_str_digits", int)()
        if exp and limit and abs(int(exp[1])) > limit:
            raise ValueError(f"the exponent of {value!r} exceeds the {limit}-digit limit")
    return Fraction(value)


class MultiPoly:
    """Polynomial in Q[lam, mu]: the sum of nums[(i, j)] lam^i mu^j over den.

    The form is canonical, so equal polynomials have equal fields: den > 0,
    no stored numerator is zero, and gcd(den, *nums) == 1.  The zero
    polynomial has no numerators and den 1.  Instances are treated as
    immutable.  `terms` is the {(i, j): Fraction} view of the coefficients;
    no code of the package builds it, and the benchmark's tracer and the
    tests read it.
    """

    __slots__ = ("nums", "den")

    def __init__(self, terms=None):
        coeffs = {}
        if terms:
            for (i, j), c in terms.items():
                c = _literal(c)
                if c:
                    coeffs[(int(i), int(j))] = c
        self.den = lcm(*(c.denominator for c in coeffs.values()))
        self.nums = {e: c.numerator * (self.den // c.denominator) for e, c in coeffs.items()}

    @staticmethod
    def _make(nums: dict, den: int) -> "MultiPoly":
        """The canonical form of the sum of nums[e] x^e over den, for a dict
        of int numerators that no other polynomial holds and a nonzero int
        den: zero numerators dropped, the common gcd divided out, the sign
        moved onto the numerators."""
        g = gcd(den, *nums.values())
        if den < 0:
            g = -g
        if g != 1:
            nums = {e: n // g for e, n in nums.items() if n}
            den //= g
        elif 0 in nums.values():
            nums = {e: n for e, n in nums.items() if n}
        poly = object.__new__(MultiPoly)
        poly.nums, poly.den = nums, den
        return poly

    @property
    def terms(self) -> dict:
        den = self.den
        return {e: Fraction(n, den) for e, n in self.nums.items()}

    @staticmethod
    def const(value) -> "MultiPoly":
        c = _literal(value)
        return MultiPoly._make({(0, 0): c.numerator} if c else {}, c.denominator)

    @staticmethod
    def variable(var: str) -> "MultiPoly":
        idx = _var_index(var)
        exps = (1, 0) if idx == 0 else (0, 1)
        return MultiPoly({exps: 1})

    # -- ring structure ---------------------------------------------------

    @staticmethod
    def _lift(other):
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return MultiPoly.const(other)
        return None

    def _sum(self, other: "MultiPoly", sign: int) -> "MultiPoly":
        """self + sign * other over the lcm of the two denominators."""
        g = gcd(self.den, other.den)
        u, v = other.den // g, sign * (self.den // g)
        nums = {e: n * u for e, n in self.nums.items()}
        for e, n in other.nums.items():
            nums[e] = nums.get(e, 0) + n * v
        return MultiPoly._make(nums, self.den * u)

    def __add__(self, other):
        other = MultiPoly._lift(other)
        if other is None:
            return NotImplemented
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._make({e: -n for e, n in self.nums.items()}, self.den)

    def __sub__(self, other):
        other = MultiPoly._lift(other)
        if other is None:
            return NotImplemented
        return self._sum(other, -1)

    def __rsub__(self, other):
        other = MultiPoly._lift(other)
        if other is None:
            return NotImplemented
        return other._sum(self, -1)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):  # a scalar scales the numerators
            if isinstance(other, bool) or not isinstance(other, (int, Fraction)):
                return NotImplemented
            num, den = other.as_integer_ratio()
            return MultiPoly._make({e: n * num for e, n in self.nums.items()}, self.den * den)
        nums = {}
        for (i1, j1), n1 in self.nums.items():
            for (i2, j2), n2 in other.nums.items():
                e = (i1 + i2, j1 + j2)
                nums[e] = nums.get(e, 0) + n1 * n2
        return MultiPoly._make(nums, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = MultiPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        other = MultiPoly._lift(other)
        if other is None:
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __bool__(self):
        return bool(self.nums)

    # -- queries ----------------------------------------------------------

    def coefficient(self, i: int, j: int) -> Fraction:
        return Fraction(self.nums.get((i, j), 0), self.den)

    def degree(self, var: str | None = None) -> int:
        """Degree in one variable, or total degree; -1 for the zero polynomial."""
        if not self.nums:
            return -1
        if var is None:
            return max(i + j for i, j in self.nums)
        idx = _var_index(var)
        return max(e[idx] for e in self.nums)

    def is_constant(self) -> bool:
        return all(e == (0, 0) for e in self.nums)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.coefficient(0, 0)

    # -- presentation -----------------------------------------------------

    def __str__(self):
        return _linear_text(
            (str(Fraction(self.nums[ij], self.den)),
             "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(VARS, ij) if e))
            for ij in sorted(self.nums, key=_grevlex_key, reverse=True))

    def __repr__(self):
        return f"MultiPoly({self})"

    def to_json(self) -> dict:
        """{"i,j": the coefficient of lam^i mu^j, printed as str(Fraction) does}."""
        out = {}
        for (i, j), n in sorted(self.nums.items()):
            g = gcd(n, self.den)
            out[f"{i},{j}"] = f"{n // g}" if g == self.den else f"{n // g}/{self.den // g}"
        return out


def _linear_text(pairs) -> str:
    """The sum of (coefficient text, name) pairs, as polynomials and the table
    print it: a coefficient 1 or -1 is a sign, one holding + or an inner - is
    parenthesised, an empty name is a constant term, and no pair prints 0."""
    parts = []
    for text, name in pairs:
        if not name:
            parts.append(text)
        elif text in ("1", "-1"):
            parts.append(text[:-1] + name)
        elif "+" in text or "-" in text[1:]:
            parts.append(f"({text})*{name}")
        else:
            parts.append(f"{text}*{name}")
    out = parts[0] if parts else "0"
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


def dot(xs, ys):
    """The sum of x * y over paired ring entries: MultiPoly, int or Fraction.

    When either list opens with a polynomial, the products of nonzero
    entries are accumulated as integer numerators over one running
    denominator (an lcm only when a product's does not divide it) and
    normalised once.  Otherwise this is sum(map(mul, xs, ys)), which a
    polynomial further on joins through its own operators.
    """
    if not (xs and ys and MultiPoly in (type(xs[0]), type(ys[0]))):
        return sum(map(mul, xs, ys))
    acc, den = {}, 1
    get = acc.get
    for x, y in zip(xs, ys):
        x = x if type(x) is MultiPoly else MultiPoly.const(x)
        if not x.nums:
            continue
        y = y if type(y) is MultiPoly else MultiPoly.const(y)
        if not y.nums:
            continue
        d = x.den * y.den
        if den % d:
            g = d // gcd(den, d)
            den *= g
            acc = {e: n * g for e, n in acc.items()}
            get = acc.get
        s = den // d
        for (i1, j1), n1 in x.nums.items():
            m = n1 * s
            for (i2, j2), n2 in y.nums.items():
                e = (i1 + i2, j1 + j2)
                acc[e] = get(e, 0) + m * n2
    return MultiPoly._make(acc, den)


def _power_row(x: Fraction, k: int) -> list[int]:
    """[a^i b^(k-i) for i = 0..k] for x = a/b, so that x^i is entry i over b^k."""
    a, b = [1], [1]
    for _ in range(k):
        a.append(a[-1] * x.numerator)
        b.append(b[-1] * x.denominator)
    return [a[i] * b[k - i] for i in range(k + 1)]


def evaluate_all(polys, lam, mu) -> tuple[list[int], int]:
    """(nums, den): the values of the polynomials at one rational point as
    integer numerators over one common denominator, over one power table.

    With lam = a/b, mu = c/d and I, J the largest degrees in lam and mu
    among the polynomials, a polynomial with numerators n_ij over den has
    the value sum n_ij a^i b^(I-i) c^j d^(J-j) over den b^I d^J.  The
    integers a^i b^(I-i) c^j d^(J-j) are tabled once for all of them, and
    each sum is scaled to the lcm of the polynomials' denominators.
    """
    lam, mu = _literal(lam), _literal(mu)
    exps = set().union(*(p.nums for p in polys))
    deg_l = max((i for i, _ in exps), default=0)
    deg_m = max((j for _, j in exps), default=0)
    lam_row, mu_row = _power_row(lam, deg_l), _power_row(mu, deg_m)
    mono = {(i, j): lam_row[i] * mu_row[j] for i, j in exps}
    den = lcm(*(p.den for p in polys))
    nums = [sum(map(mul, p.nums.values(), map(mono.__getitem__, p.nums))) * (den // p.den)
            for p in polys]
    return nums, den * lam.denominator ** deg_l * mu.denominator ** deg_m


ZERO = MultiPoly()
ONE = MultiPoly.const(1)
LAM = MultiPoly.variable("lam")
MU = MultiPoly.variable("mu")


def _univariate(coeffs, var: str, den: int = 1) -> MultiPoly:
    """The sum of coeffs[k] var^k over den, for integer coefficients low to high."""
    idx = _var_index(var)
    return MultiPoly._make({(k, 0) if idx == 0 else (0, k): c for k, c in enumerate(coeffs)}, den)


def _homogeneous(coeffs, p: int, q: int) -> int:
    """q^n f(p/q) for the integer coefficients of f, low to high, degree n:
    zero exactly when p/q is a root, computed without leaving the integers."""
    val, qk = 0, 1
    for c in reversed(coeffs):
        val = val * p + c * qk
        qk *= q
    return val


def _fibre(grid, p: int, q: int = 1) -> list[int]:
    """[q^J row(p/q) for each row of grid]: for (grid, den) = _integer_grid(f, x)
    and J the degree of f in the other variable y, the integer coefficients,
    low to high in x, of den q^J f with y = p/q."""
    return [_homogeneous(row, p, q) for row in grid]


def _other_var(var: str) -> str:
    return VARS[1 - _var_index(var)]


def _integer_grid(f: MultiPoly, eliminate: str):
    """(grid, den) with f = sum grid[k][j] x^k y^j / den over integers, where
    x is the variable `eliminate` and y the other one."""
    idx = _var_index(eliminate)
    grid = [[0] * (f.degree(_other_var(eliminate)) + 1) for _ in range(f.degree(eliminate) + 1)]
    for e, n in f.nums.items():
        grid[e[idx]][e[1 - idx]] = n
    return grid, f.den


def _newton_interpolate(xs, ys) -> list[int]:
    """Integer coefficients (low to high) of the polynomial through the
    points (xs, ys) of an integer polynomial at distinct integer nodes.

    Every divided difference of such a polynomial is an integer (the k-th
    one of t^j is the complete homogeneous symmetric polynomial of degree
    j - k in k + 1 nodes), so each division must be exact; a remainder
    means the values come from no integer polynomial and raises
    ArithmeticError.
    """
    c = list(ys)
    n = len(xs)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            q, r = divmod(c[i] - c[i - 1], xs[i] - xs[i - k])
            if r:
                raise ArithmeticError("a divided difference is not an integer")
            c[i] = q
    # expand c0 + (t - x0)(c1 + (t - x1)(c2 + ...)) from the inside out
    coeffs = [c[-1]]
    for x, ck in zip(reversed(xs[:-1]), reversed(c[:-1])):
        coeffs = [s - x * a for s, a in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] += ck
    return coeffs


def resultant(f: MultiPoly, g: MultiPoly, eliminate: str) -> MultiPoly:
    """Sylvester resultant of f and g with respect to `eliminate`.

    The result is a polynomial in the remaining variable; it vanishes at
    exactly the values of that variable over which f and g share a root
    in the eliminated one.  A degree 0 in the eliminated variable gives the
    Sylvester determinant's standard value (Cox, Little and O'Shea, *Ideals,
    Varieties, and Algorithms*, ch. 3 §6): f^n when m = 0, g^m when n = 0,
    and 1 when both are 0.

    The computation stays in the integers (Collins, "The calculation of
    multivariate polynomial resultants", J. ACM 1971).  With f = F / d_f
    and g = G / d_g for integer polynomials F, G and degrees m, n in the
    eliminated variable, res(f, g) = res(F, G) / (d_f^n d_g^m).  res(F, G)
    is an integer polynomial of degree at most n kf + m kg in the kept
    variable (kf, kg the degrees of F, G in it); its values at that many
    integer nodes plus one are integer Bareiss determinants of Sylvester
    matrices, and Newton interpolation over the integers recovers it.
    The number of nodes is one more than the tighter of two bounds on
    the degree of that determinant: the row bound n kf + m kg and the
    column bound, the sum over the Sylvester columns of the largest degree
    of an entry in each (an all-zero column counts 0: the determinant is
    then 0, and one node shows it).
    """
    if not f or not g:
        raise ValueError("resultant of a zero polynomial is not defined")
    m = f.degree(eliminate)
    n = g.degree(eliminate)
    kept = _other_var(eliminate)
    fc, df = _integer_grid(f, eliminate)
    gc, dg = _integer_grid(g, eliminate)
    size = m + n
    # the degree in the kept variable of each coefficient, -1 for a zero one
    fdeg = [max((j for j, c in enumerate(row) if c), default=-1) for row in fc]
    gdeg = [max((j for j, c in enumerate(row) if c), default=-1) for row in gc]
    # column col holds f's coefficient of x^k in f-row col - m + k and g's in
    # g-row col - n + k, for the shifts that exist
    columns = sum(max([0] + [fdeg[k] for k in range(m + 1) if 0 <= col - m + k < n]
                      + [gdeg[k] for k in range(n + 1) if 0 <= col - n + k < m])
                  for col in range(size))
    bound = min(n * (len(fc[0]) - 1) + m * (len(gc[0]) - 1), columns)

    # Evaluate the Sylvester determinant at bound+1 integer nodes of the kept
    # variable; this avoids polynomial-entry elimination.
    xs, ys = [], []
    t = 0
    while len(xs) < bound + 1:
        fr, gr = _fibre(fc, t), _fibre(gc, t)
        rows = []
        for shift in range(n):
            row = [0] * size
            for k, c in enumerate(fr):
                row[shift + (m - k)] = c
            rows.append(row)
        for shift in range(m):
            row = [0] * size
            for k, c in enumerate(gr):
                row[shift + (n - k)] = c
            rows.append(row)
        xs.append(t)
        ys.append(linalg.integer_det(rows))
        t = -t if t > 0 else -t + 1
    return _univariate(_newton_interpolate(xs, ys), kept, df ** n * dg ** m)


def _prime_factors(n: int) -> dict[int, int]:
    """Prime factorisation {p: k} of |n| > 0 by trial division.

    Each prime is divided out as soon as it is found and the search stops
    at the square root of the remaining cofactor, which is then prime, so
    a smooth n such as 2^43 costs a few dozen divisions, and no n costs
    more than trial division up to its own square root.
    """
    n = abs(n)
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def _divisors(n: int) -> list[int]:
    """All positive divisors of a nonzero integer, from its factorisation."""
    divs = [1]
    for p, k in _prime_factors(n).items():
        divs = [d * p**e for d in divs for e in range(k + 1)]
    return divs


def rational_roots(f: MultiPoly) -> set[Fraction]:
    """All rational roots of a nonzero univariate polynomial, verified exactly.

    By the rational root test every root p/q in lowest terms of the
    primitive integer form has p dividing the constant and q the leading
    coefficient.  Each such candidate with gcd(p, q) = 1 that passes the
    sieve at 1 and -1 is tested exactly, on the integer q^n f(p/q).
    """
    if not f:
        raise ValueError("rational_roots of the zero polynomial")
    deg_l, deg_m = f.degree("lam"), f.degree("mu")
    if deg_l > 0 and deg_m > 0:
        raise ValueError("polynomial is not univariate")
    var = "lam" if deg_l > 0 else "mu"
    if f.is_constant():
        return set()
    coeffs = [row[0] for row in _integer_grid(f, var)[0]]
    # divide out the power of the variable: 0 is a root exactly when it is positive
    low = next(k for k, c in enumerate(coeffs) if c)
    roots = {Fraction(0)} if low else set()
    coeffs = coeffs[low:]
    if len(coeffs) == 1:
        return roots

    # Divide the numerators by their content to get a primitive integer
    # polynomial with the same roots.
    content = gcd(*coeffs)
    ints = [c // content for c in coeffs]

    # a root p/q gives q - p | F(1), q + p | F(-1) (Gauss's lemma); d | v iff gcd(d, v) = |d|
    at_one, at_minus_one = sum(ints), _homogeneous(ints, -1, 1)
    numerators = _divisors(ints[0])
    for q in _divisors(ints[-1]):
        for p in numerators:
            if gcd(p, q) != 1:
                continue
            for num in (p, -p):
                below, above = q - num, q + num
                if (gcd(below, at_one) == abs(below) and gcd(above, at_minus_one) == abs(above)
                        and _homogeneous(ints, num, q) == 0):
                    roots.add(Fraction(num, q))
    # re-checked through evaluate_all, which does not use _homogeneous
    for r in roots:
        if evaluate_all([f], r, r)[0][0]:
            raise ArithmeticError(f"candidate root {r} does not annihilate {f}")
    return roots


# -- leading terms (graded reverse lexicographic) ---------------------------


def _grevlex_key(e):
    return (e[0] + e[1], -e[1])


def leading_term(f: MultiPoly):
    if not f:
        raise ValueError("zero polynomial has no leading term")
    e = max(f.nums, key=_grevlex_key)
    return e, Fraction(f.nums[e], f.den)
