"""Sparse bivariate polynomials over Q, with resultants, rational roots
and a small Buchberger engine.

The coefficient ring used throughout the package is Q[lam, mu]: exact
fractions in two fixed variables.  Rational scalars are plain
``fractions.Fraction`` values and coerce freely into polynomials, so code
that is generic over the coefficient ring can mix the two.  Nothing here
ever rounds.

Evaluation and elimination leave the rationals for the integers: a
polynomial is evaluated as integer numerators over one denominator, with
the powers of the point's numerators and denominators tabled once for a
whole batch (`evaluate_all`), and `resultant` is fraction-free, built on
integer Bareiss determinants (Bareiss, Math. Comp. 1968) and exact integer
interpolation (Collins, J. ACM 1971).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .linalg import clear_denominators, integer_det

VARS = ("lam", "mu")


def _var_index(var: str) -> int:
    if var not in VARS:
        raise ValueError(f"unknown variable {var!r}, expected one of {VARS}")
    return VARS.index(var)


class MultiPoly:
    """Polynomial in Q[lam, mu] stored as a map exponent pair -> coefficient.

    The zero polynomial is the empty map and no stored coefficient is zero.
    Instances are treated as immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff != 0:
                    i, j = exps
                    clean[(int(i), int(j))] = coeff
        self.terms = clean

    @staticmethod
    def _of(terms) -> "MultiPoly":
        """Wrap a map whose coefficients are already Fractions under pairs of
        int exponents, dropping the zero coefficients.  The ring operations
        build their results through this instead of re-coercing every term."""
        poly = object.__new__(MultiPoly)
        poly.terms = {e: c for e, c in terms.items() if c}
        return poly

    @staticmethod
    def const(value) -> "MultiPoly":
        return MultiPoly({(0, 0): Fraction(value)})

    @staticmethod
    def variable(var: str) -> "MultiPoly":
        idx = _var_index(var)
        exps = (1, 0) if idx == 0 else (0, 1)
        return MultiPoly({exps: Fraction(1)})

    # -- ring structure ---------------------------------------------------

    @staticmethod
    def _lift(other):
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(other)
        return None

    def __add__(self, other):
        other = MultiPoly._lift(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms[e] + c if e in terms else c
        return MultiPoly._of(terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._of({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = MultiPoly._lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = MultiPoly._lift(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = MultiPoly._lift(other)
        if other is None:
            return NotImplemented
        terms = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                e = (i1 + i2, j1 + j2)
                c = c1 * c2
                terms[e] = terms[e] + c if e in terms else c
        return MultiPoly._of(terms)

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
        return self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    # -- queries ----------------------------------------------------------

    def coefficient(self, i: int, j: int) -> Fraction:
        return self.terms.get((i, j), Fraction(0))

    def degree(self, var: str | None = None) -> int:
        """Degree in one variable, or total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        if var is None:
            return max(i + j for i, j in self.terms)
        idx = _var_index(var)
        return max(e[idx] for e in self.terms)

    def is_constant(self) -> bool:
        return all(e == (0, 0) for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.coefficient(0, 0)

    def evaluate(self, lam, mu) -> Fraction:
        """Value at a rational point; see evaluate_all."""
        return evaluate_all([self], lam, mu)[0]

    def substitute(self, lam=None, mu=None) -> "MultiPoly":
        """Partially evaluate; variables left as None stay symbolic."""
        lam = None if lam is None else Fraction(lam)
        mu = None if mu is None else Fraction(mu)
        terms = {}
        for (i, j), c in self.terms.items():
            if lam is not None:
                c = c * lam ** i
                i = 0
            if mu is not None:
                c = c * mu ** j
                j = 0
            e = (i, j)
            terms[e] = terms[e] + c if e in terms else c
        return MultiPoly._of(terms)

    # -- presentation -----------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (i, j), c in sorted(self.terms.items(), key=lambda t: _grevlex_key(t[0]), reverse=True):
            factors = []
            if i:
                factors.append("lam" if i == 1 else f"lam^{i}")
            if j:
                factors.append("mu" if j == 1 else f"mu^{j}")
            mono = "*".join(factors)
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"MultiPoly({self})"

    def to_json(self) -> dict:
        return {f"{i},{j}": str(c) for (i, j), c in sorted(self.terms.items())}

    @staticmethod
    def from_json(data: dict) -> "MultiPoly":
        """Parse {"i,j": coefficient} with rational literals as coefficients."""
        terms = {}
        for key, val in data.items():
            i, j = key.split(",")
            terms[(int(i), int(j))] = _literal(val)
        return MultiPoly(terms)


def _literal(value) -> Fraction:
    """A rational JSON literal: a string such as "-3/64", or an integer.
    Floats and booleans raise TypeError, since reading them would round."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise TypeError(f"{value!r} is not a rational literal")
    return Fraction(value)


def _powers(x: int, k: int) -> list[int]:
    """[1, x, x^2, ..., x^k]."""
    out = [1]
    for _ in range(k):
        out.append(out[-1] * x)
    return out


def evaluate_all(polys, lam, mu) -> list[Fraction]:
    """Values of the polynomials at one rational point, over one power table.

    With lam = a/b, mu = c/d and I, J the largest degrees in lam and mu
    among the polynomials, a polynomial with coefficients n_ij / den has
    the value sum n_ij a^i b^(I-i) c^j d^(J-j) over den b^I d^J.  The
    integers a^i b^(I-i) and c^j d^(J-j) are tabled once for all of them.
    """
    lam, mu = Fraction(lam), Fraction(mu)
    deg_l = max((i for p in polys for i, _ in p.terms), default=0)
    deg_m = max((j for p in polys for _, j in p.terms), default=0)
    a, b = _powers(lam.numerator, deg_l), _powers(lam.denominator, deg_l)
    c, d = _powers(mu.numerator, deg_m), _powers(mu.denominator, deg_m)
    lam_row = [a[i] * b[deg_l - i] for i in range(deg_l + 1)]
    mu_row = [c[j] * d[deg_m - j] for j in range(deg_m + 1)]
    scale = b[deg_l] * d[deg_m]
    out = []
    for p in polys:
        if not p.terms:
            out.append(Fraction(0))
            continue
        nums, den = clear_denominators(list(p.terms.values()))
        total = sum(n * lam_row[i] * mu_row[j] for (i, j), n in zip(p.terms, nums))
        out.append(Fraction(total, den * scale))
    return out


ZERO = MultiPoly()
ONE = MultiPoly.const(1)
LAM = MultiPoly.variable("lam")
MU = MultiPoly.variable("mu")


def coefficients_in(f: MultiPoly, var: str) -> list[MultiPoly]:
    """Coefficients of f viewed as a polynomial in `var`, low to high.

    Entry k is a polynomial in the other variable.
    """
    idx = _var_index(var)
    deg = f.degree(var)
    if deg < 0:
        return []
    coeffs = [dict() for _ in range(deg + 1)]
    for e, c in f.terms.items():
        k = e[idx]
        rest = (0, e[1]) if idx == 0 else (e[0], 0)
        coeffs[k][rest] = c
    return [MultiPoly(d) for d in coeffs]


def from_coefficients(coeffs, var: str) -> MultiPoly:
    """Assemble a univariate polynomial in `var` from Fraction coefficients."""
    idx = _var_index(var)
    terms = {}
    for k, c in enumerate(coeffs):
        c = Fraction(c)
        if c:
            terms[(k, 0) if idx == 0 else (0, k)] = c
    return MultiPoly(terms)


def _univariate_coeffs(f: MultiPoly, var: str) -> list[Fraction]:
    """Rational coefficients of f in `var`, low to high; f must involve no
    other variable."""
    return [c.constant_value() for c in coefficients_in(f, var)]


def _horner(coeffs, x):
    """Value at x of the univariate polynomial with `coeffs`, low to high;
    an integer for integer coefficients and x."""
    val = 0
    for c in reversed(coeffs):
        val = val * x + c
    return val


def _homogeneous(coeffs, p: int, q: int) -> int:
    """q^n f(p/q) for the integer coefficients of f, low to high, degree n:
    zero exactly when p/q is a root, computed without leaving the integers."""
    val, qk = 0, 1
    for c in reversed(coeffs):
        val = val * p + c * qk
        qk *= q
    return val


def _other_var(var: str) -> str:
    return VARS[1 - _var_index(var)]


def _integer_grid(f: MultiPoly, eliminate: str):
    """(grid, den) with f = sum grid[k][j] x^k y^j / den over integers, where
    x is the variable `eliminate` and y the other one."""
    idx = _var_index(eliminate)
    nums, den = clear_denominators(list(f.terms.values()))
    grid = [[0] * (f.degree(_other_var(eliminate)) + 1) for _ in range(f.degree(eliminate) + 1)]
    for e, c in zip(f.terms, nums):
        grid[e[idx]][e[1 - idx]] = c
    return grid, den


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
    in the eliminated one.

    The computation stays in the integers (Collins, "The calculation of
    multivariate polynomial resultants", J. ACM 1971).  With f = F / d_f
    and g = G / d_g for integer polynomials F, G and degrees m, n in the
    eliminated variable, res(f, g) = res(F, G) / (d_f^n d_g^m).  res(F, G)
    is an integer polynomial of degree at most n kf + m kg in the kept
    variable (kf, kg the degrees of F, G in it); its values at that many
    integer nodes plus one are integer Bareiss determinants of Sylvester
    matrices, and Newton interpolation over the integers recovers it.
    """
    if not f or not g:
        raise ValueError("resultant of a zero polynomial is not defined")
    m = f.degree(eliminate)
    n = g.degree(eliminate)
    if m < 1 or n < 1:
        raise ValueError(f"inputs must have positive degree in {eliminate}")
    kept = _other_var(eliminate)
    fc, df = _integer_grid(f, eliminate)
    gc, dg = _integer_grid(g, eliminate)
    bound = n * (len(fc[0]) - 1) + m * (len(gc[0]) - 1)

    # Evaluate the Sylvester determinant at bound+1 integer nodes of the kept
    # variable; this avoids polynomial-entry elimination.
    size = m + n
    xs, ys = [], []
    t = 0
    while len(xs) < bound + 1:
        fr = [_horner(c, t) for c in fc]
        gr = [_horner(c, t) for c in gc]
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
        ys.append(integer_det(rows))
        t = -t if t > 0 else -t + 1
    scale = df ** n * dg ** m
    return from_coefficients([Fraction(c, scale) for c in _newton_interpolate(xs, ys)], kept)


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
    coefficient.  Each such candidate with gcd(p, q) = 1 is tested exactly,
    on the integer value of q^n f(p/q).
    """
    if not f:
        raise ValueError("rational_roots of the zero polynomial")
    deg_l, deg_m = f.degree("lam"), f.degree("mu")
    if deg_l > 0 and deg_m > 0:
        raise ValueError("polynomial is not univariate")
    var = "lam" if deg_l > 0 else "mu"
    if f.is_constant():
        return set()
    all_coeffs = _univariate_coeffs(f, var)

    roots = set()
    low = 0
    while all_coeffs[low] == 0:
        low += 1
    if low > 0:
        roots.add(Fraction(0))
    coeffs = all_coeffs[low:]
    if len(coeffs) == 1:
        return roots

    # Clear denominators and divide by content to get a primitive integer
    # polynomial with the same roots.
    ints, _ = clear_denominators(coeffs)
    content = gcd(*ints)
    ints = [c // content for c in ints]

    for p in _divisors(ints[0]):
        for q in _divisors(ints[-1]):
            if gcd(p, q) != 1:
                continue
            for num in (p, -p):
                if _homogeneous(ints, num, q) == 0:
                    roots.add(Fraction(num, q))
    for r in roots:
        if _horner(all_coeffs, r) != 0:
            raise ArithmeticError(f"candidate root {r} does not annihilate {f}")
    return roots


def univariate_gcd(f: MultiPoly, g: MultiPoly, var: str) -> MultiPoly:
    """Monic gcd of two univariate polynomials in `var` over Q."""

    def strip(cs):
        while cs and cs[-1] == 0:
            cs.pop()
        return cs

    a, b = strip(_univariate_coeffs(f, var)), strip(_univariate_coeffs(g, var))
    while b:
        # remainder of a modulo b
        a = a[:]
        while len(a) >= len(b) and a:
            factor = a[-1] / b[-1]
            shift = len(a) - len(b)
            for k in range(len(b)):
                a[shift + k] -= factor * b[k]
            strip(a)
        a, b = b, a
    if not a:
        return ZERO
    lead = a[-1]
    return from_coefficients([c / lead for c in a], var)


# -- Groebner bases (two variables, graded reverse lexicographic) ---------


def _grevlex_key(e):
    return (e[0] + e[1], -e[1])


def leading_term(f: MultiPoly):
    if not f:
        raise ValueError("zero polynomial has no leading term")
    e = max(f.terms, key=_grevlex_key)
    return e, f.terms[e]


def _divides(e, m):
    return e[0] <= m[0] and e[1] <= m[1]


def _monomial(e, c=1):
    return MultiPoly({e: Fraction(c)})


def reduce_poly(f: MultiPoly, basis) -> MultiPoly:
    """Remainder of f under multivariate division by `basis`."""
    rem = ZERO
    work = f
    while work:
        e, c = leading_term(work)
        for b in basis:
            be, bc = leading_term(b)
            if _divides(be, e):
                quot = _monomial((e[0] - be[0], e[1] - be[1]), c / bc)
                work = work - quot * b
                break
        else:
            rem = rem + _monomial(e, c)
            work = work - _monomial(e, c)
    return rem


def s_polynomial(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    fe, fc = leading_term(f)
    ge, gc = leading_term(g)
    lcm_e = (max(fe[0], ge[0]), max(fe[1], ge[1]))
    uf = _monomial((lcm_e[0] - fe[0], lcm_e[1] - fe[1]), Fraction(1, 1) / fc)
    ug = _monomial((lcm_e[0] - ge[0], lcm_e[1] - ge[1]), Fraction(1, 1) / gc)
    return uf * f - ug * g


def buchberger(gens) -> list[MultiPoly]:
    """Reduced Groebner basis (grevlex) of the ideal generated by `gens`."""
    basis = [g for g in gens if g]
    if not basis:
        return []
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop()
        fe, _ = leading_term(basis[i])
        ge, _ = leading_term(basis[j])
        if min(fe[0], ge[0]) == 0 and min(fe[1], ge[1]) == 0:
            continue  # coprime leading monomials: S-polynomial reduces to zero
        rem = reduce_poly(s_polynomial(basis[i], basis[j]), basis)
        if rem:
            basis.append(rem)
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    # interreduce to the unique reduced basis
    reduced = []
    for i, b in enumerate(basis):
        others = basis[:i] + basis[i + 1 :]
        rem = reduce_poly(b, others)
        if rem:
            reduced.append(rem)
    final = []
    for i, b in enumerate(reduced):
        rem = reduce_poly(b, reduced[:i] + reduced[i + 1 :])
        if rem:
            _, lc = leading_term(rem)
            final.append(rem * (Fraction(1) / lc))
    final.sort(key=lambda p: _grevlex_key(leading_term(p)[0]))
    return final


def standard_monomial_count(gens) -> int | None:
    """Dimension of Q[lam,mu]/(gens) as a vector space; None when infinite."""
    for g in gens:
        if not g:
            raise ValueError("generators must be nonzero")
    basis = buchberger(gens)
    if not basis:
        return None
    leads = [leading_term(b)[0] for b in basis]
    pure_lam = [e[0] for e in leads if e[1] == 0]
    pure_mu = [e[1] for e in leads if e[0] == 0]
    if not pure_lam or not pure_mu:
        return None
    count = 0
    for i in range(min(pure_lam)):
        for j in range(min(pure_mu)):
            if not any(_divides(e, (i, j)) for e in leads):
                count += 1
    return count
