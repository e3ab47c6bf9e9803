"""Dense univariate polynomials and rational functions over Q.

Polynomials are immutable dense coefficient tuples in ascending degree with
no trailing zeros; the zero polynomial has degree -inf.  Heavy kernels
(Wronskians, gcd) clear denominators and run over Python's unbounded
integers before restoring exact rational results; coprimality is first
tried mod a prime, where a constant gcd is a proof.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd as int_gcd
from operator import truediv

from .scalars import _clear_ints, _int_clear, rat, rational_sqrt

NEG_INF = float("-inf")


class InexactDivisionError(ValueError):
    """Raised when a polynomial division expected to be exact leaves a remainder."""


class NotASquareError(ValueError):
    """Raised when a polynomial has no polynomial square root."""


class Poly:
    """A univariate polynomial over Q, stored densely in ascending degree."""

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs=()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __reduce__(self):
        return Poly, (self.coeffs,)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, k: int, c=1) -> "Poly":
        if k < 0:
            raise ValueError(f"negative monomial degree {k}")
        return cls((0,) * k + (c,))

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls((c,))

    @staticmethod
    def lift(f) -> "Poly":
        if isinstance(f, Poly):
            return f
        return Poly((rat(f),))

    @staticmethod
    def _coerce(f) -> "Poly | None":
        if isinstance(f, Poly):
            return f
        if isinstance(f, (int, Fraction)):
            return Poly((f,))
        return None

    # -- basic structure --------------------------------------------------

    @property
    def degree(self):
        """Degree as an int, or -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def lc(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def monic(self) -> "Poly":
        if self.is_zero() or self.lc == 1:
            return self
        return self * (1 / self.lc)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coeff(i) + other.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = rat(other)
            return Poly([a * c for a in self.coeffs])
        other = Poly._coerce(other)
        if other is None:
            return NotImplemented
        return Poly(convolve(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        out = Poly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __divmod__(self, other):
        other = Poly.lift(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        quo, rem = long_divide(self.coeffs, other.coeffs, truediv)
        return Poly(quo), Poly(rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.lift(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __hash__(self):
        # Computed on first use: hashing the Fraction coefficients is costly
        # and a Poly is often hashed many times as a set member or memo key.
        try:
            return self._hash
        except AttributeError:
            h = hash(self.coeffs)
            object.__setattr__(self, "_hash", h)
            return h

    # -- calculus and evaluation -----------------------------------------

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        if isinstance(x, (bool, float)):
            raise TypeError(f"cannot evaluate a polynomial at {x!r}; the point must be exact")
        out = Fraction(0) if isinstance(x, (int, Fraction)) else 0 * x
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def translate(self, c) -> "Poly":
        """The polynomial f(x + c)."""
        c = rat(c)
        out = Poly.zero()
        shift = Poly((c, 1))
        for a in reversed(self.coeffs):
            out = out * shift + a
        return out

    # -- display and serialization ---------------------------------------

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                term = str(c)
            else:
                xs = "x" if i == 1 else f"x^{i}"
                if c == 1:
                    term = xs
                elif c == -1:
                    term = f"-{xs}"
                else:
                    term = f"{c}*{xs}"
            parts.append(term)
        s = parts[0]
        for term in parts[1:]:
            s += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return s

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    @staticmethod
    def from_json(obj) -> "Poly":
        """A list of coefficients as ints or exact strings.  Anything but a
        list (a string would be read digit by digit) is rejected here,
        booleans and floats by the constructor's ``scalars.rat``, all with
        TypeError."""
        if not isinstance(obj, list):
            raise TypeError(f"expected a list of coefficients, got {obj!r}")
        return Poly(obj)


# -- coefficient kernels ---------------------------------------------------
#
# One linear combination, one product, one long division and one formal
# square root for ascending coefficient sequences over any ring: int,
# Fraction or MPoly.


def lincomb(terms) -> list:
    """Coefficients of the sum of c * f over the terms (c, f), trimmed; zero
    weights and zero coefficients are skipped, so [] is the zero sum."""
    out = []
    for c, f in terms:
        if c:
            if len(out) < len(f):
                out.extend([0] * (len(f) - len(out)))
            for j, v in enumerate(f):
                if v:
                    out[j] += c * v
    return _iz_trim(out)


def convolve(f, g) -> list:
    """Coefficients of the product of f and g; [] when either is empty."""
    if not f or not g:
        return []
    out = [f[0] * 0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def long_divide(f, g, divide) -> tuple[list, list]:
    """Quotient and remainder of f by g, whose last coefficient is nonzero.

    divide(c, lc) is the ring's exact division by the leading coefficient
    of g and may raise; it is never called on a zero coefficient.  The
    remainder keeps the length of f, with zeros above deg g - 1.
    """
    rem = list(f)
    dq = len(f) - len(g)
    quo = [None] * (dq + 1)
    glc = g[-1]
    for k in range(dq, -1, -1):
        c = rem[k + len(g) - 1]
        if c:
            c = divide(c, glc)
            for j, b in enumerate(g):
                rem[k + j] -= c * b
        quo[k] = c
    return quo, rem


def formal_sqrt(f, top, divide) -> list:
    """The coefficients below the top of the formal square root of f.

    f has even degree 2h and top is the root's leading coefficient, with
    top * top == f[-1].  Going down from j = h - 1, coefficient j is
    (f[h + j] - sum of g[i] * g[h + j - i] over j < i < h) / (2 top),
    with divide as the ring's exact division.  Only the top h coefficients
    of f are read; the caller checks the rest by squaring the root.
    """
    half = (len(f) - 1) // 2
    g = [None] * half
    two_top = 2 * top
    for j in range(half - 1, -1, -1):
        acc = f[half + j]
        for i in range(j + 1, half):
            acc -= g[i] * g[half + j - i]
        g[j] = divide(acc, two_top)
    return g


# -- integer kernels -------------------------------------------------------


def _iz_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f

def _iz_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise InexactDivisionError("inexact division in integer kernel")
    return q

def _iz_exact_div(f: list[int], g: list[int]) -> list[int]:
    """Exact division in Z[x]; inputs must divide exactly."""
    quo, rem = long_divide(f, g, _iz_div)
    if any(rem):
        raise InexactDivisionError("inexact division in integer kernel")
    return quo

def _iz_primitive(f: list[int]) -> list[int]:
    g = int_gcd(*f)
    if g == 0:
        return []
    if f[-1] < 0:
        g = -g
    return [v // g for v in f]

def _iz_derivative(f: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(f)][1:]

def _iz_gcd(a: list[int], b: list[int]) -> list[int]:
    """A gcd in Z[x], up to an integer factor; [] for two zeros.

    A primitive remainder sequence: pseudo-remainders, each made primitive
    to control coefficient growth.
    """
    if len(a) < len(b):
        a, b = b, a
    while b:
        # Each remainder is shorter than b, so a stays the longer of the two.
        scale = b[-1] ** (len(a) - len(b) + 1)
        _, r = long_divide([v * scale for v in a], b, _iz_div)
        a, b = b, _iz_primitive(_iz_trim(r))
    return a


_P = 2**31 - 1  # the prime of the modular coprimality test


def _gfp_gcd_degree(a: list[int], b: list[int]) -> int:
    """Degree of gcd(a, b) in GF(_P)[x]; entries reduced, b nonzero.

    Euclid with one modular inverse per remainder step: b is made monic,
    then each top coefficient of the remainder is its own quotient digit.
    """
    a = _iz_trim(a)
    while b:
        inv = pow(b[-1], -1, _P)
        b = [v * inv % _P for v in b]
        n = len(b) - 1
        for k in range(len(a) - 1, n - 1, -1):
            c = a[k]
            if c:
                for j in range(n):
                    a[k - n + j] = (a[k - n + j] - c * b[j]) % _P
        a, b = b, _iz_trim(a[:n])
    return len(a) - 1


# -- public operations -----------------------------------------------------


class WronskianTable:
    """Wronskians of the subsets of a fixed list of polynomials.

    Each polynomial is cleared to a primitive integer list times a rational
    scale.  Level k holds the integer Wronskian of every k-subset, keyed by
    increasing index tuples in ``combinations`` order, and is built on first
    use from level k - 1: the Laplace expansion along the last column
    (derivative k - 1) makes each entry a signed sum of k products of a
    (k - 1)-subset entry and one derivative, with no division.  All levels
    of n polynomials take n * 2^(n-1) products.
    """

    def __init__(self, polys):
        cleared = [_int_clear(f.coeffs) for f in polys]
        self._derivs = [[ints] for ints, _ in cleared]  # 0th, 1st, ... derivative
        self._scales = [s for _, s in cleared]
        self._levels = [{(): [1]}]

    def level(self, k: int) -> dict[tuple[int, ...], list[int]]:
        """The integer Wronskians of all k-subsets."""
        n = len(self._derivs)
        if not 0 <= k <= n:
            raise ValueError(f"subset size must be in 0..{n}, got {k}")
        while len(self._levels) <= k:
            k_new = len(self._levels)
            prev = self._levels[-1]
            if k_new > 1:
                for d in self._derivs:
                    d.append(_iz_derivative(d[-1]))
            tops = [d[k_new - 1] for d in self._derivs]
            out = {}
            for subset in combinations(range(n), k_new):
                acc = []
                for p, i in enumerate(subset):
                    top, minor = tops[i], prev[subset[:p] + subset[p + 1 :]]
                    if not top or not minor:
                        continue
                    if len(acc) < len(top) + len(minor) - 1:
                        acc.extend([0] * (len(top) + len(minor) - 1 - len(acc)))
                    # Cofactor sign (-1)^(row + column) with 1-based row p + 1.
                    sign = -1 if (p + k_new) % 2 == 0 else 1
                    for a, c in enumerate(top):
                        if c:
                            c *= sign
                            for b, m in enumerate(minor, a):
                                acc[b] += c * m
                out[subset] = _iz_trim(acc)
            self._levels.append(out)
        return self._levels[k]

    def scale(self, subset) -> Fraction:
        """The rational factor of the subset's Wronskian over its entry."""
        out = Fraction(1)
        for i in subset:
            out *= self._scales[i]
        return out


class ProductTable:
    """Quadratic combinations of a growing list of polynomials.

    Each polynomial is cleared to a primitive integer list times a rational
    scale, as in ``WronskianTable``; the integer product of a pair is
    computed once, on first use.  ``combine`` sums its terms as one integer
    combination of those products over one common denominator.
    """

    def __init__(self, polys=()):
        self._ints: list[list[int]] = []
        self._scales: list[Fraction] = []
        self._products: dict[tuple[int, int], list[int]] = {}
        for f in polys:
            self.add(f)

    def add(self, f) -> int:
        """Append the polynomial f and return its index."""
        ints, scale = _int_clear(Poly.lift(f).coeffs)
        self._ints.append(ints)
        self._scales.append(scale)
        return len(self._ints) - 1

    def combine(self, terms) -> Poly:
        """The polynomial sum of c * f_a * f_b over the terms ((a, b), c)."""
        pairs, weights = [], []
        for (a, b), c in terms:
            w = c * self._scales[a] * self._scales[b]
            if w:
                pair = (a, b) if a <= b else (b, a)
                if pair not in self._products:
                    self._products[pair] = convolve(self._ints[a], self._ints[b])
                pairs.append(pair)
                weights.append(w)
        ints, n, d = _clear_ints(weights)
        return Poly([Fraction(n * v, d) for v in lincomb(zip(ints, map(self._products.get, pairs)))])


def wronskian(polys) -> Poly:
    """Wronskian determinant of 1 to 8 polynomials.

    Row i holds the (i-1)-st derivatives, so a single polynomial is its own
    Wronskian.  It is the full entry of a ``WronskianTable`` times its scale.
    """
    polys = [Poly.lift(f) for f in polys]
    k = len(polys)
    if not 1 <= k <= 8:
        raise ValueError(f"wronskian takes 1..8 polynomials, got {k}")
    table, full = WronskianTable(polys), tuple(range(k))
    return Poly(table.level(k)[full]) * table.scale(full)


def poly_gcd(f, g) -> Poly:
    """Monic greatest common divisor, via a primitive remainder sequence."""
    f, g = Poly.lift(f), Poly.lift(g)
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    a = _clear_ints(f.coeffs)[0]
    b = _clear_ints(g.coeffs)[0]
    return Poly(_iz_gcd(a, b)).monic()


def coprime(f, g) -> bool:
    """Whether gcd(f, g) is constant, as ``poly_gcd(f, g).is_constant()``.

    Exact, and decided mod p = 2^31 - 1 where that is a proof: a common
    factor of the primitive integer forms a and b divides both in Z[x]
    (Gauss's lemma), so when p does not divide the leading coefficient of
    one of them it keeps its degree mod p, and a constant gcd mod p rules
    it out.  Otherwise (p divides both
    leading coefficients, or the gcd mod p is not constant) the exact gcd
    over Z decides.  A zero polynomial is coprime only to constants, zero
    included.
    """
    f, g = Poly.lift(f), Poly.lift(g)
    if f.is_zero() or g.is_zero():
        return f.is_constant() and g.is_constant()
    if f.is_constant() or g.is_constant():
        return True
    a = _clear_ints(f.coeffs)[0]
    b = _clear_ints(g.coeffs)[0]
    if a[-1] % _P == 0:
        a, b = b, a
    if a[-1] % _P and _gfp_gcd_degree([v % _P for v in b], [v % _P for v in a]) == 0:
        return True
    return len(_iz_gcd(a, b)) == 1


def exact_div(f, g) -> Poly:
    """Quotient f/g, raising InexactDivisionError on a nonzero remainder."""
    f, g = Poly.lift(f), Poly.lift(g)
    q, r = divmod(f, g)
    if not r.is_zero():
        raise InexactDivisionError(
            f"division of degree-{f.degree} by degree-{g.degree} polynomial "
            f"leaves remainder of degree {r.degree}"
        )
    return q


def perfect_square_root(f) -> Poly:
    """The polynomial g with g*g == f, found by a formal top-down square root.

    The leading coefficient of g is the canonical (positive) rational square
    root of lc(f).  Raises NotASquareError when the degree is odd, the
    leading coefficient is not a rational square, or the remainder after the
    formal root is nonzero.
    """
    f = Poly.lift(f)
    if f.is_zero():
        return Poly.zero()
    deg = f.degree
    if deg % 2:
        raise NotASquareError(f"degree {deg} is odd")
    top = rational_sqrt(f.lc)
    if top is None:
        raise NotASquareError(f"leading coefficient {f.lc} is not a rational square")
    root = Poly(formal_sqrt(f.coeffs, top, truediv) + [top])
    rem = f - root * root
    if not rem.is_zero():
        raise NotASquareError(
            f"formal square root leaves remainder of degree {rem.degree}"
        )
    return root


class RatFun:
    """A reduced rational function num/den with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num, den = Poly.lift(num), Poly.lift(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            den = Poly.one()
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = exact_div(num, g), exact_div(den, g)
            lc = den.lc
            if lc != 1:
                num, den = num * (1 / lc), den * (1 / lc)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFun is immutable")

    def __reduce__(self):
        return RatFun, (self.num, self.den)

    @staticmethod
    def lift(f) -> "RatFun":
        if isinstance(f, RatFun):
            return f
        return RatFun(Poly.lift(f))

    def is_poly(self) -> bool:
        return self.den == Poly.one()

    def as_poly(self) -> Poly:
        if not self.is_poly():
            raise ValueError(f"{self} is not a polynomial")
        return self.num

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other):
        other = RatFun.lift(other)
        return RatFun(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFun(-self.num, self.den)

    def __sub__(self, other):
        return self + (-RatFun.lift(other))

    def __rsub__(self, other):
        return RatFun.lift(other) - self

    def __mul__(self, other):
        other = RatFun.lift(other)
        return RatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RatFun.lift(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFun(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return RatFun.lift(other) / self

    def __eq__(self, other):
        if not isinstance(other, (RatFun, Poly, int, Fraction)):
            return NotImplemented
        other = RatFun.lift(other)
        return self.num == other.num and self.den == other.den

    def __bool__(self):
        return not self.is_zero()

    def __hash__(self):
        return hash((self.num, self.den))

    def derivative(self) -> "RatFun":
        return RatFun(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def __repr__(self):
        if self.is_poly():
            return f"RatFun({self.num!r})"
        return f"RatFun({self.num!r}, {self.den!r})"

    def __str__(self):
        if self.is_poly():
            return str(self.num)
        return f"({self.num})/({self.den})"

