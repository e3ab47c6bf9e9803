"""Dense univariate polynomials and rational functions over Q.

Polynomials are immutable dense coefficient tuples in ascending degree with
no trailing zeros; the zero polynomial has degree -inf.  Heavy kernels
(Wronskians, gcd) clear denominators and run over machine integers before
restoring exact rational results.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd
from operator import truediv

from .scalars import rat, rational_sqrt

NEG_INF = float("-inf")


class InexactDivisionError(ValueError):
    """Raised when a polynomial division expected to be exact leaves a remainder."""


class NotASquareError(ValueError):
    """Raised when a polynomial has no polynomial square root."""


class Poly:
    """A univariate polynomial over Q, stored densely in ascending degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

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
        if self.is_zero():
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
        return hash(self.coeffs)

    # -- calculus and evaluation -----------------------------------------

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
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
        """Coefficients as ints or exact strings; the constructor's
        ``scalars.rat`` rejects floats with TypeError."""
        return Poly(obj)


# -- coefficient kernels ---------------------------------------------------
#
# One product, one long division and one formal square root for ascending
# coefficient sequences over any ring: int, Fraction or MPoly.


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


def _int_clear(coeffs) -> tuple[list[int], Fraction]:
    """Primitive integer list and scale with coeffs = scale * ints."""
    if not coeffs:
        return [], Fraction(1)
    den = 1
    for c in coeffs:
        den = den * c.denominator // int_gcd(den, c.denominator)
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    g = _iz_content(ints)
    return [v // g for v in ints], Fraction(g, den)

def _iz_trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f

def _iz_sub(f: list[int], g: list[int]) -> list[int]:
    n = max(len(f), len(g))
    out = [(f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0) for i in range(n)]
    return _iz_trim(out)

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

def _iz_content(f: list[int]) -> int:
    g = 0
    for v in f:
        g = int_gcd(g, abs(v))
    return g

def _iz_primitive(f: list[int]) -> list[int]:
    g = _iz_content(f)
    if g == 0:
        return []
    if f[-1] < 0:
        g = -g
    return [v // g for v in f]

def _iz_derivative(f: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(f)][1:]

def _iz_bareiss_det(m: list[list[list[int]]]) -> list[int]:
    """Fraction-free determinant of a matrix with Z[x] entries."""
    n = len(m)
    if n == 1:
        return list(m[0][0])
    a = [[list(e) for e in row] for row in m]
    sign = 1
    prev = [1]
    for r in range(n - 1):
        if not a[r][r]:
            for i in range(r + 1, n):
                if a[i][r]:
                    a[r], a[i] = a[i], a[r]
                    sign = -sign
                    break
            else:
                return []
        for i in range(r + 1, n):
            for j in range(r + 1, n):
                num = _iz_sub(convolve(a[i][j], a[r][r]), convolve(a[i][r], a[r][j]))
                a[i][j] = _iz_exact_div(num, prev) if num else []
            a[i][r] = []
        prev = a[r][r]
    det = a[n - 1][n - 1]
    return det if sign == 1 else [-c for c in det]


# -- public operations -----------------------------------------------------


def wronskian(polys) -> Poly:
    """Wronskian determinant of 1 to 8 polynomials.

    Row i holds the (i-1)-st derivatives, so a single polynomial is its own
    Wronskian.  Computed fraction-free over Z[x] after clearing denominators.
    """
    polys = [Poly.lift(f) for f in polys]
    k = len(polys)
    if not 1 <= k <= 8:
        raise ValueError(f"wronskian takes 1..8 polynomials, got {k}")
    if k == 1:
        return polys[0]
    scale = Fraction(1)
    ints = []
    for f in polys:
        iz, s = _int_clear(f.coeffs)
        if not iz:
            return Poly.zero()
        ints.append(iz)
        scale *= s
    rows = []
    for iz in ints:
        derivs = [iz]
        for _ in range(k - 1):
            derivs.append(_iz_derivative(derivs[-1]))
        rows.append(derivs)
    # Entry (i, j) is the j-th derivative of polynomial i.
    det = _iz_bareiss_det([[rows[i][j] for j in range(k)] for i in range(k)])
    return Poly(det) * scale


def poly_gcd(f, g) -> Poly:
    """Monic greatest common divisor, via a primitive remainder sequence."""
    f, g = Poly.lift(f), Poly.lift(g)
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    a, _ = _int_clear(f.coeffs)
    b, _ = _int_clear(g.coeffs)
    if len(a) < len(b):
        a, b = b, a
    while b:
        # Pseudo-remainder of a by b, kept primitive to control growth; each
        # remainder is shorter than b, so a stays the longer of the two.
        scale = b[-1] ** (len(a) - len(b) + 1)
        _, r = long_divide([v * scale for v in a], b, _iz_div)
        a, b = b, _iz_primitive(_iz_trim(r))
    return Poly(a).monic()


def poly_gcd_many(polys) -> Poly:
    out = Poly.zero()
    for f in polys:
        out = poly_gcd(out, f)
        if out == Poly.one():
            break
    return out


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


def apply_log_factor(g, u) -> RatFun:
    """Apply the first-order factor (d/dx - (log u)') to g, i.e. g' - (u'/u) g.

    u may be any nonzero rational function; the result is reduced.
    """
    g = RatFun.lift(g)
    u = RatFun.lift(u)
    if u.is_zero():
        raise ZeroDivisionError("logarithmic derivative of zero")
    log_deriv = u.derivative() / u
    return g.derivative() - log_deriv * g
