"""Exact scalars: arbitrary-precision rationals and the field Q(sqrt 2).

Rationals are ``fractions.Fraction`` (already canonical: reduced, positive
denominator).  The quadratic extension is the immutable pair ``QExt(a, b)``
representing a + b*sqrt(2); it never touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


def rat(x) -> Fraction:
    """Coerce an int, string or Fraction to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, QExt):
        return rational_part(x)
    raise TypeError(f"cannot interpret {x!r} as a rational")


def reject_booleans(values) -> None:
    """Raise TypeError on a JSON true or false, which Python reads as 1 or 0."""
    for c in values:
        if isinstance(c, bool):
            raise TypeError(f"cannot interpret {c!r} as a rational")


def rat_to_str(x: Fraction) -> str:
    """Serialize a rational as 'p/q' (plain 'p' when q == 1)."""
    return str(Fraction(x))


def rational_sqrt(x) -> Fraction | None:
    """Exact square root of a rational, or None when x is not a square.

    The returned root is the non-negative one.
    """
    x = rat(x)
    if x < 0:
        return None
    p, q = x.numerator, x.denominator
    rp, rq = isqrt(p), isqrt(q)
    if rp * rp != p or rq * rq != q:
        return None
    return Fraction(rp, rq)


class QExt:
    """An element a + b*sqrt(2) of Q(sqrt 2), with a, b rational.

    Immutable.  Arithmetic accepts int and Fraction on either side and
    lifts them into the field.
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        object.__setattr__(self, "a", rat(a) if not isinstance(a, QExt) else a.a)
        if isinstance(a, QExt):
            if b:
                raise TypeError("QExt(qext, b) with b != 0 is ambiguous")
            object.__setattr__(self, "b", a.b)
        else:
            object.__setattr__(self, "b", rat(b))

    def __setattr__(self, name, value):
        raise AttributeError("QExt is immutable")

    # -- conversions ------------------------------------------------------

    @staticmethod
    def lift(x) -> "QExt":
        return x if isinstance(x, QExt) else QExt(rat(x))

    @staticmethod
    def _coerce(x) -> "QExt | None":
        if isinstance(x, QExt):
            return x
        if isinstance(x, (int, Fraction)):
            return QExt(x)
        return None

    def conjugate(self) -> "QExt":
        return QExt(self.a, -self.b)

    def norm(self) -> Fraction:
        """Field norm a^2 - 2 b^2 (the product with the conjugate)."""
        return self.a * self.a - 2 * self.b * self.b

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = QExt._coerce(other)
        if other is None:
            return NotImplemented
        return QExt(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return QExt(-self.a, -self.b)

    def __sub__(self, other):
        other = QExt._coerce(other)
        if other is None:
            return NotImplemented
        return QExt(self.a - other.a, self.b - other.b)

    def __rsub__(self, other):
        other = QExt._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = QExt._coerce(other)
        if other is None:
            return NotImplemented
        return QExt(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QExt":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt 2)")
        return QExt(self.a / n, -self.b / n)

    def __truediv__(self, other):
        return self * QExt.lift(other).inverse()

    def __rtruediv__(self, other):
        return QExt.lift(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = QExt(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison and hashing ------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QExt(other)
        if not isinstance(other, QExt):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __repr__(self):
        if self.b == 0:
            return f"QExt({self.a})"
        return f"QExt({self.a}, {self.b})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt2"
        sign = "+" if self.b > 0 else "-"
        return f"{self.a} {sign} {abs(self.b)}*sqrt2"

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {"a": rat_to_str(self.a), "b": rat_to_str(self.b)}

    @staticmethod
    def from_json(obj) -> "QExt":
        """Parts as ints or exact strings; booleans are rejected here and
        floats by ``rat``, both with TypeError."""
        parts = obj["a"], obj["b"]
        reject_booleans(parts)
        return QExt(*parts)


SQRT2 = QExt(0, 1)
HALF_SQRT2 = QExt(0, Fraction(1, 2))  # 1/sqrt(2)


def rational_part(x) -> Fraction:
    """The rational value of x, raising if x has a sqrt(2) component.

    The error names the offending value so failed rationality assertions
    point at the culprit.
    """
    if isinstance(x, QExt):
        if x.b != 0:
            raise ValueError(f"value {x} is not rational (sqrt(2) part {x.b})")
        return x.a
    return rat(x)


def qext_sqrt(x) -> QExt | None:
    """A square root of x inside Q(sqrt 2), or None when none exists there.

    When roots exist, the returned one is canonical: rational part positive,
    or zero rational part and positive sqrt(2) part.
    """
    x = QExt.lift(x)
    if not x:
        return QExt(0)
    a, b = x.a, x.b
    if b == 0:
        r = rational_sqrt(a)
        if r is not None:
            return QExt(r)
        r = rational_sqrt(a / 2)
        if r is not None:
            return QExt(0, r)
        return None
    # (p + q*sqrt2)^2 = (p^2 + 2 q^2) + (2 p q) sqrt2 with p, q both nonzero.
    disc = rational_sqrt(a * a - 2 * b * b)
    if disc is None:
        return None
    for s in (disc, -disc):
        p2 = (a + s) / 2
        p = rational_sqrt(p2)
        if p is None or p == 0:
            continue
        q = b / (2 * p)
        cand = QExt(p, q)
        if cand * cand == x:
            return cand if (p > 0 or (p == 0 and q > 0)) else -cand
    return None
