"""Exact scalars: arbitrary-precision rationals and the field Q(sqrt 2).

Rationals are ``fractions.Fraction`` (already canonical: reduced, positive
denominator).  An element a + b*sqrt(2) of the quadratic extension is a
``QExt``, stored as one reduced integer triple (p, q, d) meaning
(p + q*sqrt(2))/d, so its arithmetic builds no Fraction; it never touches
floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm


def rat(x) -> Fraction:
    """Coerce an int, string or Fraction to Fraction; a bool (a JSON true or
    false, which Python reads as 1 or 0) or a float raises TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, QExt):
        return rational_part(x)
    raise TypeError(f"cannot interpret {x!r} as a rational")


def _clear_ints(values) -> tuple[list[int], int, int]:
    """The one clearing kernel: primitive ints, content g >= 0 and common
    denominator den with values = ints * g / den; [] gives ([], 0, 1)."""
    den = lcm(*(v.denominator for v in values))
    ints = [v.numerator * (den // v.denominator) for v in values]
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return ints, g, den


def _int_clear(values) -> tuple[list[int], Fraction]:
    """``_clear_ints`` with one positive scale, values = scale * ints (1 for zeros)."""
    ints, g, den = _clear_ints(values)
    return ints, Fraction(g or 1, den)


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
    """An element (p + q*sqrt(2))/d of Q(sqrt 2), stored as one reduced
    integer triple (p, q, d): gcd(p, q, d) == 1 and d > 0.

    Immutable.  Arithmetic accepts int and Fraction on either side and
    lifts them straight into a triple, so every operation is integer
    arithmetic plus one three-way gcd.  ``a`` and ``b`` are the rational
    parts of a + b*sqrt(2), as Fractions.
    """

    __slots__ = ("_t",)

    def __init__(self, a=0, b=0):
        if isinstance(a, QExt):
            if b:
                raise TypeError("QExt(qext, b) with b != 0 is ambiguous")
            t = a._t
        else:
            # Reduced: p, q coprime or both zero, and the content g coprime to d.
            (p, q), g, d = _clear_ints([rat(a), rat(b)])
            t = (p * g, q * g, d)
        _setattr(self, "_t", t)

    def __setattr__(self, name, value):
        raise AttributeError("QExt is immutable")

    def __reduce__(self):
        return _make, (self._t,)

    @property
    def a(self) -> Fraction:
        return Fraction(self._t[0], self._t[2])

    @property
    def b(self) -> Fraction:
        return Fraction(self._t[1], self._t[2])

    # -- conversions ------------------------------------------------------

    @staticmethod
    def lift(x) -> "QExt":
        if isinstance(x, QExt):
            return x
        t = _triple(x)
        return QExt(x) if t is None else _make(t)

    def conjugate(self) -> "QExt":
        p, q, d = self._t
        return _make((p, -q, d))

    def norm(self) -> Fraction:
        """Field norm a^2 - 2 b^2 (the product with the conjugate)."""
        p, q, d = self._t
        return Fraction(p * p - 2 * q * q, d * d)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        t = _triple(other)
        if t is None:
            return NotImplemented
        p, q, d = self._t
        p2, q2, d2 = t
        if d == d2:
            return _reduced(p + p2, q + q2, d)
        return _reduced(p * d2 + p2 * d, q * d2 + q2 * d, d * d2)

    __radd__ = __add__

    def __neg__(self):
        p, q, d = self._t
        return _make((-p, -q, d))

    def __sub__(self, other):
        t = _triple(other)
        if t is None:
            return NotImplemented
        p, q, d = self._t
        p2, q2, d2 = t
        if d == d2:
            return _reduced(p - p2, q - q2, d)
        return _reduced(p * d2 - p2 * d, q * d2 - q2 * d, d * d2)

    def __rsub__(self, other):
        t = _triple(other)
        if t is None:
            return NotImplemented
        return _make(t) - self

    def __mul__(self, other):
        t = _triple(other)
        if t is None:
            return NotImplemented
        p, q, d = self._t
        p2, q2, d2 = t
        return _reduced(p * p2 + 2 * q * q2, p * q2 + q * p2, d * d2)

    __rmul__ = __mul__

    def inverse(self) -> "QExt":
        # d / (p + q sqrt2) = d (p - q sqrt2) / (p^2 - 2 q^2)
        p, q, d = self._t
        n = p * p - 2 * q * q
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt 2)")
        if n < 0:
            n, d = -n, -d
        return _reduced(d * p, -d * q, n)

    def __truediv__(self, other):
        return self * QExt.lift(other).inverse()

    def __rtruediv__(self, other):
        return QExt.lift(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = _make((1, 0, 1))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison and hashing ------------------------------------------

    def __eq__(self, other):
        t = _triple(other)
        if t is None:
            return NotImplemented
        return self._t == t

    def __bool__(self):
        return bool(self._t[0] or self._t[1])

    def __hash__(self):
        p, q, d = self._t
        if q == 0:
            return hash(p) if d == 1 else hash(Fraction(p, d))
        return hash((self.a, self.b))

    def __repr__(self):
        a, b = self.a, self.b
        if b == 0:
            return f"QExt({a})"
        return f"QExt({a}, {b})"

    def __str__(self):
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        if a == 0:
            return f"{b}*sqrt2"
        sign = "+" if b > 0 else "-"
        return f"{a} {sign} {abs(b)}*sqrt2"

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {"a": rat_to_str(self.a), "b": rat_to_str(self.b)}

    @staticmethod
    def from_json(obj) -> "QExt":
        """Parts as ints or exact strings; ``rat`` refuses booleans and floats
        with TypeError."""
        return QExt(obj["a"], obj["b"])


_new = object.__new__
_setattr = object.__setattr__


def _make(t) -> QExt:
    """The QExt of a triple that is already reduced."""
    z = _new(QExt)
    _setattr(z, "_t", t)
    return z


def _reduced(p, q, d) -> QExt:
    """The QExt (p + q*sqrt(2))/d of integers with d > 0, reduced."""
    g = gcd(p, q, d)
    if g != 1:
        p, q, d = p // g, q // g, d // g
    return _make((p, q, d))


def _triple(x):
    """The reduced triple of a QExt, int or Fraction, or None for any other
    type (a float, a string); a bool raises ``rat``'s TypeError."""
    if type(x) is QExt:
        return x._t
    if type(x) is int or isinstance(x, Fraction):
        return (x.numerator, 0, x.denominator)
    if isinstance(x, int):
        return (rat(x).numerator, 0, 1)  # rat refuses a bool, which Python reads as an int
    return None


SQRT2 = QExt(0, 1)
HALF_SQRT2 = QExt(0, Fraction(1, 2))  # 1/sqrt(2)


def rational_part(x) -> Fraction:
    """The rational value of x, raising if x has a sqrt(2) component.

    The error names the offending value so failed rationality assertions
    point at the culprit.
    """
    if isinstance(x, QExt):
        p, q, d = x._t
        if q:
            raise ValueError(f"value {x} is not rational (sqrt(2) part {x.b})")
        return Fraction(p, d)
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
