"""Exact scalar arithmetic in Q and Q(sqrt 2)."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from g2spaces.scalars import (
    HALF_SQRT2,
    SQRT2,
    QExt,
    _clear_ints,
    _int_clear,
    qext_sqrt,
    rat,
    rational_part,
    rational_sqrt,
)

F = Fraction


def test_rat_coercion():
    assert rat(3) == Fraction(3)
    assert rat(Fraction(1, 2)) == Fraction(1, 2)
    assert rat("7/3") == Fraction(7, 3)
    with pytest.raises(TypeError):
        rat(0.5)


def test_rat_refuses_booleans():
    # A JSON true or false reads as 1 or 0 in Python; rat is the one refusal.
    for b in (True, False):
        with pytest.raises(TypeError, match=f"cannot interpret {b} as a rational"):
            rat(b)
        with pytest.raises(TypeError, match=f"cannot interpret {b} as a rational"):
            QExt(0, b)


def test_qext_arithmetic_refuses_booleans():
    one = QExt(1)
    for b in (True, False):
        calls = (lambda: QExt.lift(b), lambda: one + b, lambda: b + one, lambda: one - b,
                 lambda: b - one, lambda: one * b, lambda: b * one, lambda: one / b,
                 lambda: one == b)
        for call in calls:
            with pytest.raises(TypeError, match=f"cannot interpret {b} as a rational"):
                call()
    assert one + 1 == QExt(2) and one * Fraction(1, 2) == QExt(Fraction(1, 2))


def test_rational_sqrt_values():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(0) == 0
    assert rational_sqrt(2) is None
    assert rational_sqrt(Fraction(1, 3)) is None
    assert rational_sqrt(-4) is None


def test_qext_basic_arithmetic():
    a = QExt(1, 1)  # 1 + sqrt2
    b = QExt(3, -2)  # 3 - 2 sqrt2
    assert a + b == QExt(4, -1)
    assert a - b == QExt(-2, 3)
    # (1 + sqrt2)(3 - 2 sqrt2) = 3 - 2 sqrt2 + 3 sqrt2 - 4 = -1 + sqrt2
    assert a * b == QExt(-1, 1)
    assert SQRT2 * SQRT2 == 2
    assert SQRT2 * HALF_SQRT2 == 1


def test_qext_inverse():
    # (1 + sqrt2)(-1 + sqrt2) = 1, so 1/(1 + sqrt2) = -1 + sqrt2.
    assert QExt(1, 1).inverse() == QExt(-1, 1)
    assert 1 / SQRT2 == HALF_SQRT2
    assert QExt(3, 1) / QExt(3, 1) == 1
    with pytest.raises(ZeroDivisionError):
        QExt(0, 0).inverse()


def test_qext_norm_and_conjugate():
    z = QExt(3, 2)
    assert z.norm() == 9 - 8
    assert z.conjugate() == QExt(3, -2)
    assert (z * z.conjugate()) == z.norm()


def test_qext_mixed_arithmetic_with_rationals():
    z = QExt(1, 2)
    assert z + 1 == QExt(2, 2)
    assert 1 + z == QExt(2, 2)
    assert z * Fraction(1, 2) == QExt(Fraction(1, 2), 1)
    assert 3 - z == QExt(2, -2)
    assert z**2 == QExt(9, 4)
    assert SQRT2**3 == QExt(0, 2)


def test_qext_equality_and_hash_match_rationals():
    assert QExt(Fraction(5, 3), 0) == Fraction(5, 3)
    assert hash(QExt(7, 0)) == hash(Fraction(7))
    assert QExt(1, 1) != 1
    assert bool(QExt(0, 0)) is False
    assert bool(QExt(0, 1)) is True


def test_qext_immutable():
    z = QExt(1, 1)
    with pytest.raises(AttributeError):
        z.a = 5


def test_rational_part():
    assert rational_part(QExt(4, 0)) == 4
    assert rational_part(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(ValueError) as exc:
        rational_part(SQRT2)
    assert "sqrt2" in str(exc.value)


def test_qext_sqrt_rational_cases():
    assert qext_sqrt(QExt(4, 0)) == 2
    # sqrt(1/2) = (1/2) sqrt2
    assert qext_sqrt(Fraction(1, 2)) == HALF_SQRT2
    assert qext_sqrt(QExt(2, 0)) == SQRT2
    assert qext_sqrt(QExt(0, 0)) == 0
    assert qext_sqrt(QExt(3, 0)) is None
    assert qext_sqrt(QExt(-1, 0)) is None


def test_qext_sqrt_irrational_cases():
    # (1 + sqrt2)^2 = 3 + 2 sqrt2
    assert qext_sqrt(QExt(3, 2)) == QExt(1, 1)
    # Canonical choice has positive rational part.
    r = qext_sqrt(QExt(3, 2))
    assert r is not None and r.a > 0
    # (sqrt2 + 2)^2 = 6 + 4 sqrt2
    assert qext_sqrt(QExt(6, 4)) == QExt(2, 1)
    assert qext_sqrt(QExt(1, 1)) is None


def test_qext_sqrt_squares_roundtrip():
    vals = [QExt(1, 1), QExt(-2, 3), QExt(Fraction(1, 2), Fraction(-3, 4))]
    for v in vals:
        r = qext_sqrt(v * v)
        assert r is not None
        assert r * r == v * v


def test_qext_json_roundtrip():
    z = QExt(Fraction(-3, 7), Fraction(5, 2))
    assert QExt.from_json(z.to_json()) == z
    assert z.to_json() == {"a": "-3/7", "b": "5/2"}


# -- the integer triple against a reference pair of Fractions ---------------

_parts = st.builds(
    F, st.integers(min_value=-30, max_value=30), st.integers(min_value=1, max_value=12)
)
_pairs = st.tuples(_parts, _parts)
_rationals = st.one_of(st.integers(min_value=-20, max_value=20), _parts)


def _ref_mul(x, y):
    return (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_inverse(x):
    n = x[0] * x[0] - 2 * x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def _ref_pow(x, k):
    base = _ref_inverse(x) if k < 0 else x
    out = (F(1), F(0))
    for _ in range(abs(k)):
        out = _ref_mul(out, base)
    return out


def _ref_repr(x):
    return f"QExt({x[0]})" if x[1] == 0 else f"QExt({x[0]}, {x[1]})"


def _ref_str(x):
    a, b = x
    if b == 0:
        return str(a)
    if a == 0:
        return f"{b}*sqrt2"
    return f"{a} {'+' if b > 0 else '-'} {abs(b)}*sqrt2"


def _same(z, x):
    """z holds exactly the pair x, as a reduced triple."""
    p, q, d = z._t
    return (
        (z.a, z.b) == x
        and type(z.a) is F
        and type(z.b) is F
        and d > 0
        and gcd(p, q, d) == 1
    )


@settings(max_examples=200, deadline=None)
@given(_pairs, _pairs)
def test_qext_field_operations_match_a_pair_of_fractions(x, y):
    zx, zy = QExt(*x), QExt(*y)
    assert _same(zx, x) and _same(zy, y)
    assert _same(zx + zy, (x[0] + y[0], x[1] + y[1]))
    assert _same(zx - zy, (x[0] - y[0], x[1] - y[1]))
    assert _same(-zx, (-x[0], -x[1]))
    assert _same(zx * zy, _ref_mul(x, y))
    assert _same(zx.conjugate(), (x[0], -x[1]))
    norm = zx.norm()
    assert type(norm) is F and norm == x[0] * x[0] - 2 * x[1] * x[1]
    if any(y):
        assert _same(zy.inverse(), _ref_inverse(y))
        assert _same(zx / zy, _ref_mul(x, _ref_inverse(y)))
    else:
        with pytest.raises(ZeroDivisionError):
            zy.inverse()
    assert (zx == zy) == (x == y)
    if x == y:
        assert hash(zx) == hash(zy)


@settings(max_examples=200, deadline=None)
@given(_pairs, _rationals)
def test_qext_mixes_with_int_and_fraction_on_either_side(x, c):
    z, r = QExt(*x), (F(c), F(0))
    assert _same(z + c, (x[0] + c, x[1])) and _same(c + z, (x[0] + c, x[1]))
    assert _same(z - c, (x[0] - c, x[1])) and _same(c - z, (c - x[0], -x[1]))
    assert _same(z * c, _ref_mul(x, r)) and _same(c * z, _ref_mul(x, r))
    if c:
        assert _same(z / c, _ref_mul(x, _ref_inverse(r)))
    if any(x):
        assert _same(c / z, _ref_mul(r, _ref_inverse(x)))
    lifted = QExt.lift(c)
    assert _same(lifted, r)
    assert lifted == c and c == lifted and hash(lifted) == hash(c) == hash(F(c))
    assert (z == c) == (x == r)


@settings(max_examples=100, deadline=None)
@given(_pairs, st.integers(min_value=-4, max_value=4))
def test_qext_powers_match_repeated_products(x, k):
    z = QExt(*x)
    if k < 0 and not any(x):
        with pytest.raises(ZeroDivisionError):
            z**k
        return
    assert _same(z**k, _ref_pow(x, k))


@settings(max_examples=200, deadline=None)
@given(_pairs)
def test_qext_text_and_json_match_the_pair(x):
    z = QExt(*x)
    assert repr(z) == _ref_repr(x)
    assert str(z) == _ref_str(x)
    assert z.to_json() == {"a": str(x[0]), "b": str(x[1])}
    assert QExt.from_json(z.to_json()) == z
    assert QExt(z) == z and QExt.lift(z) is z
    assert bool(z) == any(x)


@pytest.mark.parametrize("bad", [0.5, 1.0, float("nan")])
def test_qext_rejects_float_operands_and_ambiguous_parts(bad):
    z = QExt(1, 1)
    for build in (lambda: QExt(bad), lambda: QExt(1, bad), lambda: QExt.lift(bad)):
        with pytest.raises(TypeError):
            build()
    for op in (
        lambda: z + bad,
        lambda: bad + z,
        lambda: z - bad,
        lambda: bad - z,
        lambda: z * bad,
        lambda: bad * z,
        lambda: z / bad,
        lambda: bad / z,
    ):
        with pytest.raises(TypeError):
            op()
    with pytest.raises(TypeError):
        QExt(z, 1)


_clear_values = st.lists(
    st.one_of(st.integers(-50, 50), st.fractions(min_value=-20, max_value=20, max_denominator=12)),
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(_clear_values)
@example([])
@example([0, F(0)])
@example([F(-6, 4), 9, 0, F(3, 8)])
def test_int_clear_gives_primitive_integers_and_a_positive_scale(values):
    ints, scale = _int_clear(values)
    assert type(scale) is F and scale > 0
    assert all(type(v) is int for v in ints)
    assert [scale * v for v in ints] == values
    assert [v == 0 for v in ints] == [v == 0 for v in values]
    assert gcd(*ints) == (1 if any(values) else 0)
    same, content, den = _clear_ints(values)
    assert same == ints and den == scale.denominator
    assert content == (scale.numerator if any(values) else 0)
