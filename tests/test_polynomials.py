"""Polynomial arithmetic, Wronskians, gcd, square roots, rational functions."""

import random
from fractions import Fraction
from itertools import combinations, zip_longest
from operator import truediv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2spaces.elimination import MPoly
from g2spaces.polynomials import (
    InexactDivisionError,
    NotASquareError,
    Poly,
    RatFun,
    _iz_div,
    apply_log_factor,
    convolve,
    exact_div,
    long_divide,
    perfect_square_root,
    poly_gcd,
    poly_gcd_many,
    wronskian,
)

X = Poly.x()


def naive_wronskian(polys):
    """Cofactor-expansion oracle for the Wronskian, all over Fraction."""
    k = len(polys)
    rows = []
    for f in polys:
        d = [f]
        for _ in range(k - 1):
            d.append(d[-1].derivative())
        rows.append(d)
    m = [[rows[i][j] for j in range(k)] for i in range(k)]

    def det(mat):
        n = len(mat)
        if n == 1:
            return mat[0][0]
        out = Poly.zero()
        for j in range(n):
            minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
            term = mat[0][j] * det(minor)
            out = out + term if j % 2 == 0 else out - term
        return out

    return det(m)


def rand_poly(rng, deg, bound=6):
    cs = [Fraction(rng.randint(-bound, bound), rng.randint(1, 3)) for _ in range(deg)]
    cs.append(Fraction(rng.randint(1, bound)))
    return Poly(cs)


def test_construction_normalizes_trailing_zeros():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly([0, 0]).is_zero()
    assert Poly.zero().degree == float("-inf")
    assert Poly.monomial(3).degree == 3
    assert Poly.monomial(2, Fraction(1, 2)).coeffs == (0, 0, Fraction(1, 2))


def test_basic_arithmetic():
    f = Poly([1, 2, 1])  # (1+x)^2
    g = Poly([1, 1])
    assert g * g == f
    assert f - g * g == Poly.zero()
    assert (f + 1).coeffs == (2, 2, 1)
    assert (2 * g).coeffs == (2, 2)
    assert g**3 == Poly([1, 3, 3, 1])
    assert divmod(f, g) == (g, Poly.zero())
    q, r = divmod(Poly([0, 0, 0, 1]), Poly([1, 1]))  # x^3 = (x^2 - x + 1)(x+1) - 1
    assert q == Poly([1, -1, 1]) and r == Poly([-1])


def test_evaluation_and_translate():
    f = Poly([1, 0, 1])  # 1 + x^2
    assert f(Fraction(1, 2)) == Fraction(5, 4)
    assert f.translate(1) == Poly([2, 2, 1])  # 1 + (x+1)^2
    assert f.translate(1)(0) == f(1)


def test_derivative():
    f = Poly([5, 3, 0, 2])
    assert f.derivative() == Poly([3, 0, 6])
    assert Poly.one().derivative().is_zero()


def test_str_rendering():
    assert str(Poly([1, -1, Fraction(1, 2)])) == "1/2*x^2 - x + 1"
    assert str(Poly.zero()) == "0"
    assert str(-X) == "-x"


def test_json_roundtrip():
    f = Poly([Fraction(1, 3), 0, Fraction(-7, 2)])
    assert Poly.from_json(f.to_json()) == f


def test_wronskian_frozen_values():
    # W(x, x^3) = x * 3x^2 - 1 * x^3 = 2x^3
    assert wronskian([X, X**3]) == 2 * X**3
    # W(1, x, x^6/720) = det [[1,0,0],[x,1,0],[x^6/720, x^5/120, x^4/24]]
    assert wronskian([Poly.one(), X, X**6 * Fraction(1, 720)]) == X**4 * Fraction(1, 24)
    assert wronskian([Poly([0, 1])]) == X
    # Repeated entry kills the determinant.
    assert wronskian([X, X]).is_zero()
    assert wronskian([Poly.zero(), X]).is_zero()


def test_wronskian_of_monomial_seven_tuple():
    # Degrees 0, 2, 3, 5, 7, 8, 10: the full Wronskian of the (2,3) pattern
    # is a monomial of degree sum(d) - 21 = 14.
    polys = [X**d for d in (0, 2, 3, 5, 7, 8, 10)]
    w = wronskian(polys)
    assert w.degree == 14
    assert w.coeffs[:-1] == tuple([Fraction(0)] * 14)


def test_wronskian_matches_naive_oracle():
    rng = random.Random(7)
    for k in (2, 3, 4, 5):
        for _ in range(4):
            polys = [rand_poly(rng, rng.randint(0, 4)) for _ in range(k)]
            assert wronskian(polys) == naive_wronskian(polys)


def test_wronskian_arity_bounds():
    with pytest.raises(ValueError):
        wronskian([])
    with pytest.raises(ValueError):
        wronskian([X] * 9)


def test_poly_gcd():
    f = Poly([1, 1]) ** 2 * Poly([2, 0, 1])
    g = Poly([1, 1]) * Poly([-1, 1])
    assert poly_gcd(f, g) == Poly([1, 1])
    assert poly_gcd(f, Poly.zero()) == f.monic()
    assert poly_gcd(Poly.zero(), Poly.zero()).is_zero()
    # Result is monic even when inputs are not.
    assert poly_gcd(2 * X, 3 * X) == X
    assert poly_gcd_many([X**2, X**3, 2 * X]) == X
    assert poly_gcd_many([X, Poly([1, 1])]) == Poly.one()


def test_poly_gcd_random_products():
    rng = random.Random(11)
    for _ in range(10):
        common = rand_poly(rng, rng.randint(1, 3))
        a = rand_poly(rng, rng.randint(0, 3))
        b = rand_poly(rng, rng.randint(0, 3))
        g = poly_gcd(common * a, common * b)
        assert exact_div(g, poly_gcd(g, common.monic())).degree == poly_gcd(a, b).degree


def test_exact_div():
    f = Poly([1, 1]) * Poly([2, 3])
    assert exact_div(f, Poly([1, 1])) == Poly([2, 3])
    with pytest.raises(InexactDivisionError):
        exact_div(X**2 + 1, X)


def test_perfect_square_root():
    f = Poly([1, 2, 3])
    assert perfect_square_root(f * f) == f
    # Root is normalized with positive leading coefficient.
    assert perfect_square_root((-f) * (-f)) == f
    assert perfect_square_root(Poly([Fraction(1, 4)])) == Poly([Fraction(1, 2)])
    assert perfect_square_root(Poly.zero()).is_zero()
    assert perfect_square_root(X**2 * Fraction(1, 4)) == X * Fraction(1, 2)
    with pytest.raises(NotASquareError):
        perfect_square_root(X)
    with pytest.raises(NotASquareError):
        perfect_square_root(2 * X**2)
    with pytest.raises(NotASquareError):
        perfect_square_root(X**2 + 1)


small_ints = st.integers(-9, 9)
small_fracs = st.fractions(min_value=-9, max_value=9, max_denominator=5)
small_mpolys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), small_fracs, max_size=3
).map(lambda terms: MPoly(2, terms))

# (quotient and remainder coefficients, divisor coefficients, exact division);
# an MPoly dividend is divided by a rational polynomial, as in sym_exact_div.
RINGS = {
    "int": (small_ints, small_ints, _iz_div),
    "Fraction": (small_fracs, small_fracs, truediv),
    "MPoly": (small_mpolys, small_fracs, truediv),
}


def _trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


@pytest.mark.parametrize("ring", sorted(RINGS))
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_long_divide_recovers_quotient_and_remainder(ring, data):
    coeff, divisor_coeff, divide = RINGS[ring]
    g = data.draw(st.lists(divisor_coeff, min_size=1, max_size=4).filter(lambda g: g[-1]))
    q = data.draw(st.lists(coeff, max_size=4))
    r = data.draw(st.lists(coeff, max_size=len(g) - 1))
    f = [a + b for a, b in zip_longest(convolve(q, g), r, fillvalue=0)]
    quo, rem = long_divide(f, g, divide)
    assert _trim(quo) == _trim(q)
    assert _trim(rem) == _trim(r)


@settings(deadline=None, max_examples=60)
@given(
    st.lists(small_fracs, min_size=2, max_size=6).filter(lambda g: g[-1] > 0),
    small_fracs.filter(lambda s: s > 0),
    small_fracs.filter(bool),
)
def test_perfect_square_root_recovers_the_root(coeffs, s, k):
    g = Poly(coeffs)
    f = g * g * (s * s)
    assert perfect_square_root(f) * (1 / s) == g
    # (h - s g)(h + s g) = k has no solution h once deg g >= 1.
    with pytest.raises(NotASquareError):
        perfect_square_root(f + k)


def test_ratfun_reduction():
    r = RatFun(X**2 - 1, 2 * X - 2)
    assert r.num == X * Fraction(1, 2) + Fraction(1, 2)
    assert r.den == Poly.one()
    assert r.is_poly()
    s = RatFun(Poly.one(), X)
    assert not s.is_poly()
    with pytest.raises(ValueError):
        s.as_poly()
    with pytest.raises(ZeroDivisionError):
        RatFun(X, Poly.zero())


def test_ratfun_arithmetic():
    half = RatFun(Poly.one(), 2 * X)
    assert half + half == RatFun(Poly.one(), X)
    assert half * (2 * X) == RatFun(Poly.one())
    assert (1 / RatFun(X)) == RatFun(Poly.one(), X)
    assert RatFun(X).derivative() == RatFun(Poly.one())
    # (1/x)' = -1/x^2
    assert RatFun(Poly.one(), X).derivative() == RatFun(Poly([-1]), X**2)


def test_apply_log_factor():
    # (d/dx - 1/x) x^2 = 2x - x = x
    assert apply_log_factor(X**2, X) == RatFun(X)
    # (d/dx - 1/x) x = 0: u is in the kernel of its own factor.
    assert apply_log_factor(X, X).is_zero()
    # Nontrivial denominator: (d/dx - 2/x) 1 = -2/x.
    r = apply_log_factor(Poly.one(), X**2)
    assert r == RatFun(Poly([-2]), X)
    with pytest.raises(ZeroDivisionError):
        apply_log_factor(X, Poly.zero())


def test_wronskian_identity_small():
    # W(W(u1,u2), W(u1,u3)) = W(u1,u2,u3) * u1 on a fixed triple.
    u1, u2, u3 = Poly([1, 1]), X**2, Poly([0, 1, 0, 1])
    lhs = wronskian([wronskian([u1, u2]), wronskian([u1, u3])])
    rhs = wronskian([u1, u2, u3]) * u1
    assert lhs == rhs
