"""Polynomial arithmetic, Wronskians, gcd, square roots, rational functions."""

import copy
import pickle
import random
from fractions import Fraction
from itertools import combinations, zip_longest
from math import factorial, prod
from operator import truediv

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from g2spaces import polynomials
from g2spaces.bethe import BetheTuple
from g2spaces.elimination import MPoly
from g2spaces.linalg import rank
from g2spaces.polynomials import (
    InexactDivisionError,
    NotASquareError,
    Poly,
    ProductTable,
    RatFun,
    WronskianTable,
    _iz_div,
    _iz_gcd,
    convolve,
    coprime,
    exact_div,
    lincomb,
    long_divide,
    perfect_square_root,
    poly_gcd,
    wronskian,
)
from g2spaces.scalars import QExt
from g2spaces.spin import P_SPINOR

X = Poly.x()


@pytest.mark.parametrize("copier", [
    copy.copy,
    copy.deepcopy,
    lambda x: pickle.loads(pickle.dumps(x)),
], ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("value", [
    Poly([Fraction(1, 2), 0, -3]),
    QExt(Fraction(1, 3), 2),
    P_SPINOR,
    BetheTuple("G2", [X + 1, X**2 - 2], [X, Poly.one()]),
    RatFun(X**2 - 1, X * (X + 1)),
], ids=["Poly", "QExt", "Spinor", "BetheTuple", "RatFun"])
def test_immutable_values_copy_and_pickle(value, copier):
    clone = copier(value)
    assert type(clone) is type(value) and clone == value and hash(clone) == hash(value)
    with pytest.raises(AttributeError, match="immutable"):
        clone.anything = 1


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
    with pytest.raises(ValueError, match="negative monomial degree"):
        Poly.monomial(-1)


def test_hash_is_the_coefficient_hash_and_poly_stays_immutable():
    p = Poly([Fraction(1, 3), 2, Fraction(-5, 7)])
    assert hash(p) == hash(p.coeffs) == hash(p)
    assert hash(Poly([Fraction(1, 3), 2, Fraction(-5, 7), 0])) == hash(p)
    assert hash(Poly([])) == hash(())
    assert {p: 1}[Poly([Fraction(1, 3), 2, Fraction(-5, 7)])] == 1
    for name in ("coeffs", "_hash"):
        with pytest.raises(AttributeError):
            setattr(p, name, 0)
    assert hash(p) == hash(p.coeffs)


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


def test_evaluation_takes_exact_points_only():
    f = Poly([1, 2])
    for bad in (0.5, 1.0, True, False):
        with pytest.raises(TypeError, match="exact"):
            f(bad)
    assert f(3) == 7 and type(f(3)) is Fraction
    assert f(Fraction(1, 2)) == 2 and type(f(Fraction(1, 2))) is Fraction
    assert f(QExt(0, 1)) == QExt(1, 2)


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


@pytest.mark.parametrize("obj", ["12", ("1", "2"), {"1": "2"}, 3])
def test_from_json_needs_a_list(obj):
    with pytest.raises(TypeError, match="expected a list of coefficients"):
        Poly.from_json(obj)


def test_wronskian_frozen_values():
    # W(x, x^3) = x * 3x^2 - 1 * x^3 = 2x^3
    assert wronskian([X, X**3]) == 2 * X**3
    # W(1, x, x^6/720) = det [[1,0,0],[x,1,0],[x^6/720, x^5/120, x^4/24]]
    assert wronskian([Poly.one(), X, X**6 * Fraction(1, 720)]) == X**4 * Fraction(1, 24)
    assert wronskian([Poly([0, 1])]) == X
    # Repeated entry kills the determinant.
    assert wronskian([X, X]).is_zero()
    assert wronskian([Poly.zero(), X]).is_zero()
    # Eight polynomials, the most the Wronskian takes.
    # W(x^d_1, ..., x^d_k) = prod_{i<j} (d_j - d_i) * x^(sum(d) - k(k-1)/2).
    degrees = (0, 2, 3, 5, 7, 8, 10, 13)
    w = wronskian([X**d for d in degrees])
    assert w == 627683696640000000 * X**20
    assert w.lc == prod(dj - di for di, dj in combinations(degrees, 2))
    # The divided powers x^j/j! give a unitriangular matrix.
    assert wronskian([X**j * Fraction(1, factorial(j)) for j in range(8)]) == Poly.one()


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


@st.composite
def wronskian_lists(draw):
    """1 to 8 polynomials with Fraction coefficients, drawn with replacement
    from zero and up to five polynomials of degree at most 5, so that zero,
    repeated elements and equal degrees all occur."""
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    nonzero = st.lists(coeff, max_size=5).flatmap(
        lambda low: coeff.filter(bool).map(lambda top: Poly(low + [top])))
    pool = [Poly.zero()] + draw(st.lists(nonzero, min_size=1, max_size=5))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8))


@settings(max_examples=40, deadline=None)
@given(wronskian_lists())
def test_wronskian_table_matches_naive_oracle(polys):
    # Two oracles that share no code with the table: the Wronskian of
    # polynomials vanishes exactly when they are linearly dependent, and the
    # cofactor expansion gives its value.  The expansion costs k!, so it runs
    # on independent subsets of size at most 5; the pool spans at most five
    # dimensions, so every larger subset is dependent.
    table = WronskianTable(polys)
    for k in range(1, len(polys) + 1):
        level = table.level(k)
        assert list(level) == list(combinations(range(len(polys)), k))
        for subset, entry in level.items():
            members = [polys[i] for i in subset]
            independent = rank([[f.coeff(j) for j in range(6)] for f in members]) == k
            assert bool(entry) == independent
            if independent:
                assert k <= 5
                assert Poly(entry) * table.scale(subset) == naive_wronskian(members)


@st.composite
def product_terms(draw):
    """Up to five polynomials of degree at most 4, zero and constants among
    them, and up to eight terms ((a, b), c) over their indices, in either
    order and possibly repeated, with zero coefficients among them."""
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    polys = draw(st.lists(st.lists(coeff, max_size=5).map(Poly), min_size=1, max_size=5))
    index = st.integers(0, len(polys) - 1)
    terms = draw(st.lists(st.tuples(st.tuples(index, index), coeff), max_size=8))
    return polys, terms


@settings(max_examples=150, deadline=None)
@given(product_terms())
@example(([X * Fraction(1, 2), Poly.one()], []))
@example(([Poly.zero(), Poly.constant(Fraction(3, 2))], [((1, 0), 2), ((0, 0), 1), ((1, 1), 1)]))
@example(([X * Fraction(1, 3) + Fraction(1, 2), X**2 * 4],
          [((1, 0), Fraction(1, 2)), ((0, 1), Fraction(-1, 2)), ((1, 1), 0), ((1, 1), Fraction(1, 5))]))
def test_product_table_combine_matches_the_fraction_sum(case):
    # Half the polynomials come through the constructor and half through
    # add, so a table that grows is checked too.
    polys, terms = case
    half = len(polys) // 2
    table = ProductTable(polys[:half])
    assert [table.add(f) for f in polys[half:]] == list(range(half, len(polys)))
    want = Poly.zero()
    for (a, b), c in terms:
        want = want + polys[a] * polys[b] * c
    for _ in range(2):  # the second pass reads the products of the first
        got = table.combine(terms)
        assert got == want
        assert all(type(c) is Fraction for c in got.coeffs)


@st.composite
def lincomb_terms(draw):
    """Up to six terms (c, f) with int or Fraction weights and coefficient
    lists, zeros, empty and zero-padded lists among them; a term may be
    followed by its negation, so that the sum cancels."""
    coeff = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4))
    terms = draw(st.lists(st.tuples(coeff, st.lists(coeff, max_size=5)), max_size=6))
    if terms and draw(st.booleans()):
        c, f = draw(st.sampled_from(terms))
        terms.append((-c, f))
    return terms


@settings(max_examples=200, deadline=None)
@given(lincomb_terms())
@example([])
@example([(2, [1, 0, 3]), (-2, [1, 0, 3])])
@example([(0, [1, 2]), (3, []), (Fraction(1, 2), [0, 0]), (1, [Fraction(1, 3), 0])])
def test_lincomb_matches_summed_poly_scalings(terms):
    want = Poly.zero()
    for c, f in terms:
        want = want + Poly(f) * c
    got = lincomb(terms)
    assert not got or got[-1] != 0
    assert Poly(got) == want
    if all(type(x) is int for c, f in terms for x in (c, *f)):
        assert all(type(v) is int for v in got)


def test_wronskian_table_levels_and_bounds():
    table = WronskianTable([X * Fraction(1, 2), X**3, Poly.one()])
    assert table.level(0) == {(): [1]}
    # W(x/2, x^3) = x^3: the entry of the cleared list [0, 1] and its scale.
    assert table.level(2)[0, 1] == [0, 0, 0, 2] and table.scale((0, 1)) == Fraction(1, 2)
    with pytest.raises(ValueError):
        table.level(4)


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


def test_poly_gcd_random_products():
    rng = random.Random(11)
    for _ in range(10):
        common = rand_poly(rng, rng.randint(1, 3))
        a = rand_poly(rng, rng.randint(0, 3))
        b = rand_poly(rng, rng.randint(0, 3))
        g = poly_gcd(common * a, common * b)
        assert exact_div(g, poly_gcd(g, common.monic())).degree == poly_gcd(a, b).degree


P31 = 2**31 - 1
gcd_polys = st.lists(
    st.fractions(min_value=-6, max_value=6, max_denominator=4), max_size=5
).map(Poly)


@st.composite
def coprime_pairs(draw):
    """Random pairs, pairs sharing a factor, and a polynomial with its derivative."""
    f, g = draw(gcd_polys), draw(gcd_polys)
    shape = draw(st.sampled_from(["random", "shared", "derivative"]))
    if shape == "shared":
        h = draw(gcd_polys)
        f, g = f * h, g * h
    elif shape == "derivative":
        g = f.derivative()
    return f, g


@settings(max_examples=150, deadline=None)
@given(coprime_pairs())
def test_coprime_is_a_constant_gcd(pair):
    f, g = pair
    assert coprime(f, g) == poly_gcd(f, g).is_constant()
    assert coprime(g, f) == coprime(f, g)


nonzero_ints = st.integers(-9, 9).filter(bool)


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(nonzero_ints, st.lists(st.integers(-9, 9), max_size=3), st.integers(1, 3)),
    st.tuples(nonzero_ints, st.lists(st.integers(-9, 9), max_size=3), st.integers(1, 3)),
)
def test_coprime_falls_back_when_p_divides_both_leading_coefficients(fspec, gspec):
    # A nonzero constant term of at most 9 keeps m*p on top after clearing
    # the content, so mod p both polynomials lose their top degree, the
    # modular gcd proves nothing and the exact gcd decides.
    f, g = (Poly([c0, *mid, m * P31]) for c0, mid, m in (fspec, gspec))
    pairs = [(f, g), (f * (X - 1), g * (X - 1))]
    expected = [poly_gcd(a, b).is_constant() for a, b in pairs]
    exact = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polynomials, "_iz_gcd", lambda a, b: exact.append(1) or _iz_gcd(a, b))
        assert [coprime(a, b) for a, b in pairs] == expected
    assert len(exact) == 2 and expected[1] is False


def test_coprime_zero_and_constants():
    three = Poly.constant(3)
    assert coprime(Poly.zero(), Poly.zero())
    assert coprime(Poly.zero(), three) and coprime(three, Poly.zero())
    assert not coprime(Poly.zero(), X) and not coprime(X + 1, Poly.zero())
    assert coprime(three, X**2 + 1) and coprime(X, Poly.one())
    assert not coprime(2 * X + 2, X**2 - 1)
    assert coprime(X**2 - 2, X**2 + 2)


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


def test_wronskian_identity_small():
    # W(W(u1,u2), W(u1,u3)) = W(u1,u2,u3) * u1 on a fixed triple.
    u1, u2, u3 = Poly([1, 1]), X**2, Poly([0, 1, 0, 1])
    lhs = wronskian([wronskian([u1, u2]), wronskian([u1, u3])])
    rhs = wronskian([u1, u2, u3]) * u1
    assert lhs == rhs
