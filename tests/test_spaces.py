"""Spaces: canonical bases, ramification, duality, bilinear form, Witt bases."""

from fractions import Fraction
from itertools import combinations
from math import factorial

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from g2spaces import spaces
from g2spaces.elimination import MPoly
from g2spaces.linalg import solve, transpose
from g2spaces.fixtures import SPACES, get_space
from g2spaces.polynomials import Poly, exact_div, poly_gcd, wronskian
from g2spaces.scalars import QExt
from g2spaces.spaces import (
    BasePointError,
    BilinearForm,
    DegreePatternError,
    NotSelfDualError,
    PolySpace,
    SpaceError,
    WittGramError,
    _witt_gram_mismatches,
    _witt_pair,
    canonicalize,
    combine,
    degree_steps,
    degree_window_space,
    monomial_space,
    witt_basis,
    witt_form,
    witt_scales,
)

X = Poly.x()
F = Fraction


def test_canonicalize_orders_and_reduces():
    basis = canonicalize([X + 1, 2 * X, X**3 + X])
    assert [p.degree for p in basis] == [0, 1, 3]
    assert all(p.lc == 1 for p in basis)
    # Echelon reduction: x^3 + x reduces to x^3 against the x row.
    assert basis[2] == X**3
    assert canonicalize([Poly.zero()]) == []
    # Dependent input collapses.
    assert len(canonicalize([X, 2 * X, X + X])) == 1


@st.composite
def polys_and_changes_of_basis(draw):
    """A list of polynomials (dependent ones and zeros allowed) and an
    invertible integer matrix of the same size, as a product L U of
    triangular factors with nonzero diagonals."""
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    polys = draw(st.lists(st.lists(coeff, max_size=6).map(Poly), min_size=1, max_size=5))
    n = len(polys)
    entry, pivot = st.integers(-3, 3), st.sampled_from([-2, -1, 1, 2, 3])
    lower = [[draw(pivot) if i == j else draw(entry) if j < i else 0 for j in range(n)]
             for i in range(n)]
    upper = [[draw(pivot) if i == j else draw(entry) if j > i else 0 for j in range(n)]
             for i in range(n)]
    change = [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)]
              for i in range(n)]
    return polys, change


@settings(deadline=None)
@given(polys_and_changes_of_basis())
def test_canonicalize_is_invariant_under_a_change_of_basis(case):
    polys, change = case
    mixed = [sum((p * c for p, c in zip(polys, row)), Poly.zero()) for row in change]
    basis = canonicalize(polys)
    assert canonicalize(mixed) == basis
    assert all(p.lc == 1 for p in basis)
    assert [p.degree for p in basis] == sorted({p.degree for p in basis})


def test_space_membership_and_coords():
    sp = PolySpace([Poly.one(), X, X**2])
    assert sp.dim == 3
    assert sp.contains(X**2 + 3 * X - 1)
    assert sp.coords(X**2 + 3 * X - 1) == [F(-1), F(3), F(1)]
    assert not sp.contains(X**3)
    assert sp.element([1, 0, 2]) == 2 * X**2 + 1
    rebuilt = PolySpace.from_json(sp.to_json())
    assert rebuilt == sp


def test_elements_take_one_coordinate_per_vector():
    space = get_space("deg6")
    wb = witt_basis(space)
    for element in (wb.element, space.element):
        for n in (0, 1, 6, 8):
            with pytest.raises(ValueError, match=f"expected 7 coordinates, got {n}"):
                element([1] * n)
    assert wb.element([1] * 7) == sum(wb.vectors, Poly.zero())


def test_degree_window_space_unramified():
    sp = degree_window_space()
    assert sp.degrees == (0, 1, 2, 3, 4, 5, 6)
    assert all(t == Poly.one() for t in sp.ramification)
    assert all(sp.U(k) == Poly.one() for k in range(1, 8))
    # Top Wronskian constant is the product of factorials 0! ... 6!.
    expect = 1
    for i in range(7):
        expect *= factorial(i)
    assert sp.top_constant() == expect


def test_monomial_space_ramification():
    sp = monomial_space(2, 3)
    assert sp.degrees == (0, 2, 3, 5, 7, 8, 10)
    # Divisor pattern x^(m-1), x^(n-m-1), x^(m-1) and its mirror.
    assert [str(t) for t in sp.ramification] == ["x", "1", "x", "x", "1", "x"]
    assert sp.U(7) == X**14
    sp13 = monomial_space(1, 3)
    assert [str(t) for t in sp13.ramification] == ["1", "x", "1", "1", "x", "1"]


def test_monomial_space_refuses_a_negative_exponent():
    # With a = -1 the first exponent is -1, and x^-1 is no polynomial.
    with pytest.raises(ValueError, match="negative monomial degree"):
        monomial_space(1, 2, a=-1)


def test_base_point_detection():
    sp = PolySpace([X, X**2, X**3])
    with pytest.raises(BasePointError):
        sp.U(1)


def test_divided_wronskian_membership_guard():
    sp = degree_window_space()
    with pytest.raises(SpaceError):
        sp.divided_wronskian([X, X**7])


def assert_wronskian_invariants_match_their_definitions(sp):
    # U_k, the duals and the top constant read the space's one cached table
    # of subset Wronskians; here each is rebuilt subset by subset from
    # wronskian, poly_gcd and exact_div.  wronskian is itself a fresh table,
    # whose entries test_polynomials checks against a cofactor oracle.
    n = sp.dim
    U = [None]
    for k in range(1, n + 1):
        g = Poly.zero()
        for subset in combinations(sp.basis, k):
            g = poly_gcd(g, wronskian(subset))
        if k == 1 and g != Poly.one():
            with pytest.raises(BasePointError):
                sp.U(1)
        else:
            assert sp.U(k) == g
        U.append(g)
    for i, dual in enumerate(sp.duals()):
        assert dual == exact_div(wronskian(sp.basis[:i] + sp.basis[i + 1 :]), U[n - 1])
    assert sp.top_constant() == exact_div(wronskian(sp.basis), U[n]).coeff(0)
    divided = sp.divided_wronskians(sp.basis, 3)
    assert list(divided) == list(combinations(range(n), 3))
    for subset, w in divided.items():
        assert w == sp.divided_wronskian([sp.basis[i] for i in subset])


@pytest.mark.parametrize("name", sorted(SPACES))
@settings(max_examples=4, deadline=None)
@given(st.fractions(min_value=-3, max_value=3, max_denominator=3))
@example(0)
@example(Fraction(1, 2))
def test_wronskian_invariants_of_translated_fixtures(name, c):
    # A fractional shift makes U_k non-monic over the integers.
    assert_wronskian_invariants_match_their_definitions(
        PolySpace([p.translate(c) for p in get_space(name).basis]))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=1, max_size=5), min_size=3, max_size=6),
       st.integers(-2, 2), st.integers(0, 2))
def test_wronskian_invariants_of_random_spaces(rows, root, power):
    # Every element shares the factor (x - root)^power, a base point when
    # power > 0, and the gcds are rarely the first subset's Wronskian.
    common = Poly([-root, 1]) ** power
    sp = PolySpace([Poly(r) * common for r in rows if any(r)] or [common])
    assume(sp.dim >= 3)
    assert_wronskian_invariants_match_their_definitions(sp)


def test_divided_wronskians_guards_like_divided_wronskian():
    sp = degree_window_space()
    with pytest.raises(SpaceError):
        sp.divided_wronskians([X, X**7, Poly.one()], 2)
    with pytest.raises(BasePointError):
        PolySpace([X, X**2, X**3]).divided_wronskians([X, X**2], 1)


def test_self_duality():
    assert degree_window_space().is_self_dual()
    assert monomial_space(2, 3).is_self_dual()
    # Degree 7 instead of 6 breaks duality.
    crooked = PolySpace([X**i for i in (0, 1, 2, 3, 4, 5, 7)])
    assert not crooked.is_self_dual()
    with pytest.raises(NotSelfDualError):
        crooked.bilinear_form()


def test_degree_window_gram_frozen():
    # In the monic basis 1, x, ..., x^6 the form pairs degree i with 6-i:
    # B(x^(i-1), x^(j-1)) = (i-1)! (j-1)! (-1)^(i+1) for i+j=8, else 0.
    B = degree_window_space().bilinear_form()
    g = B.gram
    for i in range(1, 8):
        for j in range(1, 8):
            if i + j == 8:
                expect = F(factorial(i - 1) * factorial(j - 1) * (-1) ** (i + 1))
            else:
                expect = F(0)
            assert g[i - 1][j - 1] == expect
    assert B(Poly.one(), X**6) == 720
    assert B(X**3, X**3) == -36
    assert B(Poly.one(), Poly.one()) == 0


def test_degree_steps():
    assert degree_steps(degree_window_space()) == (0, 1, 2)
    assert degree_steps(monomial_space(2, 3)) == (0, 2, 3)
    with pytest.raises(DegreePatternError):
        degree_steps(PolySpace([X**i for i in (0, 1, 2, 3, 4, 5, 7)]))


def test_witt_basis_checks_the_dimension_first():
    nine = PolySpace([X**i for i in range(9)])
    with pytest.raises(DegreePatternError, match="need dimension 7, got 9"):
        witt_basis(nine)


def test_witt_scales_factorials():
    assert witt_scales(1, 2) == [F(1, factorial(i)) for i in range(7)]
    assert witt_scales(1, 3)[3] == F(1, 12)


def test_witt_basis_degree_window():
    wb = witt_basis(degree_window_space())
    # The standard basis x^i / i! survives unchanged.
    for i, v in enumerate(wb.vectors):
        assert v == Poly.monomial(i, F(1, factorial(i)))
    assert (wb.a, wb.m, wb.n) == (0, 1, 2)
    assert wb.coords(X**2) == [0, 0, 2, 0, 0, 0, 0]


def test_witt_basis_pairing_exact():
    for m, n in [(1, 2), (1, 3), (2, 3), (1, 4)]:
        sp = monomial_space(m, n)
        wb = witt_basis(sp)
        B = sp.bilinear_form()
        for i in range(7):
            for j in range(7):
                want = F((-1) ** i) if i + j == 6 else F(0)
                assert B(wb.vectors[i], wb.vectors[j]) == want
        scales = witt_scales(m, n)
        for v, s in zip(wb.vectors, scales):
            assert v.lc == s


def test_witt_basis_translated_space():
    # Translation x -> x + 1 of the (1, 2) space is the same space, so the
    # translated monomial spans must again produce an exact Witt basis.
    polys = [Poly.monomial(k).translate(1) for k in range(7)]
    sp = PolySpace(polys)
    wb = witt_basis(sp)
    B = sp.bilinear_form()
    assert B(wb.vectors[0], wb.vectors[6]) == 1
    assert B(wb.vectors[3], wb.vectors[3]) == -1


def _witt_basis_oracle(space):
    """The Witt vectors by Gram-Schmidt on polynomials, paired through the
    ``BilinearForm``: the reduction that ``witt_basis`` runs in coordinates,
    with the same errors."""
    B = space.bilinear_form()
    a, m, n = degree_steps(space)
    pool = list(space.basis)
    pairs = []

    def reduce_elt(x):
        for p, q, t in pairs:
            x = x - p * (B(x, q) / t) - q * (B(x, p) / t)
        return x

    for _ in range(3):
        low = reduce_elt(pool.pop(0))
        high = reduce_elt(pool.pop())
        if B(low, low) != 0:
            raise WittGramError(f"degree-{low.degree} vector is not isotropic")
        t = B(low, high)
        if t == 0:
            raise WittGramError(
                f"degenerate pairing between degrees {low.degree} and {high.degree}"
            )
        high = high - low * (B(high, high) / (2 * t))
        pairs.append((low, high, t))
    mid = reduce_elt(pool.pop())
    monic = [pairs[0][0], pairs[1][0], pairs[2][0], mid, pairs[2][1], pairs[1][1], pairs[0][1]]
    vectors = [p * s for p, s in zip(monic, witt_scales(m, n))]
    for i, j, got, want in _witt_gram_mismatches(B, vectors):
        raise WittGramError(f"pairing of rescaled vectors ({i}, {j}) is {got}, expected {want}")
    return (a, m, n), tuple(vectors)


def _outcome(build, space):
    """What build(space) gives: its result, or the type and text of its error."""
    try:
        return build(space)
    except SpaceError as exc:
        return type(exc), str(exc)


def _witt_basis_result(space):
    wb = witt_basis(space)
    return (wb.a, wb.m, wb.n), wb.vectors


@pytest.mark.parametrize("name", sorted(SPACES))
def test_witt_basis_matches_the_polynomial_oracle_on_fixtures(name):
    space = get_space(name)
    assert _outcome(_witt_basis_result, space) == _outcome(_witt_basis_oracle, space)


@settings(max_examples=12, deadline=None)
@given(
    st.sampled_from([(1, 2), (1, 3), (2, 3), (1, 4)]),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
def test_witt_basis_matches_the_polynomial_oracle_on_translates(steps, c):
    space = PolySpace([p.translate(c) for p in monomial_space(*steps).basis])
    assert _witt_basis_result(space) == _witt_basis_oracle(space)


def _corrupt_lowest(gram):
    gram[0][0] += 1  # the lowest vector is no longer isotropic


def _corrupt_outer(gram):
    gram[0][-1] = gram[-1][0] = F(0)  # the lowest and highest vectors no longer pair


def _corrupt_scale(gram):
    for row in gram:
        row[:] = [2 * e for e in row]  # every rescaled pairing doubles


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_corrupt_lowest, "degree-0 vector is not isotropic"),
        (_corrupt_outer, "degenerate pairing between degrees 0 and 8"),
        (_corrupt_scale, "pairing of rescaled vectors (1, 7) is 2, expected 1"),
    ],
)
def test_witt_gram_errors_keep_their_text(monkeypatch, corrupt, message):
    # monomial-1-3 has degrees 0, 1, 3, 4, 5, 7, 8, so a message's degrees
    # are read off the basis, not the coordinate positions.
    sp = monomial_space(1, 3)
    gram = [list(row) for row in sp.bilinear_form().gram]
    corrupt(gram)
    form = BilinearForm(sp, gram)
    monkeypatch.setattr(sp, "bilinear_form", lambda: form)
    got = _outcome(_witt_basis_result, sp)
    assert got == _outcome(_witt_basis_oracle, sp) == (WittGramError, message)


small_rats = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def _reference_coords(sp, f):
    """Coordinates of f by one dense solve over all degrees of f and sp."""
    top = max(sp.basis[-1].degree, f.degree)
    cols = [[p.coeff(i) for i in range(top + 1)] for p in sp.basis]
    sol = solve(transpose(cols), [f.coeff(i) for i in range(top + 1)])
    return sol[0] if sol else None


@st.composite
def spaces_and_queries(draw):
    """A random space and polynomials to ask it about: members, random
    polynomials (mostly outside), the zero polynomial, and polynomials of
    degree above the top basis degree."""
    poly = st.lists(small_rats, min_size=1, max_size=6).map(Poly)
    polys = draw(st.lists(poly, min_size=1, max_size=4).filter(lambda ps: any(ps)))
    sp = PolySpace(polys)
    combo = draw(st.lists(small_rats, min_size=sp.dim, max_size=sp.dim))
    above = Poly.monomial(sp.basis[-1].degree + draw(st.integers(1, 2)))
    queries = [sp.element(combo), draw(poly), Poly.zero(), above, above + sp.basis[0]]
    return sp, queries


@settings(deadline=None)
@given(spaces_and_queries())
def test_memoized_coords_match_a_dense_solve(case):
    sp, queries = case
    assert sp.coords(queries[0]) is not None
    for _ in range(2):  # the second pass answers from the memo
        for f in queries:
            want = _reference_coords(sp, f)
            assert sp.coords(f) == want
            assert sp.contains(f) == (want is not None)


def test_coords_returns_a_fresh_list():
    sp = monomial_space(1, 3)
    f = X**4 + 2 * X
    first = sp.coords(f)
    assert first == [0, 2, 0, 1, 0, 0, 0]
    first[1] = F(99)
    assert sp.coords(f) == [0, 2, 0, 1, 0, 0, 0]
    assert sp.coords(f) is not sp.coords(f)


def test_asymmetric_ramification_of_a_self_dual_space_is_an_error(monkeypatch):
    monkeypatch.setattr(PolySpace, "ramification", property(lambda self: (X, Poly.one())))
    with pytest.raises(SpaceError, match="asymmetric divisors"):
        monomial_space(1, 3).is_self_dual()


def test_asymmetric_gram_matrix_is_an_error(monkeypatch):
    upper = [[F(int(i <= j)) for j in range(7)] for i in range(7)]
    monkeypatch.setattr(spaces, "inverse", lambda m: upper)
    with pytest.raises(SpaceError, match="asymmetric invariant form"):
        monomial_space(1, 3).bilinear_form()


def check_witt_form(x, y) -> Fraction:
    """witt_form agrees over Fraction, QExt and constant MPoly, is symmetric,
    and matches the Gram entries; returns its value."""
    value = witt_form(x, y)
    assert type(value) is Fraction
    assert value == sum(x[i] * y[j] * _witt_pair(i + 1, j + 1) for i in range(7) for j in range(7))
    assert witt_form(y, x) == value
    lifted = witt_form([QExt.lift(c) for c in x], [QExt.lift(c) for c in y])
    assert type(lifted) is QExt and lifted == QExt.lift(value)
    symbolic = witt_form([MPoly.const(2, c) for c in x], [MPoly.const(2, c) for c in y])
    assert type(symbolic) is MPoly and symbolic == MPoly.const(2, value)
    return value


def _unit(i):
    return [F(int(k == i)) for k in range(7)]


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals, min_size=7, max_size=7), st.lists(rationals, min_size=7, max_size=7))
@example(_unit(0), _unit(6))
@example(_unit(3), _unit(3))
def test_witt_form_is_one_pairing_over_every_ring(x, y):
    check_witt_form(x, y)


def test_pair_coords():
    assert check_witt_form(_unit(0), _unit(6)) == 1
    assert check_witt_form(_unit(3), _unit(3)) == -1


@st.composite
def spaces_and_triples(draw):
    """A fixture or a translate of it, and three elements from rational
    coordinates through ``combine``, which seeds no coordinates; on about
    half the draws the third is a combination of the first two, a zero
    Wronskian."""
    name = draw(st.sampled_from(sorted(SPACES)))
    shift = draw(st.sampled_from([F(0), F(1), F(-1, 2), F(2, 3)]))
    sp = PolySpace([p.translate(shift) for p in get_space(name).basis])
    coords = st.lists(small_rats, min_size=sp.dim, max_size=sp.dim)
    a, b, c = (draw(coords) for _ in range(3))
    if draw(st.booleans()):
        s, t = draw(small_rats), draw(small_rats)
        c = [s * x + t * y for x, y in zip(a, b)]
    return sp, [combine(x, sp.basis) for x in (a, b, c)]


@settings(max_examples=30, deadline=None)
@given(spaces_and_triples())
def test_pair_wronskians_match_divided_wronskian(case):
    sp, (a, b, c) = case
    divided = sp.pair_wronskians(a, b)
    # One map of a pair serves every third element.
    for third in (c, b + c, a):
        assert divided(third) == sp.divided_wronskian([a, b, third])
    assert divided(a).is_zero()


@pytest.mark.parametrize("name", sorted(SPACES))
@settings(max_examples=10, deadline=None)
@given(st.lists(small_rats, min_size=7, max_size=7))
def test_elements_carry_their_coordinates(name, x):
    sp = PolySpace(get_space(name).basis)
    f = sp.element(x)
    assert sp.coords(f) == x
    assert PolySpace(sp.basis).coords(f) == x  # a fresh memo: the solve


def test_element_coordinates_are_rationals():
    sp = PolySpace(get_space("deg6").basis)
    f = sp.element([1, "1/2", QExt(3), 0, 0, 0, F(-2)])
    assert sp.coords(f) == [1, F(1, 2), 3, 0, 0, 0, -2]
    assert all(type(c) is Fraction for c in sp.coords(f))


def test_booleans_are_refused_as_coordinates():
    sp = get_space("deg6")
    wb = witt_basis(sp)
    for b in (True, False):
        v = [b, 0, 0, 0, 0, 0, 0]
        calls = (lambda: witt_form(v, _unit(6)), lambda: witt_form(_unit(0), v[::-1]),
                 lambda: sp.element(v), lambda: wb.element(v))
        for call in calls:
            with pytest.raises(TypeError, match=f"cannot interpret {b} as a rational"):
                call()


def _gram_double_sum(gram, x, y):
    """The form as the Fraction double sum over every Gram entry."""
    return sum((x[i] * y[j] * gram[i][j] for i in range(len(x)) for j in range(len(y))), F(0))


sparse_rats = st.one_of(st.just(F(0)), small_rats)


@pytest.mark.parametrize("name", sorted(set(SPACES) - {"not-self-dual"}))
@settings(max_examples=15, deadline=None)
@given(st.lists(sparse_rats, min_size=7, max_size=7), st.lists(sparse_rats, min_size=7, max_size=7))
@example([F(0)] * 7, [F(1)] * 7)
def test_integer_gram_sum_matches_the_double_sum(name, x, y):
    B = get_space(name).bilinear_form()
    got = B.pair(x, y)
    assert type(got) is Fraction and got == _gram_double_sum(B.gram, x, y)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(sparse_rats, min_size=7, max_size=7), min_size=7, max_size=7),
       st.lists(sparse_rats, min_size=7, max_size=7), st.lists(sparse_rats, min_size=7, max_size=7))
@example([[F(0)] * 7] * 7, [F(1)] * 7, [F(1)] * 7)
def test_integer_gram_sum_of_any_gram_matrix(gram, x, y):
    got = BilinearForm(degree_window_space(), gram).pair(x, y)
    assert type(got) is Fraction and got == _gram_double_sum(gram, x, y)


@pytest.mark.parametrize("name", sorted(set(SPACES) - {"not-self-dual"}))
@settings(max_examples=10, deadline=None)
@given(st.lists(sparse_rats, min_size=7, max_size=7))
def test_witt_coords_and_element_round_trip(name, c):
    sp = PolySpace(get_space(name).basis)
    wb = witt_basis(sp)
    f = wb.element(c)
    assert f == sum((w * x for w, x in zip(wb.vectors, c)), Poly.zero())
    assert wb.coords(f) == c
    g = sp.element(c)
    assert wb.element(wb.coords(g)) == g
