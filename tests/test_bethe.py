"""Tests for tuple reproduction, populations, and weight bookkeeping."""

from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from g2spaces import acceptance, bethe, polynomials
from g2spaces.bethe import (
    _PARAMS,
    BetheTuple,
    Weight,
    a_tuple,
    apply_D,
    degree_increasing_descendant,
    descendants,
    dominant_representative,
    fertility_solve,
    genericity_defect,
    is_generic,
    kernel_operator,
    population_bfs,
    reproduction_rhs,
    shifted_orbit,
    shifted_reflect,
    space_from_population,
    weight_at_infinity,
    weyl_dim_g2,
)
from g2spaces.fixtures import SEEDS, get_seed
from g2spaces.g2 import check_ssd
from g2spaces.polynomials import Poly, RatFun, exact_div, wronskian
from g2spaces.spaces import SpaceError, degree_window_space, monomial_space, witt_basis

ONE = Poly.one()
X = Poly.x()


def g2_seed(T1=ONE, T2=ONE):
    return BetheTuple("G2", [ONE, ONE], [T1, T2])


@pytest.fixture(scope="module")
def pop():
    return population_bfs(g2_seed(), depth=6)


@pytest.fixture(scope="module")
def pop_space(pop):
    return space_from_population(pop)


class TestBetheTuple:
    def test_coordinates_are_normalized_monic(self):
        t = BetheTuple("G2", [X * 2 + Poly.constant(2), Poly.constant(3)], [ONE, ONE])
        assert t.polys == (X + ONE, ONE)

    def test_equal_up_to_scalars(self):
        a = BetheTuple("G2", [X * 5, Poly.constant(-2)], [ONE, ONE])
        b = BetheTuple("G2", [X, ONE], [ONE, ONE])
        assert a == b
        assert hash(a) == hash(b)

    def test_immutable(self):
        t = g2_seed()
        with pytest.raises(AttributeError):
            t.polys = ()

    def test_validation(self):
        with pytest.raises(ValueError):
            BetheTuple("B4", [ONE, ONE], [ONE, ONE])
        with pytest.raises(ValueError):
            BetheTuple("G2", [ONE], [ONE, ONE])
        with pytest.raises(ValueError):
            BetheTuple("G2", [ONE, Poly.zero()], [ONE, ONE])
        with pytest.raises(ValueError):
            BetheTuple("G2", [ONE, ONE], [ONE, Poly.zero()])

    def test_replace_is_one_based_and_fresh(self):
        t = g2_seed()
        s = t.replace(2, X)
        assert s.polys == (ONE, X)
        assert t.polys == (ONE, ONE)

    def test_json_round_trip(self):
        t = BetheTuple("C3", [X, ONE, X + ONE], [X, ONE, ONE])
        assert BetheTuple.from_json(t.to_json()) == t


class TestGenericity:
    def test_trivial_tuple_is_generic(self):
        assert is_generic(g2_seed())

    def test_multiple_root_fails(self):
        assert not is_generic(BetheTuple("G2", [X * X, ONE], [ONE, ONE]))

    def test_shared_adjacent_root_fails(self):
        assert not is_generic(BetheTuple("G2", [X, X], [ONE, ONE]))

    def test_only_adjacent_pairs_matter(self):
        t = BetheTuple("C3", [X, ONE, X], [ONE, ONE, ONE])
        assert is_generic(t) and genericity_defect(t) is None

    def test_defect_names_the_coordinate_with_multiple_roots(self):
        t = BetheTuple("C3", [X, (X - 1) ** 2, X + 1], [ONE, ONE, ONE])
        assert genericity_defect(t) == "coordinate 2 has multiple roots"

    def test_defect_names_the_adjacent_pair_sharing_a_root(self):
        t = BetheTuple("C3", [ONE, X, X * (X + 1)], [ONE, ONE, ONE])
        assert genericity_defect(t) == "coordinates 2 and 3 share a root"


class TestFertility:
    def test_constant_against_constant(self):
        fam = fertility_solve(ONE, ONE)
        assert fam.particular == X
        assert fam.kernel == ONE

    def test_cubic_right_hand_side(self):
        fam = fertility_solve(ONE, Poly.monomial(3))
        assert fam.particular == Poly.monomial(4, F(1, 4))

    def test_family_members_all_solve(self):
        y, rhs = X + ONE, Poly.monomial(2) + X * 2
        fam = fertility_solve(y, rhs)
        for c in (0, 1, -3, F(1, 2)):
            assert wronskian([y, fam.member(c)]) == rhs

    def test_infertile_by_obstruction(self):
        # W(x, q) never has a linear term, so rhs = x is unreachable
        assert fertility_solve(X, X) is None

    def test_infertile_by_degree(self):
        assert fertility_solve(Poly.monomial(2), ONE) is None

    def test_zero_inputs_rejected(self):
        with pytest.raises(ValueError):
            fertility_solve(Poly.zero(), ONE)
        with pytest.raises(ValueError):
            fertility_solve(ONE, Poly.zero())

    def test_member_takes_exact_parameters_only(self):
        fam = fertility_solve(ONE, ONE)
        assert fam.member(0) == fam.member(F(0)) == fam.member("0") == X
        assert fam.member(-3) == fam.member(F(-3)) == fam.member("-3") == X - 3
        assert fam.member(F(1, 2)) == fam.member("1/2") == X + F(1, 2)
        for bad in (0.1, 1.0, True, False):
            with pytest.raises(TypeError):
                fam.member(bad)


small_polys = st.lists(st.integers(-3, 3), min_size=1, max_size=9).map(Poly).filter(
    lambda p: not p.is_zero()
)


@settings(deadline=None)
@given(small_polys, small_polys)
def test_fertility_family_recovers_every_partner(y, q):
    rhs = wronskian([y, q])
    assume(not rhs.is_zero())
    fam = fertility_solve(y, rhs)
    assert fam is not None
    assert all(wronskian([y, fam.member(c)]) == rhs for c in _PARAMS)
    assert fam.kernel == y
    diff = q - fam.particular
    assert diff == y * (diff.coeff(y.degree) / y.lc)
    # The particular solution is the one whose coefficient at deg y, the
    # free column of the system, is zero.
    if rhs.degree + 1 >= 2 * y.degree:
        assert fam.particular.coeff(y.degree) == 0


@st.composite
def fertility_problems(draw):
    """A generic y, c (x - a_1)...(x - a_n) with distinct rational roots, and
    a nonzero right-hand side: W(y, q) for a random q, or a random poly."""
    roots = draw(st.lists(st.fractions(-4, 4, max_denominator=3), max_size=4, unique=True))
    c = draw(st.sampled_from([F(1), F(-2), F(3, 5)]))
    y = Poly.constant(c)
    for a in roots:
        y = y * Poly([-a, 1])
    if draw(st.booleans()):
        rhs = wronskian([y, draw(small_polys)])
    else:
        rhs = draw(small_polys)
    assume(not rhs.is_zero())
    return y, roots, rhs


def has_polynomial_partner(y, roots, rhs):
    """Whether W(y, q) = rhs has a polynomial solution q, decided apart from
    any linear system: W(y, q) = y^2 (q / y)', so a solution exists exactly
    when rhs / y^2 has a rational antiderivative, that is when its residue
    at every root a of y vanishes.  With y = (x - a) u that residue is
    (rhs / u^2)'(a), whose numerator is rhs'(a) u(a) - 2 rhs(a) u'(a)."""
    for a in roots:
        u = exact_div(y, Poly([-a, 1]))
        if rhs.derivative()(a) * u(a) - 2 * rhs(a) * u.derivative()(a) != 0:
            return False
    return True


@settings(deadline=None, max_examples=200)
@given(fertility_problems())
def test_fertility_solve_contract(problem):
    y, roots, rhs = problem
    fam = fertility_solve(y, rhs)
    assert (fam is not None) == has_polynomial_partner(y, roots, rhs)
    if fam is None:
        return
    assert wronskian([y, fam.particular]) == rhs
    if rhs.degree + 1 - y.degree >= y.degree:
        assert fam.particular.coeff(y.degree) == 0


class TestReproductionRhs:
    def test_pair_directions(self):
        t = BetheTuple("G2", [X, X + ONE], [Poly.monomial(2), Poly.constant(1)])
        assert reproduction_rhs(t, 1) == Poly.monomial(2) * (X + ONE)
        assert reproduction_rhs(t, 2) == X**3

    def test_triple_middle_direction(self):
        t = BetheTuple("C3", [X, ONE, X + ONE], [ONE, ONE, ONE])
        assert reproduction_rhs(t, 2) == X * (X + ONE) ** 2

    def test_six_tuple_boundary_and_middle(self):
        polys = [X + Poly.constant(k) for k in range(6)]
        t = BetheTuple("A6", polys, [ONE] * 6)
        assert reproduction_rhs(t, 1) == polys[1]
        assert reproduction_rhs(t, 6) == polys[4]
        assert reproduction_rhs(t, 3) == polys[1] * polys[3]

    def test_invalid_direction(self):
        with pytest.raises(ValueError):
            reproduction_rhs(g2_seed(), 3)


class TestDescendants:
    def test_seed_first_direction(self):
        kids = descendants(g2_seed(), 1)
        assert {k.polys[0] for k in kids} == {X, X + ONE, X - ONE, X + Poly.constant(2)}
        assert all(is_generic(k) for k in kids)

    def test_genericity_filters_square_partner(self):
        # rhs x^3 gives the family x^4/4 + c; the c = 0 member has a
        # quadruple root and must be dropped
        t = BetheTuple("G2", [X, ONE], [ONE, ONE])
        kids = descendants(t, 2)
        assert len(kids) == 3
        assert all(k.polys[1].coeff(0) != 0 for k in kids)

    def test_reproducing_back_recovers_seed(self):
        seed = g2_seed()
        child = degree_increasing_descendant(seed, 1)
        assert child.polys[0] == X
        assert seed in descendants(child, 1)

    def test_degree_increasing_choice(self):
        t = BetheTuple("G2", [X, ONE], [ONE, ONE])
        best = degree_increasing_descendant(t, 1)
        assert best.polys[0].degree == 1

    def test_non_generic_parent_keeps_only_children_that_mend_it(self):
        # x^2 has a double root at 0, which x shares.  Direction 2 keeps
        # x^2; direction 1 replaces it by the partners -1/2 + c x^2.
        t = BetheTuple("G2", [X * X, X], [ONE, ONE])
        assert descendants(t, 2) == ()
        kids = descendants(t, 1)
        assert kids == full_filter_descendants(t, 1)
        half, quarter = Poly.constant(F(1, 2)), Poly.constant(F(1, 4))
        assert [k.polys[0] for k in kids] == [ONE, X * X - half, X * X + half, X * X - quarter]


def full_filter_descendants(t, i):
    """The sampled partners filtered by the full genericity test of each child."""
    family = fertility_solve(t.polys[i - 1], reproduction_rhs(t, i))
    if family is None:
        return ()
    out, seen = [], set()
    for c in _PARAMS:
        q = family.member(c)
        if q.is_zero():
            continue
        child = t.replace(i, q)
        if child.key() in seen or not is_generic(child):
            continue
        seen.add(child.key())
        out.append(child)
    return tuple(out)


# Products of a few factors from a small pool, so that multiple and shared
# roots, and with them non-generic tuples, are common; and small random
# integer polynomials, which are mostly generic.
LINEAR = [X - r for r in range(-3, 4)]
FACTORS = LINEAR + [X * X + ONE, X * X - 2]
coordinates = st.one_of(
    st.lists(st.sampled_from(FACTORS), max_size=2).map(lambda fs: prod(fs, start=ONE)),
    st.lists(st.integers(-3, 3), min_size=1, max_size=4).filter(any).map(Poly),
)
ramification = st.lists(st.sampled_from(FACTORS), max_size=2).map(lambda fs: prod(fs, start=ONE))


@st.composite
def bethe_tuples(draw, kinds=("A6", "C3", "G2")):
    """Tuples of every kind.  Some are built so that reproducing can mend a
    double root: coordinate j is (x - r)^2, its T entry vanishes at r and
    every other coordinate has degree at most 1, so that direction j is
    often fertile."""
    kind = draw(st.sampled_from(kinds))
    n = len(bethe._CARTAN[kind])
    T = draw(st.lists(ramification, min_size=n, max_size=n))
    if draw(st.booleans()):
        polys = draw(st.lists(st.sampled_from([ONE, *LINEAR]), min_size=n, max_size=n))
        j, r = draw(st.integers(0, n - 1)), draw(st.integers(-3, 3))
        polys[j], T[j] = (X - r) ** 2, X - r
    else:
        polys = draw(st.lists(coordinates, min_size=n, max_size=n))
    return BetheTuple(kind, polys, T)


@settings(max_examples=80, deadline=None)
@given(bethe_tuples())
def test_descendants_equal_the_full_genericity_filter(t):
    for i in range(1, len(t.polys) + 1):
        assert descendants(t, i) == full_filter_descendants(t, i)


@settings(max_examples=60, deadline=None)
@given(bethe_tuples(kinds=("G2",)))
def test_reproducing_up_and_back_recovers_the_seed(seed):
    # When the new coordinate q has higher degree than y, reproducing back
    # solves an ansatz of degree deg y whose only solutions are multiples
    # of y, so the parameter-zero partner is the seed's coordinate again.
    assume(is_generic(seed))
    for i in (1, 2):
        for child in descendants(seed, i):
            if child.polys[i - 1].degree > seed.polys[i - 1].degree:
                assert seed in descendants(child, i)


class TestPopulation:
    DEGREE_PAIRS = {
        (0, 0), (0, 1), (1, 0), (1, 4), (2, 1), (2, 6),
        (4, 4), (4, 9), (5, 6), (5, 10), (6, 9), (6, 10),
    }

    def test_seed_is_first_member(self, pop):
        assert pop.members[0] == g2_seed()
        assert pop.kind == "G2"

    def test_size_is_stable(self, pop):
        assert len(pop.members) == 405

    def test_edges_are_well_formed(self, pop):
        for child, direction, parent in pop.edges:
            assert parent < child
            assert direction in (1, 2)
            restored = pop.members[child].replace(
                direction, pop.members[parent].polys[direction - 1]
            )
            assert restored == pop.members[parent]

    def test_degree_pairs(self, pop):
        assert {m.degrees() for m in pop.members} == self.DEGREE_PAIRS

    def test_span_is_the_degree_window(self, pop_space):
        assert pop_space == degree_window_space()
        assert pop_space.degrees == (0, 1, 2, 3, 4, 5, 6)

    def test_non_generic_seed_rejected(self):
        bad = BetheTuple("G2", [X * X, ONE], [ONE, ONE])
        with pytest.raises(ValueError):
            population_bfs(bad, depth=2)

    def test_shallow_exploration_reports_deficit(self):
        shallow = population_bfs(g2_seed(), depth=1)
        with pytest.raises(SpaceError, match="explore deeper"):
            space_from_population(shallow)

    @staticmethod
    def count_descendants(monkeypatch, depth):
        calls = []
        real = bethe.descendants

        def counted(t, i):
            calls.append(i)
            return real(t, i)

        monkeypatch.setattr(bethe, "descendants", counted)
        pop = population_bfs(get_seed("trivial"), depth)
        return len(calls), len(pop.members)

    def test_search_stops_when_the_budget_is_full(self, monkeypatch):
        # The budget of 400 fills at depth 6; nodes popped after that
        # could add nothing, so they are not expanded.
        calls, size = self.count_descendants(monkeypatch, 6)
        assert size == 405
        assert calls <= 150

    def test_search_below_the_budget_expands_every_node(self, monkeypatch):
        assert self.count_descendants(monkeypatch, 3) == (106, 302)


class TestKernelOperator:
    def test_trivial_data_gives_seventh_derivative(self):
        ones = [ONE] * 6
        assert apply_D(ones, ones, Poly.monomial(6)).is_zero()
        out = apply_D(ones, ones, Poly.monomial(7))
        assert out.is_poly() and out.as_poly() == Poly.constant(5040)

    def test_every_member_gives_the_same_kernel(self, pop, pop_space):
        for member in (pop.members[5], pop.members[-1]):
            yA, T = a_tuple(member)
            assert all(apply_D(yA, T, b).is_zero() for b in pop_space.basis)

    def test_widening_patterns(self):
        t = BetheTuple("G2", [X, X + ONE], [Poly.monomial(2), X])
        yA, T = a_tuple(t)
        assert yA == (X, X + ONE, X * X, X * X, X + ONE, X)
        assert T == (Poly.monomial(2), X, Poly.monomial(2), Poly.monomial(2), X, Poly.monomial(2))
        t3 = BetheTuple("C3", [X, ONE, X + ONE], [X, ONE, X])
        yA3, T3 = a_tuple(t3)
        assert yA3[2] == (X + ONE) ** 2 and yA3[5] == X
        assert T3 == (X, ONE, X, X, ONE, X)

    def test_bad_lengths_rejected(self):
        with pytest.raises(ValueError):
            apply_D([ONE] * 5, [ONE] * 6, X)

    def test_zero_data_refused(self):
        data = [X, X + ONE, ONE, X * X, Poly.constant(3), X]
        for k in (0, 2, 5):
            zeroed = data[:k] + [Poly.zero()] + data[k + 1 :]
            with pytest.raises(ZeroDivisionError):
                kernel_operator(zeroed, data)
            with pytest.raises(ZeroDivisionError):
                kernel_operator(data, zeroed)

    def test_only_polynomials_are_applied(self):
        data = [X] * 6, [ONE] * 6
        D = kernel_operator(*data)
        assert D(F(1, 2)) == factor_by_factor_D(*data, F(1, 2)) != 0
        with pytest.raises(TypeError):
            D(RatFun(ONE, X))


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


def factor_by_factor_D(yA, T, f):
    """The kernel operator applied one log factor at a time, each rebuilt."""

    def y(k):
        return yA[k - 1] if 1 <= k <= 6 else ONE

    g = RatFun.lift(f)
    for i in range(6, -1, -1):
        g = apply_log_factor(g, RatFun(prod(T[: 6 - i], start=y(7 - i)), y(6 - i)))
    return g


def test_kernel_operator_matches_apply_D(pop, pop_space):
    # The data and inputs of TestKernelOperator, plus inputs the operator
    # does not annihilate, through one operator built per data set.
    ones = [ONE] * 6
    shifted = a_tuple(BetheTuple("G2", [X - ONE, X * X + ONE], [X, X + ONE]))
    cases = [(ones, ones, [Poly.monomial(6), Poly.monomial(7), Poly.monomial(9)])]
    for member in (pop.members[0], pop.members[5], pop.members[-1]):
        cases.append((*a_tuple(member), [*pop_space.basis, Poly.monomial(7), X**8 + X]))
    cases.append((*shifted, [ONE, X**3 - 2, Poly.monomial(7)]))
    for yA, T, fs in cases:
        D = kernel_operator(yA, T)
        for f in fs:
            assert D(f) == apply_D(yA, T, f) == factor_by_factor_D(yA, T, f)
    assert kernel_operator(ones, ones)(Poly.monomial(7)) == RatFun(Poly.constant(5040))
    for bad in (([ONE] * 5, ones), (ones, [ONE] * 7)):
        with pytest.raises(ValueError, match="six coordinates and six T entries"):
            kernel_operator(*bad)
        with pytest.raises(ValueError, match="six coordinates and six T entries"):
            apply_D(*bad, X)


# Entries for kernel operator data: non-monic and rational T entries, a
# constant other than 1, and x, which a coordinate can equal.
KERNEL_ENTRIES = [ONE, Poly.constant(3), X, X - ONE, 2 * X + ONE, X * F(1, 3), X * X + ONE]


@st.composite
def kernel_data(draw):
    """A small G2, C3 or A6 tuple, whose widened data repeat entries."""
    kind = draw(st.sampled_from(("G2", "C3", "A6")))
    n = len(bethe._CARTAN[kind])
    entries = st.lists(st.sampled_from(KERNEL_ENTRIES), min_size=n, max_size=n)
    return BetheTuple(kind, draw(entries), draw(entries))


@settings(max_examples=40, deadline=None)
@given(kernel_data(), st.lists(small_polys, max_size=2))
def test_kernel_operator_equals_the_factor_by_factor_oracle(t, others):
    # y_1 and its partners q with W(y_1, q) = T_1 y_2 are in the kernel of
    # the two innermost factors, hence of the operator, for any data.
    yA, T = a_tuple(t)
    members = [t.polys[0]]
    family = fertility_solve(t.polys[0], reproduction_rhs(t, 1))
    if family is not None:
        members += [family.member(c) for c in _PARAMS]
    D = kernel_operator(yA, T)
    for f in members:
        assert D(f).is_zero()
    for f in [*members, *others, members[-1] + Poly.monomial(7)]:
        assert D(f) == factor_by_factor_D(yA, T, f)


def test_annihilation_builds_no_gcd(monkeypatch):
    def refuse(f, g):
        pytest.fail("poly_gcd ran during an annihilation check")

    monkeypatch.setattr(polynomials, "poly_gcd", refuse)
    for name in SEEDS:
        assert space_from_population(population_bfs(get_seed(name), depth=6)).dim == 7
    assert acceptance.criterion_4()[0]


class TestMonomialSeeds:
    @pytest.mark.parametrize("m,n", [(2, 3), (1, 3)])
    def test_monomial_data_spans_monomial_space(self, m, n):
        seed = g2_seed(Poly.monomial(m - 1), Poly.monomial(n - m - 1))
        space = space_from_population(population_bfs(seed, depth=6))
        assert space == monomial_space(m, n)

    def test_shifted_data_spans_certifiable_space(self):
        seed = g2_seed(X - ONE, ONE)
        space = space_from_population(population_bfs(seed, depth=6))
        assert space.degrees == (0, 2, 3, 5, 7, 8, 10)
        assert check_ssd(space).verdict == "ssd"

    def test_ramification_contributes_to_weights(self):
        seed = g2_seed(Poly.monomial(1), ONE)
        assert weight_at_infinity(seed) == Weight((1, 0))
        pop = population_bfs(seed, depth=6)
        orbit = shifted_orbit(Weight((1, 0)))
        assert len(orbit) == 12
        assert {weight_at_infinity(m) for m in pop.members} == orbit


class TestReplayChain:
    def test_alternating_chain_lands_on_a_square_root(self, pop_space):
        seed = g2_seed()
        y1, y2 = seed.polys
        T1, T2 = seed.T
        q1 = fertility_solve(y1, T1 * y2).member(0)
        q2 = fertility_solve(y2, T2 * q1 * y1 * y1).member(0)
        q3 = fertility_solve(y1, -(T1 * q2)).member(0)
        assert (q1, q2, q3) == (X, Poly.monomial(2, F(1, 2)), Poly.monomial(3, F(-1, 6)))
        yA, T = a_tuple(seed)
        assert apply_D(yA, T, q3).is_zero()
        wb = witt_basis(pop_space)
        v1, v5, v6 = wb.vectors[0], wb.vectors[4], wb.vectors[5]
        assert pop_space.divided_wronskian([v1, v5, v6]) == q3 * q3 * F(1, 4)
        B = pop_space.bilinear_form()
        assert all(B(q3, v) == 0 for v in (v1, v5, v6))


class TestWeights:
    def test_seed_weight_and_offsets(self):
        assert weight_at_infinity(g2_seed()) == Weight((0, 0))
        shifted = weight_at_infinity(g2_seed(), lambdas=[Weight((1, 2))])
        assert shifted == Weight((1, 2))
        t = BetheTuple("G2", [X, ONE], [ONE, ONE])
        assert weight_at_infinity(t) == Weight((-2, 3))

    def test_only_pair_tuples_have_weights(self):
        t = BetheTuple("C3", [ONE, ONE, ONE], [ONE, ONE, ONE])
        with pytest.raises(ValueError):
            weight_at_infinity(t)

    def test_shifted_reflections(self):
        zero = Weight((0, 0))
        assert shifted_reflect(zero, 1) == Weight((-2, 3))
        assert shifted_reflect(zero, 2) == Weight((1, -2))
        for w in (zero, Weight((3, -4)), Weight((-2, 5))):
            for i in (1, 2):
                assert shifted_reflect(shifted_reflect(w, i), i) == w
        with pytest.raises(ValueError):
            shifted_reflect(zero, 3)

    def test_dominant_representative(self):
        assert dominant_representative(Weight((-2, 3))) == Weight((0, 0))
        assert dominant_representative(Weight((2, 1))) == Weight((2, 1))
        assert dominant_representative(Weight((-1, 0))) is None

    def test_orbit_size_and_membership(self, pop):
        orbit = shifted_orbit(Weight((0, 0)))
        assert len(orbit) == 12
        assert {weight_at_infinity(m) for m in pop.members} == orbit

    def test_dimension_formula(self):
        assert weyl_dim_g2(0, 0) == 1
        assert weyl_dim_g2(1, 0) == 7
        assert weyl_dim_g2(0, 1) == 14
        assert weyl_dim_g2(2, 0) == 27

    def test_dimension_formula_rejects_a_non_integral_result(self):
        with pytest.raises(ValueError, match="no integral Weyl dimension"):
            weyl_dim_g2(F(1, 2), 0)
