"""Three-form routes, standard-basis certification, and the decision pipeline."""

import random
import sys
from itertools import combinations, product
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from g2spaces import (
    THREE_FORM_VALUES,
    Poly,
    ThreeForm,
    associated_two_form,
    check_ssd,
    find_standard_basis,
    flag_is_g2_isotropic,
    flag_to_pair,
    kernel_2form,
    phi_map,
    quadratic_of_phi,
    three_form_from_spin,
    three_form_from_wronskians,
    three_form_of_phi,
    verify_standard_basis,
)
from g2spaces import g2, linalg
from g2spaces.bethe import BetheTuple, is_generic, population_bfs, space_from_population
from g2spaces.fixtures import (
    SPACES,
    factorial_basis,
    get_space,
    transformed_basis_a,
    transformed_basis_b,
)
from g2spaces.g2 import _flip, _unit, symmetry_image
from g2spaces.linalg import rank, same_span, transpose
from g2spaces.polynomials import NotASquareError
from g2spaces.scalars import QExt, rational_part
from g2spaces.spaces import (
    PolySpace,
    SpaceError,
    _witt_pair,
    degree_window_space,
    monomial_space,
    witt_basis,
)
from g2spaces.spin import P_SPINOR, clifford_act, hatB, unit_images


def unit(i):
    return _unit(i)


@pytest.fixture(scope="module")
def space():
    return degree_window_space()


@pytest.fixture(scope="module")
def wb(space):
    return witt_basis(space)


EXPL = ThreeForm(THREE_FORM_VALUES)


class TestThreeForm:
    def test_antisymmetric_lookup(self):
        assert EXPL(1, 4, 7) == F(1, 4)
        assert EXPL(4, 1, 7) == -F(1, 4)
        assert EXPL(7, 1, 4) == F(1, 4)
        assert EXPL(1, 1, 7) == 0
        assert EXPL(1, 2, 3) == 0

    def test_evaluate_is_trilinear_alternating(self):
        a, b, c = unit(1), unit(4), unit(7)
        assert EXPL.evaluate(a, b, c) == F(1, 4)
        assert EXPL.evaluate(b, a, c) == -F(1, 4)
        two_a = [2 * x for x in a]
        assert EXPL.evaluate(two_a, b, c) == F(1, 2)
        assert EXPL.evaluate(a, a, c) == 0

    def test_values_are_exact_and_keys_checked(self):
        assert ThreeForm({(1, 2, 3): "1/3", (2, 3, 4): QExt(F(1, 2))}).entries == {
            (1, 2, 3): F(1, 3), (2, 3, 4): F(1, 2)}
        for bad in (0.1, True, False):
            with pytest.raises(TypeError):
                ThreeForm({(1, 2, 3): bad})
        with pytest.raises(ValueError, match="not rational"):
            ThreeForm({(1, 2, 3): QExt(0, 1)})
        for key in ((0, 1, 2), (5, 6, 8), (2, 1, 3)):
            with pytest.raises(ValueError, match="ascending triples in 1..7"):
                ThreeForm({key: 1})

    def test_evaluate_takes_seven_rational_coordinates(self):
        with pytest.raises(TypeError):
            EXPL.evaluate([0.5, 0, 0, 0, 0, 0, 0], unit(4), unit(7))
        value = EXPL.evaluate([1, 0, 0, 0, 0, 0, 0], unit(4), ["0"] * 6 + ["2"])
        assert value == F(1, 2) and type(value) is F
        for n in (6, 8):
            with pytest.raises(ValueError, match=f"vector needs 7 Witt coordinates, got {n}"):
                EXPL.evaluate(unit(1), unit(4), [F(1)] * n)

    def test_flip_preserves_form(self):
        for i in range(1, 8):
            for j in range(i + 1, 8):
                for k in range(j + 1, 8):
                    lhs = EXPL.evaluate(_flip(unit(i)), _flip(unit(j)), _flip(unit(k)))
                    assert lhs == EXPL(i, j, k)


def _oracle_value(form, i, j, k):
    """The form at (i, j, k) by sorting: the value at the ascending triple
    times the sign of the sorting permutation."""
    if len({i, j, k}) < 3:
        return F(0)
    inversions = (i > j) + (i > k) + (j > k)
    return (-1) ** inversions * form.entries.get(tuple(sorted((i, j, k))), F(0))


def _oracle_matrix2(form, v):
    """Entry (j, k) of the contraction as the sum of v_i w(i, j, k) over all i."""
    return [[sum((v[i - 1] * _oracle_value(form, i, j, k) for i in range(1, 8)), F(0))
             for k in range(1, 8)] for j in range(1, 8)]


def _oracle_two_form(form):
    """The associated form by its definition: every partition of 1..7 into
    ascending A, B and C, every k and l, with the sign of A + B + C."""
    idx = range(1, 8)
    b = [[F(0)] * 7 for _ in idx]
    for A in combinations(idx, 2):
        for Bk in combinations([i for i in idx if i not in A], 2):
            C = tuple(i for i in idx if i not in A + Bk)
            perm, wC = A + Bk + C, _oracle_value(form, *C)
            sign = (-1) ** sum(perm[p] > perm[q] for p, q in combinations(range(7), 2))
            for k in idx:
                wk = _oracle_value(form, k, *A)
                for l in idx:
                    if wC and wk:
                        b[k - 1][l - 1] += sign * wk * _oracle_value(form, l, *Bk) * wC
    return b


_form_values = st.fractions(min_value=-4, max_value=4, max_denominator=3)
_sparse_forms = st.dictionaries(
    st.sampled_from(list(combinations(range(1, 8), 3))), _form_values, max_size=8
).map(ThreeForm)


@settings(max_examples=60, deadline=None)
@given(_sparse_forms, st.lists(_form_values, min_size=7, max_size=7))
def test_three_form_matches_the_sorting_oracles(form, v):
    for i, j, k in product(range(0, 9), repeat=3):
        assert form(i, j, k) == _oracle_value(form, i, j, k)
    assert form.matrix2(v) == _oracle_matrix2(form, v)
    assert form.evaluate(v, unit(2), unit(5)) == sum(
        (v[i - 1] * _oracle_value(form, i, 2, 5) for i in range(1, 8)), F(0))


@settings(max_examples=40, deadline=None)
@given(_sparse_forms)
def test_associated_two_form_matches_the_partition_oracle(form):
    assert associated_two_form(form) == _oracle_two_form(form)


def test_associated_two_form_oracle_on_the_standard_form():
    assert associated_two_form(EXPL) == _oracle_two_form(EXPL)


class TestSpinRoute:
    def test_matches_explicit_values(self):
        assert three_form_from_spin() == EXPL


class TestWronskianRoute:
    def test_degree_window_space(self):
        assert three_form_from_wronskians() == EXPL

    def test_monomial_space_2_3(self):
        assert three_form_from_wronskians(monomial_space(2, 3)) == EXPL

    def test_routes_yield_every_triple_once_in_order(self):
        rows = list(g2.three_form_routes())
        assert [key for key, *_ in rows] == list(combinations(range(1, 8), 3))
        for key, spin, wrons, want in rows:
            assert spin == wrons == want == EXPL(*key)
        assert {key: want for key, *_, want in rows if want} == THREE_FORM_VALUES

    def test_one_elimination_and_no_solve(self, monkeypatch):
        calls = []

        def counted(m):
            calls.append(len(m))
            return linalg.kernel(m)

        monkeypatch.setattr(g2, "kernel", counted)
        monkeypatch.setattr(g2, "solve", lambda rows, rhs: pytest.fail("solve was called"))
        assert three_form_from_wronskians() == EXPL
        assert calls == [105]

    def test_a_corrupted_later_value_is_inconsistent(self, monkeypatch):
        # All three symmetry generators leave a line; the first certified
        # triple fixes the scale, and a B that doubles every later value
        # breaks the agreement with it.
        space = degree_window_space()
        found, B = find_standard_basis(space), space.bilinear_form()
        scales = iter([1])
        monkeypatch.setattr(g2, "find_standard_basis", lambda s: found)
        monkeypatch.setattr(space, "bilinear_form", lambda: lambda f, g: next(scales, 2) * B(f, g))
        with pytest.raises(SpaceError, match="inconsistent"):
            three_form_from_wronskians(space)

    def test_no_certified_triple_hits_the_attempt_bound(self, monkeypatch):
        def never_a_square(p):
            raise NotASquareError("injected")

        monkeypatch.setattr(g2, "perfect_square_root", never_a_square)
        with pytest.raises(SpaceError, match="could not collect enough independent special triples"):
            three_form_from_wronskians()

    def test_two_generators_leave_more_than_a_line(self, monkeypatch):
        generators = g2._symmetry_generators()[:2]
        monkeypatch.setattr(g2, "_symmetry_generators", lambda: generators)
        with pytest.raises(SpaceError, match="not a line"):
            three_form_from_wronskians()

    def test_never_a_wrongly_scaled_form(self):
        # Triples are sampled in the certified standard basis, so the
        # translated space (method "flag", whose Witt basis is not standard)
        # gives the same form as the rest.
        for name in sorted(set(SPACES) - {"not-self-dual"}):
            assert three_form_from_wronskians(get_space(name)) == EXPL, name

    def test_a_space_without_a_standard_basis_is_refused(self, monkeypatch):
        undecided = g2.StandardBasisResult("undecided", detail="injected")
        monkeypatch.setattr(g2, "find_standard_basis", lambda s: undecided)
        with pytest.raises(SpaceError, match="no certified standard basis to sample in: injected"):
            three_form_from_wronskians()


class TestPhiMap:
    def test_unit_triple_quadratic(self, space, wb):
        n = phi_map(unit(1), unit(4), unit(7))
        wd = space.divided_wronskian([wb.vectors[0], wb.vectors[3], wb.vectors[6]])
        assert quadratic_of_phi(n, wb.vectors) == wd
        assert three_form_of_phi(n) == F(1, 4)

    def test_three_form_of_phi_matches_table(self, space, wb):
        for key in ((1, 2, 3), (2, 4, 6), (1, 5, 6), (2, 3, 7), (3, 4, 5)):
            n = phi_map(*(unit(i) for i in key))
            assert three_form_of_phi(n) == EXPL(*key)

    def test_random_triples(self, space, wb):
        rng = random.Random(11)
        for _ in range(5):
            coords = [[F(rng.randint(-3, 3)) for _ in range(7)] for _ in range(3)]
            n = phi_map(*coords)
            polys = [wb.element(c) for c in coords]
            assert quadratic_of_phi(n, wb.vectors) == space.divided_wronskian(polys)


    def test_phi_map_is_symmetric(self):
        rng = random.Random(12)
        for _ in range(3):
            n = phi_map(*([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(7)]
                          for _ in range(3)))
            assert type(n) is list and n == transpose(n)

    def test_unit_triples_give_the_table_values(self):
        for key in combinations(range(1, 8), 3):
            n = phi_map(*(unit(i) for i in key))
            assert three_form_of_phi(n) == THREE_FORM_VALUES.get(key, 0)

    def test_folded_sum_equals_the_full_sum_for_any_n(self, wb):
        rng = random.Random(13)
        n = [[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(7)] for _ in range(7)]
        assert n != transpose(n)
        full = Poly.zero()
        for k in range(7):
            for l in range(7):
                full = full + wb.vectors[k] * wb.vectors[l] * n[k][l]
        assert quadratic_of_phi(n, wb.vectors) == full


def phi_map_oracle(a, b, c):
    """phi_map through clifford_act and hatB over Q(sqrt 2): the images
    a.(b.(c.(v_i P))), paired against v_j P and read off as rationals."""
    ps = unit_images(P_SPINOR)
    images = [clifford_act(a, clifford_act(b, clifford_act(c, p))) for p in ps]
    r = [[F(1, 2) * (hatB(images[i], ps[j]) + hatB(images[j], ps[i])) for j in range(7)]
         for i in range(7)]
    return [[rational_part((-1) ** (k + l) * r[6 - k][6 - l]) for l in range(7)] for k in range(7)]


def three_form_oracle():
    """The spin three-form through clifford_act: -1/2 hatB(v_i.(v_j.(v_k.P)), P)."""
    entries = {}
    for i, j, k in combinations(range(1, 8), 3):
        s = clifford_act(unit(i), clifford_act(unit(j), clifford_act(unit(k), P_SPINOR)))
        entries[(i, j, k)] = rational_part(F(-1, 2) * hatB(s, P_SPINOR))
    return ThreeForm(entries)


witt_coords = st.lists(
    st.one_of(st.just(F(0)), st.fractions(min_value=-6, max_value=6, max_denominator=4)),
    min_size=7, max_size=7,
)


class TestUnitWordTable:
    @settings(deadline=None, max_examples=40)
    @given(witt_coords, witt_coords, witt_coords)
    def test_phi_map_equals_the_clifford_loop(self, a, b, c):
        assert phi_map(a, b, c) == phi_map_oracle(a, b, c)

    def test_phi_map_equals_the_clifford_loop_on_unit_triples(self):
        for key in [(1, 4, 7), (4, 4, 4), (7, 1, 4), (2, 6, 4), (5, 5, 3), (3, 1, 2)]:
            vectors = [unit(i) for i in key]
            assert phi_map(*vectors) == phi_map_oracle(*vectors)

    def test_three_form_from_spin_equals_the_clifford_loop(self):
        assert three_form_from_spin() == three_form_oracle()
        assert three_form_from_spin() is not three_form_from_spin()

    def test_table_shape(self):
        table = g2._phi_table()
        values = {F(v, 16) for *_, entries in table for _, v in entries}
        assert len(table) == 210
        assert sum(len(entries) for *_, entries in table) == 606
        assert values == {F(1), F(-1), F(1, 2), F(-1, 2), F(1, 4), F(-1, 4)}
        assert table is g2._phi_table()


class TestPhiMapInputs:
    def test_a_vector_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="vector needs 7 Witt coordinates, got 6"):
            phi_map(unit(1), unit(2), [F(1)] * 6)
        with pytest.raises(ValueError, match="vector needs 7 Witt coordinates, got 8"):
            phi_map([F(1)] * 8, unit(2), unit(3))

    def test_a_float_coordinate(self):
        with pytest.raises(TypeError):
            phi_map(unit(1), [0.5, 0, 0, 0, 0, 0, 0], unit(3))

    def test_a_sqrt2_coordinate(self):
        with pytest.raises(ValueError, match="not rational"):
            phi_map(unit(1), unit(4), [QExt(0, 1), 0, 0, 0, 0, 0, 0])

    def test_rational_qext_int_and_string_coordinates(self):
        want = phi_map(unit(1), unit(4), unit(7))
        assert phi_map([QExt(1), 0, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0], unit(7)) == want
        assert phi_map(unit(1), unit(4), ["0"] * 6 + ["1"]) == want

    def test_a_zero_vector_gives_the_zero_matrix(self):
        zero = [F(0)] * 7
        for vectors in ([zero, unit(2), unit(3)], [unit(1), zero, unit(3)],
                        [unit(1), unit(4), [0] * 7], [zero] * 3):
            n = phi_map(*vectors)
            assert n == [[0] * 7 for _ in range(7)]
            assert all(type(x) is F for row in n for x in row)


class TestKernel2Form:
    def test_kernel_at_first_slot(self):
        ker = kernel_2form(EXPL, unit(1))
        assert len(ker) == 3
        assert same_span(ker, [unit(1), unit(2), unit(3)])

    def test_kernel_at_middle_slot(self):
        ker = kernel_2form(EXPL, unit(4))
        assert len(ker) == 1
        assert same_span(ker, [unit(4)])

    def test_a_float_vector_is_refused(self):
        with pytest.raises(TypeError, match="float"):
            kernel_2form(three_form_from_spin(), [0.5, 0, 0, 0, 0, 0, 0])

    def test_a_boolean_coordinate_is_refused(self):
        # Python reads True as 1; every Witt-coordinate entry point refuses it.
        for b in (True, False):
            v = [b, 0, 0, 0, 0, 0, 0]
            calls = (lambda: EXPL.evaluate(v, unit(4), unit(7)),
                     lambda: EXPL.evaluate(unit(1), unit(4), v[::-1]),
                     lambda: EXPL.matrix2(v), lambda: kernel_2form(EXPL, v),
                     lambda: phi_map(unit(1), v, unit(7)),
                     lambda: flag_is_g2_isotropic(EXPL, [v, unit(2), unit(3)]))
            for call in calls:
                with pytest.raises(TypeError, match=f"cannot interpret {b} as a rational"):
                    call()

    def test_a_vector_of_the_wrong_length_is_refused(self):
        form = three_form_from_spin()
        for v in ([1, 0, 0, 0, 0, 0, 0, 5], [1, 0, 0, 0, 0, 0]):
            for call in (form.matrix2, lambda v: kernel_2form(form, v)):
                with pytest.raises(ValueError, match=f"vector needs 7 Witt coordinates, got {len(v)}"):
                    call(v)


class TestAssociatedTwoForm:
    def test_proportional_to_witt_gram(self):
        b = associated_two_form(EXPL)
        for i in range(7):
            for j in range(7):
                assert b[i][j] == F(3, 32) * _witt_pair(i + 1, j + 1)


class TestVerifyStandardBasis:
    def test_factorial_basis_passes(self, space, wb):
        report = verify_standard_basis(space, wb.vectors)
        assert report.ok
        assert report.failures == []

    def test_tampered_basis_fails(self, space, wb):
        bad = list(wb.vectors)
        bad[3] = bad[3] * F(2)
        report = verify_standard_basis(space, bad)
        assert not report.ok
        assert report.failures

    def test_wrong_count_fails(self, space, wb):
        report = verify_standard_basis(space, wb.vectors[:6])
        assert not report.ok


class TestFindStandardBasis:
    def test_monomial_direct(self, space):
        res = find_standard_basis(space)
        assert res.status == "found"
        assert res.method == "direct"
        expect = witt_basis(space).vectors
        assert list(res.vectors) == list(expect)

    def test_monomial_1_3(self):
        res = find_standard_basis(monomial_space(1, 3))
        assert res.status == "found"

    @pytest.mark.parametrize("name, method", [("shifted-2-3", "flag"), ("deg6", "direct")])
    def test_slot_equations_make_no_membership_check(self, monkeypatch, name, method):
        # Slot vectors are built from coordinates, so only the certification
        # may check membership; a check anywhere else fails the construction.
        check, verify, certifying = PolySpace._check_members, g2.verify_standard_basis, []

        def check_only_when_certifying(self, polys):
            assert certifying, "membership check outside the certification"
            return check(self, polys)

        def counted_verify(space, vectors):
            certifying.append(1)
            return verify(space, vectors)

        monkeypatch.setattr(PolySpace, "_check_members", check_only_when_certifying)
        monkeypatch.setattr(g2, "verify_standard_basis", counted_verify)
        res = find_standard_basis(PolySpace(get_space(name).basis))
        assert (res.status, res.method, len(certifying)) == ("found", method, 1)


class TestCheckSsd:
    def test_monomial_spaces_certify(self):
        for m, n in ((1, 2), (2, 3)):
            verdict = check_ssd(monomial_space(m, n))
            assert verdict.verdict == "ssd"
            assert verdict.basis is not None
            sp = monomial_space(m, n)
            assert verify_standard_basis(sp, verdict.basis).ok

    def test_translated_space_certifies(self):
        base = monomial_space(2, 3)
        shifted = [p.translate(F(1)) for p in base.basis]
        verdict = check_ssd(type(base)(shifted))
        assert verdict.verdict == "ssd"

    @pytest.mark.parametrize(
        "T1, T2",
        [([0, 1], [-1, 1]), ([-1, 0, 1], [1]), ([1], [-1, 0, 1])],
        ids=["x|x-1", "x^2-1|1", "1|x^2-1"],
    )
    def test_two_point_population_space_certifies(self, T1, T2):
        seed = BetheTuple("G2", [Poly.one(), Poly.one()], [Poly(T1), Poly(T2)])
        space = space_from_population(population_bfs(seed, 8, 12))
        verdict = check_ssd(space)
        assert verdict.verdict == "ssd"
        assert verify_standard_basis(space, verdict.basis).ok

    def test_failed_certification_is_undecided(self, monkeypatch):
        monkeypatch.setattr(
            g2, "verify_standard_basis", lambda space, vs: g2.StandardBasisReport(False, ["x"])
        )
        verdict = check_ssd(monomial_space(1, 3))
        assert verdict.verdict == "undecided"

    def test_wrong_dimension(self):
        sp = type(degree_window_space())([Poly.one(), Poly([F(0), F(1)])])
        verdict = check_ssd(sp)
        assert verdict.verdict == "not_ssd"

    def test_not_self_dual(self):
        coeff_lists = [[F(0)] * k + [F(1)] for k in (0, 1, 2, 3, 4, 5, 7)]
        sp = type(degree_window_space())([Poly(c) for c in coeff_lists])
        verdict = check_ssd(sp)
        assert verdict.verdict == "not_ssd"
        assert verdict.reason


class TestFlags:
    def test_default_flag_is_isotropic(self):
        assert flag_is_g2_isotropic(EXPL, [unit(1), unit(2), unit(3)])

    def test_bad_flag_rejected(self):
        assert not flag_is_g2_isotropic(EXPL, [unit(1), unit(2), unit(4)])

    def test_dependent_triple_rejected(self):
        assert not flag_is_g2_isotropic(EXPL, [unit(1), unit(2), [2 * c for c in unit(1)]])

    def test_a_flag_of_the_wrong_length_is_refused(self, space, wb):
        e = [[int(i == j) for i in range(8)] for j in range(3)]
        with pytest.raises(ValueError, match="vector needs 7 Witt coordinates, got 8"):
            flag_is_g2_isotropic(EXPL, e)
        with pytest.raises(ValueError, match="vector needs 7 Witt coordinates, got 6"):
            flag_is_g2_isotropic(EXPL, [x[:6] for x in e])
        with pytest.raises(ValueError, match="expected 7 coordinates, got 8"):
            flag_to_pair(space, wb, e)

    def test_flag_to_pair_at_base(self, space, wb):
        y1, y2 = flag_to_pair(space, wb, [unit(1), unit(2), unit(3)])
        assert y1 == Poly.one()
        assert y2 == Poly.one()


@settings(deadline=None, max_examples=8)
@given(rng=st.randoms(use_true_random=False))
def test_random_g2_flag_pair_repopulates_deg6(rng):
    # The paper's bridge: an isotropic v, the kernel of the form contracted
    # with v, and a plane between them make a G2-isotropic flag, whose pair
    # seeds a population spanning the space again.
    v = g2.random_isotropic_vector(rng)
    assume(v is not None)
    ker = kernel_2form(three_form_from_spin(), v)
    mix = [F(rng.randint(-3, 3)) for _ in ker]
    u = [sum(c * k[i] for c, k in zip(mix, ker)) for i in range(7)]
    assume(rank([v, u]) == 2)
    triple = [v, u, next(k for k in ker if rank([v, u, k]) == 3)]
    assert flag_is_g2_isotropic(EXPL, triple)
    space = get_space("deg6")
    seed = BetheTuple("G2", flag_to_pair(space, witt_basis(space), triple), [Poly.one()] * 2)
    assume(is_generic(seed))
    assert space_from_population(population_bfs(seed, depth=6)).basis == space.basis


def _explicit_basis_a(basis, c):
    """The first family written out slot by slot, as a reference for the shear."""
    v1, v2, v3, v4, v5, v6, v7 = basis
    return (
        v1 + v2 * c,
        v2,
        v3 + v4 * (2 * c) + v5 * (2 * c * c),
        v4 + v5 * (2 * c),
        v5,
        v6 + v7 * c,
        v7,
    )


def _explicit_basis_b(basis, c):
    """The second family written out slot by slot, as a reference for the shear."""
    v1, v2, v3, v4, v5, v6, v7 = basis
    return (v1, v2 + v3 * c, v3, v4, v5 + v6 * c, v6, v7)


class TestSymmetries:
    def test_flip_image_of_a_standard_basis_is_standard(self, space):
        image = symmetry_image(_flip, factorial_basis())
        assert image != factorial_basis()
        assert verify_standard_basis(space, image).ok

    @pytest.mark.parametrize("c", [F(1), F(-1), F(2), F(1, 2)], ids=str)
    def test_transformed_bases_match_the_explicit_formulas(self, c):
        basis = factorial_basis()
        assert transformed_basis_a(basis, c) == _explicit_basis_a(basis, c)
        assert transformed_basis_b(basis, c) == _explicit_basis_b(basis, c)


@settings(deadline=None, max_examples=12)
@given(
    steps=st.sampled_from([(1, 2), (1, 3), (2, 3), (1, 4)]),
    shift=st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
def test_translate_certifies_with_flag_adapted_basis(steps, shift):
    space = PolySpace([p.translate(shift) for p in monomial_space(*steps).basis])
    verdict = check_ssd(space)
    assert verdict.verdict == "ssd"
    assert verdict.reason.endswith(("(direct)", "(flag)"))
    wb = witt_basis(space)
    for k, v in enumerate(verdict.basis, 1):
        assert wb.coords(v)[k - 1 :] == [1] + [0] * (7 - k)


# Ramification roots (T1, T2) of G2 seeds with y = (1, 1); each spans its
# space at depth 8 under a budget of 12.
_POPULATION_SEEDS = (((0,), (1,)), ((-1, 1), ()), ((), (-1, 1)), ((0,), ()))


@pytest.fixture(scope="module")
def population_spaces():
    def product_of(roots):
        out = Poly.one()
        for r in roots:
            out = out * Poly([-r, 1])
        return out

    spaces = []
    for t1, t2 in _POPULATION_SEEDS:
        seed = BetheTuple("G2", [Poly.one()] * 2, [product_of(t1), product_of(t2)])
        spaces.append(space_from_population(population_bfs(seed, depth=8, max_nodes=12)))
    return spaces


@settings(deadline=None, max_examples=8)
@given(index=st.integers(0, len(_POPULATION_SEEDS) - 1),
       c=st.integers(-3, 3).filter(bool))
def test_verdict_is_invariant_under_translation(population_spaces, index, c):
    # x -> x + c preserves every condition check_ssd tests; only the route
    # named in the reason ("direct" or "flag") may change.
    space = population_spaces[index]
    moved = PolySpace([p.translate(c) for p in space.basis])
    assert check_ssd(moved).verdict == check_ssd(space).verdict


def test_check_ssd_eliminates_each_system_once(monkeypatch):
    # Every module that imported rref holds its own binding; count them all.
    original, calls = linalg.rref, []

    def counted(m):
        calls.append(1)
        return original(m)

    for name, module in list(sys.modules.items()):
        if name.startswith("g2spaces") and getattr(module, "rref", None) is original:
            monkeypatch.setattr(module, "rref", counted)
    space = get_space("shifted-2-3")
    calls.clear()
    assert check_ssd(space).verdict == "ssd"
    assert len(calls) <= 100
