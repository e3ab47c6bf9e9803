"""Spinor module: Clifford action, invariant forms, pure spinors, preimages."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2spaces import spin
from g2spaces.linalg import Mat, rank, same_span
from g2spaces.scalars import HALF_SQRT2, SQRT2, QExt
from g2spaces.spin import (
    MASKS,
    P_SPINOR,
    Preimages,
    SpinError,
    Spinor,
    action_matrix,
    annihilator,
    clifford_act,
    hatB,
    hatQ,
    invariant_surjection,
    preimages,
    spinor_embed,
    unit_images,
    witt_form,
    witt_quadratic,
)

F = Fraction


def unit(i):
    v = [F(0)] * 7
    v[i - 1] = F(1)
    return v


def rand_vec(rng, with_sqrt2=False):
    if with_sqrt2:
        return [
            QExt(F(rng.randint(-3, 3)), F(rng.randint(-2, 2), rng.randint(1, 2)))
            for _ in range(7)
        ]
    return [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(7)]


def rand_spinor(rng):
    return Spinor(
        [QExt(F(rng.randint(-3, 3)), F(rng.randint(-2, 2))) for _ in range(8)]
    )


def test_clifford_relations():
    ident = Mat.identity(8)
    mats = {i: action_matrix(i) for i in range(1, 8)}
    for i in range(1, 8):
        for j in range(1, 8):
            anti = mats[i] * mats[j] + mats[j] * mats[i]
            if i + j == 8:
                want = ((-1) ** i) * ident
            else:
                want = 0 * ident
            assert anti == want, (i, j)


def test_action_matrix_frozen_entries():
    # Multiplication by the 6-generator sends e5 to -e56.
    m6 = action_matrix(6)
    assert m6.rows[4][1] == -1
    # The 6-derivative sends e56 to -e5 and e567 to -e57.
    d6 = action_matrix(2)
    assert d6.rows[1][4] == -1
    assert d6.rows[6][7] == -1
    # Multiplication by the 7-generator sends e56 to +e567.
    assert action_matrix(7).rows[7][4] == 1
    # The middle generator is the parity operator scaled by 1/sqrt2.
    a4 = action_matrix(4)
    for j, mask in enumerate(MASKS):
        want = HALF_SQRT2 * ((-1) ** len(mask))
        assert a4.rows[j][j] == want


def test_generators_have_at_most_one_entry_per_row_and_column():
    for entries in spin._GENERATORS:
        rows = [r for r, _, _ in entries]
        cols = [c for _, c, _ in entries]
        assert len(set(rows)) == len(rows) and len(set(cols)) == len(cols)


small_qexts = st.builds(
    QExt,
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
)


@settings(deadline=None, max_examples=40)
@given(st.lists(small_qexts, min_size=7, max_size=7), st.lists(small_qexts, min_size=8, max_size=8))
def test_sparse_action_matches_the_dense_matrices(v, parts):
    s = Spinor(parts)
    assert list(clifford_act(v, s)) == Mat(spin._action_rows(v)) * parts
    for i, image in enumerate(unit_images(s), start=1):
        assert list(image) == action_matrix(i) * parts


def test_hatQ_of_reference_spinor():
    assert hatQ(P_SPINOR) == QExt(0, F(-1, 2))
    assert hatB(P_SPINOR, P_SPINOR) == 2 * hatQ(P_SPINOR)


def test_hatB_symmetric_and_consistent():
    rng = random.Random(5)
    for _ in range(20):
        s, t = rand_spinor(rng), rand_spinor(rng)
        assert hatB(s, t) == hatB(t, s)
        assert hatB(s, s) == 2 * hatQ(s)


def test_action_skew_for_hatB():
    rng = random.Random(6)
    for _ in range(20):
        s, t = rand_spinor(rng), rand_spinor(rng)
        v = rand_vec(rng, with_sqrt2=True)
        vs, vt = clifford_act(v, s), clifford_act(v, t)
        assert hatB(vs, t) == -hatB(s, vt)
        assert hatB(vs, s) == -hatB(s, vs)


def test_action_squares_to_quadratic_form():
    rng = random.Random(7)
    for _ in range(20):
        s = rand_spinor(rng)
        v = rand_vec(rng)
        vvs = clifford_act(v, clifford_act(v, s))
        q = witt_quadratic(v)
        assert vvs == (-q) * s


def test_vector_pairing_through_spinors():
    rng = random.Random(8)
    for _ in range(20):
        u, v = rand_vec(rng), rand_vec(rng)
        up = clifford_act(u, P_SPINOR)
        vp = clifford_act(v, P_SPINOR)
        assert hatB(up, vp) == witt_form(u, v) * hatQ(P_SPINOR)


def test_spinor_embed_coordinate_spaces():
    s = spinor_embed([unit(1), unit(5), unit(6)])
    assert [bool(c) for c in s] == [False, False, False, False, True, False, False, False]
    t = spinor_embed([unit(2), unit(3), unit(7)])
    assert [bool(c) for c in t] == [False, False, False, True, False, False, False, False]
    with pytest.raises(SpinError):
        spinor_embed([unit(1), unit(2), unit(7)])


def test_annihilator_roundtrip():
    s = spinor_embed([unit(1), unit(5), unit(6)])
    ann = annihilator(s)
    assert same_span([list(u) for u in ann], [unit(1), unit(5), unit(6)])
    with pytest.raises(SpinError):
        annihilator(P_SPINOR)


def test_invariant_surjection_inverts_action():
    rng = random.Random(9)
    for _ in range(10):
        u = rand_vec(rng, with_sqrt2=(rng.random() < 0.5))
        up = clifford_act(u, P_SPINOR)
        got = invariant_surjection(up)
        assert got == [QExt.lift(c) for c in u]


def test_preimages_middle_vector():
    res = preimages(unit(4))
    assert res.kind == "split"
    assert res.lines[0] == SQRT2 * Spinor([0, 0, 0, 0, 1, 0, 0, 0])
    assert res.lines[1] == -Spinor([0, 0, 0, 1, 0, 0, 0, 0])
    assert same_span([list(u) for u in res.spaces[0]], [unit(1), unit(5), unit(6)])
    assert same_span([list(u) for u in res.spaces[1]], [unit(2), unit(3), unit(7)])


def test_preimages_that_miss_the_complement_are_an_error(monkeypatch):
    monkeypatch.setattr(spin, "rank", lambda rows: 5)
    with pytest.raises(SpinError, match="do not span the complement"):
        preimages(unit(4))


def test_preimages_isotropic_vector():
    res = preimages(unit(1))
    assert res.kind == "isotropic"
    assert len(res.spaces) == 1
    from g2spaces.linalg import in_span

    assert in_span([list(u) for u in res.spaces[0]], [QExt.lift(c) for c in unit(1)])


def test_preimages_irrational_branch():
    v = unit(1)
    v[6] = F(-3, 2)  # B(v, v) = -3, so -Q(v) = 3/2 has no root in Q(sqrt2)
    res = preimages(v)
    assert res.kind == "irrational"
    assert res.spaces == []


def test_isotropic_action_kernel_equals_image():
    rng = random.Random(10)
    checked = 0
    while checked < 10:
        v = rand_vec(rng)
        # Force isotropy by solving for the last coordinate.
        if not v[0]:
            continue
        # B(v, v) = 2 v1 v7 - 2 v2 v6 + 2 v3 v5 - v4^2 in 1-based labels.
        v[6] = (2 * v[1] * v[5] - 2 * v[2] * v[4] + v[3] * v[3]) / (2 * v[0])
        assert witt_quadratic(v) == 0
        m = [[QExt.lift(0)] * 8 for _ in range(8)]
        for i in range(1, 8):
            a = action_matrix(i)
            for r in range(8):
                for c in range(8):
                    if a.rows[r][c]:
                        m[r][c] = m[r][c] + v[i - 1] * a.rows[r][c]
        from g2spaces.linalg import kernel

        ker = kernel(m)
        assert len(ker) == 4
        cols = [[m[r][c] for r in range(8)] for c in range(8)]
        assert same_span(ker, cols)
        checked += 1


def test_nonisotropic_spinor_orbit_is_hyperplane():
    cols = []
    for i in range(1, 8):
        cols.append(list(clifford_act(unit(i), P_SPINOR).parts))
    assert rank(cols) == 7
    for c in cols:
        assert hatB(Spinor(c), P_SPINOR) == 0


def test_spinor_str_and_json():
    s = Spinor([1, 0, 0, HALF_SQRT2, 0, 0, 0, -2])
    assert "e567" in str(s)
    assert Spinor.from_json(s.to_json()) == s
