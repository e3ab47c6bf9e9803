"""Exact linear algebra: rref, kernel, solve, inverse over Q and Q(sqrt 2)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2spaces.linalg import in_span, inverse, kernel, rank, rref, same_span, solve, transpose
from g2spaces.scalars import SQRT2, QExt

F = Fraction
I2 = [[1, 0], [0, 1]]


def apply(m, v):
    """The matrix-vector product of a row-list matrix."""
    return [sum((a * b for a, b in zip(row, v)), F(0)) for row in m]


def mul(a, b):
    """The product of two row-list matrices."""
    return transpose(apply(a, col) for col in transpose(b))


def test_transpose_turns_columns_into_rows():
    assert transpose([[1, 3], [2, 4]]) == [[1, 2], [3, 4]]
    assert transpose(iter([(1, 2, 3)])) == [[1], [2], [3]]
    assert transpose([]) == []
    assert all(type(r) is list for r in transpose([(1, 2), (3, 4)]))


def test_results_are_plain_row_lists():
    for m in (rref([[1, 2], [3, 4]])[0], rref([[SQRT2, 1], [1, SQRT2]])[0], rref([])[0],
              inverse([[1, 2], [3, 4]]), inverse([[SQRT2, 0], [0, 1]])):
        assert type(m) is list and all(type(r) is list for r in m)


def test_rref_canonical():
    m = [[0, 2, 4], [1, 1, 1]]
    red, pivots = rref(m)
    assert pivots == [0, 1]
    assert red == [[1, 0, -1], [0, 1, 2]]
    # All-zero column is skipped.
    red2, piv2 = rref([[0, 1], [0, 2]])
    assert piv2 == [1]
    assert red2 == [[0, 1], [0, 0]]


def test_kernel_canonical():
    ker = kernel([[1, 2, 3]])
    assert ker == [[F(-2), F(1), F(0)], [F(-3), F(0), F(1)]]
    assert kernel([[1, 0], [0, 1]]) == []
    # Kernel vectors actually annihilate.
    m = [[1, 2, 3], [4, 5, 6]]
    for v in kernel(m):
        assert apply(m, v) == [0, 0]


def test_solve():
    sol = solve([[1, 1], [1, -1]], [3, 1])
    assert sol is not None
    x, ker = sol
    assert x == [2, 1] and ker == []
    # Underdetermined: particular has free vars zero.
    x2, ker2 = solve([[1, 2, 3]], [6])
    assert x2 == [6, 0, 0]
    assert len(ker2) == 2
    # Inconsistent.
    assert solve([[1, 1], [2, 2]], [1, 3]) is None
    with pytest.raises(ValueError):
        solve([[1, 1], [2, 2]], [1])


@st.composite
def linear_systems(draw):
    """A random matrix of any rank and a right-hand side, consistent or not.

    The matrix is a product of random factors through an inner dimension
    that may be below both sides, so rank-deficient matrices are common.
    """
    small = st.integers(-3, 3)
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    inner = draw(st.integers(0, min(nrows, ncols)))
    left = [[draw(small) for _ in range(inner)] for _ in range(nrows)]
    right = [[draw(small) for _ in range(ncols)] for _ in range(inner)]
    m = [[F(sum(left[i][k] * right[k][j] for k in range(inner))) for j in range(ncols)]
         for i in range(nrows)]
    if draw(st.booleans()):
        y = [draw(small) for _ in range(ncols)]
        rhs = [sum((a * b for a, b in zip(row, y)), F(0)) for row in m]
    else:
        rhs = [F(draw(small)) for _ in range(nrows)]
    return m, rhs


@settings(deadline=None)
@given(linear_systems())
def test_solve_kernel_is_kernel_of_matrix(system):
    m, rhs = system
    sol = solve(m, rhs)
    if sol is None:
        # Inconsistent: rhs raises the rank.
        assert rank([row + [b] for row, b in zip(m, rhs)]) == rank(m) + 1
        return
    x, ker = sol
    assert apply(m, x) == rhs
    assert ker == kernel(m)


def reference_rref(m):
    """Textbook Gauss-Jordan over Fraction: normalise the pivot row, then
    clear its column; pivots are the first nonzero entry of each column,
    scanned top-down, columns left to right."""
    rows = [[F(e) for e in r] for r in m]
    pivots, r = [], 0
    for c in range(len(rows[0]) if rows else 0):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [e / rows[r][c] for e in rows[r]]
        for i in range(len(rows)):
            if i != r:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


@st.composite
def rational_matrices(draw):
    """Tall, wide or square rational matrices of any rank, some with a zero
    row or a zero column, with entries from small ints to large fractions.

    The matrix is a product through an inner dimension that may be below
    both sides, then each row is scaled by its own rational factor.
    """
    def ratios(num, den):
        return st.builds(F, num, st.integers(1, den))

    entry = st.one_of(st.integers(-3, 3).map(F), ratios(st.integers(-40, 40), 12),
                      ratios(st.integers(-10**30, 10**30), 10**20))
    nonzero = st.one_of(ratios(st.integers(1, 40), 12), ratios(st.integers(-40, -1), 12))
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    inner = draw(st.integers(0, min(nrows, ncols)))
    left = [[draw(entry) for _ in range(inner)] for _ in range(nrows)]
    right = [[draw(entry) for _ in range(ncols)] for _ in range(inner)]
    m = [[sum((left[i][k] * right[k][j] for k in range(inner)), F(0)) for j in range(ncols)]
         for i in range(nrows)]
    scale = [draw(nonzero) for _ in range(nrows)]
    m = [[e * s for e in row] for row, s in zip(m, scale)]
    if draw(st.booleans()):
        # Sparse: a zero in a later pivot column leaves a row untouched by
        # that step of the elimination.
        m = [[e if draw(st.booleans()) else F(0) for e in row] for row in m]
    if draw(st.booleans()):
        m[draw(st.integers(0, nrows - 1))] = [F(0)] * ncols
    if draw(st.booleans()):
        j = draw(st.integers(0, ncols - 1))
        for row in m:
            row[j] = F(0)
    # Entries that are whole numbers come as int or as Fraction.
    return [[int(e) if e.denominator == 1 and draw(st.booleans()) else e for e in row]
            for row in m]


@settings(deadline=None, max_examples=300)
@given(rational_matrices())
def test_rref_matches_the_reference(m):
    before = [list(row) for row in m]
    red, pivots = rref(m)
    want, want_pivots = reference_rref(m)
    assert pivots == want_pivots
    assert red == want
    assert all(type(e) is Fraction for row in red for e in row)
    assert m == before and all(type(a) is type(b) for r, s in zip(m, before) for a, b in zip(r, s))
    assert rank(m) == len(want_pivots)


@settings(deadline=None)
@given(rational_matrices())
def test_field_elimination_agrees_on_rational_qext_matrices(m):
    # The same values as QExt entries take the field loop, not the integer one.
    red, pivots = rref([[QExt(e) for e in row] for row in m])
    want, want_pivots = rref(m)
    assert pivots == want_pivots
    assert red == want


def test_mixed_qext_and_fraction_entries():
    m = [[SQRT2, F(2)], [F(1), SQRT2]]
    assert rank(m) == 1
    (v,) = kernel(m)
    assert SQRT2 * v[0] + 2 * v[1] == 0
    assert v == [-SQRT2, 1]
    x, ker = solve([[SQRT2, F(0)], [0, QExt(1, 1)]], [F(2), QExt(1, 1)])
    assert x[0] == SQRT2 and x[1] == 1 and ker == []
    red, pivots = rref([[F(1, 2), SQRT2], [F(1), QExt(0, 2)]])
    assert pivots == [0] and red == [[1, QExt(0, 2)], [0, 0]]


def test_a_float_entry_is_refused_on_the_field_path():
    for m in ([[0.5, 1], [1, 0]], [[F(1), 0.0], [0.0, -0.0]], [[SQRT2, 0.5], [1, 2]]):
        with pytest.raises(TypeError, match="float"):
            rref(m)
        with pytest.raises(TypeError, match="float"):
            kernel(m)
    assert rref([[True, 2], [F(1, 2), 1]]) == ([[1, 2], [0, 0]], [0])


def test_rows_skipped_by_a_step_catch_up():
    # Row 0 has a zero in column 1 and row 2 zeros in columns 0 and 1, so
    # each sits out a step before its entry in column 2 is cleared.
    red, pivots = rref([[2, 0, 1], [0, 3, 0], [0, 0, 5]])
    assert pivots == [0, 1, 2] and red == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    red, pivots = rref([[2, 0, 1, 1], [0, 3, 0, 1], [0, 0, 5, 1]])
    assert red == [[1, 0, 0, F(2, 5)], [0, 1, 0, F(1, 3)], [0, 0, 1, F(1, 5)]]


def test_large_numerators_stay_exact():
    big = 10**40 + 7
    m = [[F(big, 3), F(1, big)], [F(1, 5), F(big, 11)]]
    inv = inverse(m)
    assert mul(m, inv) == I2
    assert all(type(e) is Fraction for row in inv for e in row)


def test_inverse_and_singularity():
    m = [[2, 1], [1, 1]]
    mi = inverse(m)
    assert mul(m, mi) == I2
    assert inverse([[0, 1], [1, 0]]) == [[0, 1], [1, 0]]
    assert rank([[1, 2], [2, 4]]) == 1
    with pytest.raises(ValueError):
        inverse([[1, 2], [2, 4]])


def test_int_entries_eliminate_in_fractions():
    red, pivots = rref([[2, 1], [1, 1]])
    assert pivots == [0, 1] and red == [[1, 0], [0, 1]]
    red, _ = rref([[3, 1], [6, 5]])
    assert red == [[1, 0], [0, 1]]
    red, _ = rref([[3, 1, 2]])
    assert red == [[1, F(1, 3), F(2, 3)]]
    inv = inverse([[3, 0], [1, 7]])
    assert inv == [[F(1, 3), 0], [F(-1, 21), F(1, 7)]]
    for m in (red, rref([[2, 1], [1, 1]])[0], inv):
        assert all(type(e) is Fraction for r in m for e in r)
    # Bools are ints too, on both paths.
    assert rref([[True, 2]])[0] == [[1, 2]]
    assert rref([[True, SQRT2], [False, True]])[0] == I2


def test_ragged_matrices_are_refused():
    # Every elimination goes through rref, which checks the row lengths once.
    # solve eliminates [m | rhs], so its lengths count the right-hand side.
    for m, i, n, n0 in (([[1], [3, 4]], 1, 2, 1), ([[1, 2], [3]], 1, 1, 2),
                        ([[1, 0], [0, 1], [SQRT2]], 2, 1, 2)):
        message = f"ragged matrix: row {i} has length {n}, row 0 has length {n0}"
        for call in (rref, kernel, rank, lambda m: same_span(m, [[1, 0]]),
                     lambda m: same_span([[1, 0]], m)):
            with pytest.raises(ValueError, match=message):
                call(m)
        with pytest.raises(ValueError, match=f"row {i} has length {n + 1}, row 0 has length {n0 + 1}"):
            solve(m, [1] * len(m))
        # in_span takes the vectors as columns, so transpose refuses them.
        with pytest.raises(ValueError, match="shorter|longer"):
            in_span(m, [1] * n0)


def test_rank_and_span():
    assert rank([[1, 2], [2, 4], [0, 1]]) == 2
    assert in_span([[1, 0, 0], [0, 1, 0]], [3, -2, 0])
    assert not in_span([[1, 0, 0], [0, 1, 0]], [0, 0, 1])
    assert same_span([[1, 1], [1, -1]], [[1, 0], [0, 1]])
    assert not same_span([[1, 1]], [[1, 0]])


def test_qext_matrix_operations():
    m = [[SQRT2, QExt(2, 0)], [QExt(1, 0), SQRT2]]
    # Determinant 2 - 2 = 0, so kernel is one-dimensional.
    assert rank(m) == 1
    ker = kernel(m)
    assert len(ker) == 1
    v = ker[0]
    assert SQRT2 * v[0] + 2 * v[1] == 0
    # Nonsingular QExt system solves exactly.
    sol = solve([[SQRT2, 0], [0, QExt(1, 1)]], [QExt(2, 0), QExt(1, 1)])
    assert sol is not None
    x, k = sol
    assert x[0] == SQRT2 and x[1] == 1 and k == []


def test_inverse_qext():
    m = [[QExt(1, 1), QExt(0, 0)], [QExt(0, 0), QExt(0, 1)]]
    mi = inverse(m)
    prod = mul(m, mi)
    assert prod == [[QExt(1, 0), QExt(0, 0)], [QExt(0, 0), QExt(1, 0)]]
