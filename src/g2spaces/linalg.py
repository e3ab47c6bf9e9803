"""Exact dense linear algebra over Q and Q(sqrt 2).

A matrix is a plain list of row lists, and every function here takes and
returns that one format; ``transpose`` turns a list of column vectors into
rows.  Entries may be Fraction, int, or QExt; any type with field
arithmetic and truthiness works.  ``rref``, which every other elimination
here goes through, refuses a ragged matrix with ValueError.  It eliminates
a rational matrix (only int and Fraction entries) on primitive integer
rows: each row a step changes is divided by its gcd, and each pivot row by
its pivot at the end.  A row is fixed up to a factor at every step, so this
is Bareiss's fraction-free elimination up to each row's content.  A matrix
with any other entry, such as QExt, is eliminated over its field, with int
entries lifted to Fraction; a float entry raises TypeError.  Either way
the results are Fractions or field elements, never floats.  Pivoting is
deterministic: columns are scanned left to right and the first row with a
nonzero entry is chosen, so reduced forms, kernels, solutions are canonical.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .scalars import _clear_ints


def transpose(cols) -> list[list]:
    """The rows of the matrix whose columns are the given vectors; vectors of
    different lengths raise ValueError."""
    return [list(row) for row in zip(*cols, strict=True)]


def _field_rref(rows) -> tuple[list[list], list[int]]:
    """Gauss-Jordan over the entries' own field, normalising each pivot row
    before clearing its column.  Int (and bool) entries are lifted to
    Fraction first, so dividing by an int pivot stays exact; floats raise."""
    if any(isinstance(e, float) for r in rows for e in r):
        raise TypeError("float entry in an exact elimination")
    rows = [[Fraction(e) if isinstance(e, int) else e for e in r] for r in rows]
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [e / pv for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _integer_rref(rows) -> tuple[list[list], list[int]]:
    """Gauss-Jordan on primitive integer rows, for rows of ints and Fractions.

    Each row is cleared to primitive integers, which leaves its span alone.
    Clearing column c from a row R with entry a against the pivot row with
    pivot p sets R to p * R - a * pivot_row divided by its gcd.  After k
    steps a row is fixed up to a rational factor (its original row plus the
    combination of the k pivot rows that clears their columns), so it is
    the Bareiss row (Bareiss 1968), whose entries are minors, divided by
    its content.  At the end each pivot row is divided by its pivot.
    """
    ints = [_clear_ints(row)[0] for row in rows]
    nrows = len(ints)
    pivots = []
    r = 0
    for c in range(len(ints[0])):
        pr = None
        for i in range(r, nrows):
            if ints[i][c]:
                pr = i
                break
        if pr is None:
            continue
        ints[r], ints[pr] = ints[pr], ints[r]
        top = ints[r]
        p = top[c]
        for i in range(nrows):
            a = ints[i][c]
            if a and i != r:
                row = [p * x - a * y for x, y in zip(ints[i], top)]
                g = gcd(*row)
                ints[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    red = [[Fraction(x, row[c]) for x in row] for row, c in zip(ints, pivots)]
    return red + [[Fraction(0)] * len(row) for row in ints[r:]], pivots


def rref(m) -> tuple[list[list], list[int]]:
    """Reduced row echelon form and the list of pivot columns.

    Pivots are chosen deterministically: first nonzero entry scanning each
    column top-down, columns left to right.  Rows of ints and Fractions are
    eliminated over the integers; any other entry type over its field.  The
    input is never mutated: the reduced rows are new lists.
    """
    if not m:
        return [], []
    n = len(m[0])
    for i, row in enumerate(m):
        if len(row) != n:
            raise ValueError(f"ragged matrix: row {i} has length {len(row)}, row 0 has length {n}")
    if all(isinstance(e, (int, Fraction)) for r in m for e in r):
        return _integer_rref(m)
    return _field_rref(m)


def _kernel_basis(red: list[list], pivots: list[int], ncols: int) -> list[list]:
    """Kernel basis read off a reduced echelon form and its pivots.

    Only the first ncols columns are read, so the reduced form of an
    augmented matrix [A | b] gives the kernel of A: its left block is
    exactly rref(A), with the same pivots.
    """
    pivot_set = set(pivots)
    out = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        out.append(v)
    return out


def kernel(m) -> list[list]:
    """Canonical basis of the right kernel, one vector per free column.

    Each vector has 1 in its free column and the negated reduced entries in
    the pivot columns; vectors are ordered by free column.
    """
    if not m:
        return []
    return _kernel_basis(*rref(m), len(m[0]))


def solve(m, rhs) -> tuple[list, list[list]] | None:
    """All solutions of m x = rhs as (particular, kernel basis), or None.

    The particular solution sets every free variable to zero.  One
    elimination of [m | rhs] gives both parts; the kernel basis is the one
    ``kernel(m)`` returns.
    """
    rhs = list(rhs)
    if not m:
        return ([], []) if not rhs else None
    if len(rhs) != len(m):
        raise ValueError(f"right-hand side has {len(rhs)} entries for {len(m)} rows")
    ncols = len(m[0])
    aug = [[*row, b] for row, b in zip(m, rhs)]
    red, pivots = rref(aug)
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return x, _kernel_basis(red, pivots, ncols)


def inverse(m) -> list[list]:
    """Inverse of a square matrix, raising ValueError when singular."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("inverse of a non-square matrix")
    aug = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(m)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [r[n:] for r in red]


def rank(m) -> int:
    return len(rref(m)[1])


def in_span(vectors, target) -> bool:
    """Whether target lies in the span of the given vectors."""
    if not vectors:
        return not any(target)
    return solve(transpose(vectors), target) is not None


def same_span(vecs_a, vecs_b) -> bool:
    """Whether two lists of vectors span the same subspace."""
    nza = [r for r in rref(vecs_a)[0] if any(r)]
    nzb = [r for r in rref(vecs_b)[0] if any(r)]
    return nza == nzb
