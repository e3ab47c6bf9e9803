"""Exact dense linear algebra over Q and Q(sqrt 2).

Entries may be Fraction, int, or QExt; any type with field arithmetic and
truthiness works, and elimination lifts int entries to Fraction first.
Pivoting is deterministic: columns are scanned left to right and the first
row with a nonzero entry is chosen, so reduced forms, kernels, and solutions
are canonical.
"""

from __future__ import annotations

from fractions import Fraction


class Mat:
    """A dense matrix stored as a list of row lists."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = [list(r) for r in rows]
        if rows:
            n = len(rows[0])
            if any(len(r) != n for r in rows):
                raise ValueError("ragged rows")
        self.rows = rows

    @classmethod
    def identity(cls, n) -> "Mat":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @classmethod
    def from_cols(cls, cols) -> "Mat":
        cols = [list(c) for c in cols]
        return cls([[c[i] for c in cols] for i in range(len(cols[0]))]) if cols else cls([])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def col(self, j) -> list:
        return [r[j] for r in self.rows]

    def cols(self) -> list[list]:
        return [self.col(j) for j in range(self.ncols)]

    def transpose(self) -> "Mat":
        return Mat.from_cols(self.rows)

    def __add__(self, other):
        return Mat(
            [[a + b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)]
        )

    def __sub__(self, other):
        return Mat(
            [[a - b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)]
        )

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.ncols != other.nrows:
                raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
            ocols = other.cols()
            return Mat(
                [[_dot(r, c) for c in ocols] for r in self.rows]
            )
        if isinstance(other, (list, tuple)):
            if self.ncols != len(other):
                raise ValueError("shape mismatch in matrix-vector product")
            return [_dot(r, other) for r in self.rows]
        return Mat([[a * other for a in r] for r in self.rows])

    def __rmul__(self, other):
        return Mat([[other * a for a in r] for r in self.rows])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.shape == other.shape and all(
            a == b for r, s in zip(self.rows, other.rows) for a, b in zip(r, s)
        )

    def __repr__(self):
        return "Mat([" + ",\n     ".join(str(r) for r in self.rows) + "])"


def _dot(r, c):
    it = iter(zip(r, c))
    a, b = next(it)
    acc = a * b
    for a, b in it:
        acc = acc + a * b
    return acc


def _as_rows(m) -> list[list]:
    """A fresh list of row lists, with int entries (not bool) lifted to
    Fraction so that elimination divides exactly."""
    rows = m.rows if isinstance(m, Mat) else m
    return [[Fraction(e) if type(e) is int else e for e in r] for r in rows]


def rref(m) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and the list of pivot columns.

    Pivots are chosen deterministically: first nonzero entry scanning each
    column top-down, columns left to right.
    """
    rows = _as_rows(m)
    if not rows:
        return Mat([]), []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
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
    return Mat(rows), pivots


def _kernel_basis(red: Mat, pivots: list[int], ncols: int) -> list[list]:
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
            v[c] = -red.rows[r][f]
        out.append(v)
    return out


def kernel(m) -> list[list]:
    """Canonical basis of the right kernel, one vector per free column.

    Each vector has 1 in its free column and the negated reduced entries in
    the pivot columns; vectors are ordered by free column.
    """
    rows = _as_rows(m)
    if not rows:
        return []
    return _kernel_basis(*rref(rows), len(rows[0]))


def solve(m, rhs) -> tuple[list, list[list]] | None:
    """All solutions of m x = rhs as (particular, kernel basis), or None.

    The particular solution sets every free variable to zero.  One
    elimination of [m | rhs] gives both parts; the kernel basis is the one
    ``kernel(m)`` returns.
    """
    rows = _as_rows(m)
    rhs = list(rhs)
    if not rows:
        return ([], []) if not rhs else None
    if len(rhs) != len(rows):
        raise ValueError(f"right-hand side has {len(rhs)} entries for {len(rows)} rows")
    ncols = len(rows[0])
    aug = [row + [b] for row, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    if pivots and pivots[-1] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = red.rows[r][ncols]
    return x, _kernel_basis(red, pivots, ncols)


def inverse(m) -> Mat:
    """Inverse of a square matrix, raising ValueError when singular."""
    rows = _as_rows(m)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("inverse of a non-square matrix")
    aug = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return Mat([r[n:] for r in red.rows])


def rank(m) -> int:
    return len(rref(m)[1])


def in_span(vectors, target) -> bool:
    """Whether target lies in the span of the given vectors."""
    if not vectors:
        return not any(target)
    return solve(Mat.from_cols(vectors), target) is not None


def same_span(vecs_a, vecs_b) -> bool:
    """Whether two lists of vectors span the same subspace."""
    ra = rref(vecs_a)[0] if vecs_a else Mat([])
    rb = rref(vecs_b)[0] if vecs_b else Mat([])
    nza = [r for r in ra.rows if any(r)]
    nzb = [r for r in rb.rows if any(r)]
    return nza == nzb
