"""Spinor representation of the seven-dimensional quadratic space.

Spinors live in the eight-dimensional exterior algebra on three odd
generators (indexed 5, 6, 7) over Q(sqrt 2).  The seven Witt vectors act by
Clifford multiplication: the three lowest as signed left derivatives, the
middle one as a scaled parity, the three highest as left multiplications.
The generating relations are

    act(i) act(j) + act(j) act(i) = (-1)^i delta(i+j, 8) * identity.

All vectors of the quadratic space are given by their seven coordinates in
a Witt basis; B(v_i, v_j) = (-1)^(i+1) delta(i+j, 8).
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Mat, inverse, kernel, rank
from .scalars import HALF_SQRT2, QExt, qext_sqrt
from .spaces import witt_form

MASKS = [(), (5,), (6,), (7,), (5, 6), (6, 7), (5, 7), (5, 6, 7)]
_INDEX = {mask: i for i, mask in enumerate(MASKS)}
LABELS = ["1", "e5", "e6", "e7", "e56", "e67", "e57", "e567"]


class SpinError(ValueError):
    """Structural failure in a spinor computation."""


class Spinor:
    """An element of the eight-dimensional spinor module over Q(sqrt 2)."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = [QExt.lift(c) for c in parts]
        if len(parts) != 8:
            raise ValueError(f"spinor needs 8 components, got {len(parts)}")
        object.__setattr__(self, "parts", tuple(parts))

    def __setattr__(self, name, value):
        raise AttributeError("Spinor is immutable")

    def __getitem__(self, i) -> QExt:
        return self.parts[i]

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return 8

    def __add__(self, other):
        return Spinor([a + b for a, b in zip(self.parts, other.parts)])

    def __sub__(self, other):
        return Spinor([a - b for a, b in zip(self.parts, other.parts)])

    def __neg__(self):
        return Spinor([-a for a in self.parts])

    def __mul__(self, c):
        return Spinor([a * c for a in self.parts])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Spinor):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def is_zero(self) -> bool:
        return all(not c for c in self.parts)

    def __repr__(self):
        return f"Spinor({list(self.parts)})"

    def __str__(self):
        terms = []
        for c, name in zip(self.parts, LABELS):
            if not c:
                continue
            if c == 1:
                terms.append(name)
            else:
                terms.append(f"({c})*{name}")
        return " + ".join(terms) if terms else "0"

    def to_json(self) -> list:
        return [c.to_json() for c in self.parts]

    @staticmethod
    def from_json(obj) -> "Spinor":
        return Spinor([QExt.from_json(c) for c in obj])


def _generator(i: int) -> tuple[tuple[int, int, QExt], ...]:
    """Sparse (row, col, value) entries of the i-th Witt vector's action.

    For i < 4 it is (-1)^i times the left derivative by e_(8-i), for i = 4
    the parity scaled by 1/sqrt 2, for i > 4 left multiplication by e_i.
    Moving e_var past the smaller generators of a mask gives the sign of
    both the derivative and the product.  Each row and column holds at
    most one entry.
    """
    entries = []
    for col, mask in enumerate(MASKS):
        if i == 4:
            entries.append((col, col, HALF_SQRT2 * (-1) ** len(mask)))
            continue
        var = i if i > 4 else 8 - i
        if (var in mask) == (i > 4):
            continue  # the product or the derivative vanishes
        sign = (-1) ** sum(1 for e in mask if e < var)
        if i < 4:
            sign *= (-1) ** i
        row = _INDEX[tuple(sorted(set(mask) ^ {var}))]
        entries.append((row, col, QExt.lift(sign)))
    return tuple(entries)


# The seven Witt generators, the only description of the Clifford action.
_GENERATORS = tuple(_generator(i) for i in range(1, 8))
_ZERO = QExt.lift(0)


def _witt_coords(v) -> list:
    v = list(v)
    if len(v) != 7:
        raise ValueError(f"vector needs 7 Witt coordinates, got {len(v)}")
    return v


def _action_rows(v) -> list[list[QExt]]:
    """The dense 8x8 matrix of the vector with Witt coordinates v."""
    rows = [[_ZERO] * 8 for _ in range(8)]
    for c, entries in zip(_witt_coords(v), _GENERATORS):
        if c:
            for r, j, value in entries:
                rows[r][j] = rows[r][j] + c * value
    return rows


def action_matrix(i: int) -> Mat:
    """The 8x8 matrix of the i-th Witt vector acting on spinors, i in 1..7."""
    if not 1 <= i <= 7:
        raise ValueError(f"generator index must be 1..7, got {i}")
    return Mat(_action_rows([int(k == i) for k in range(1, 8)]))


def clifford_act(v, s: Spinor) -> Spinor:
    """Action of the vector with Witt coordinates v on the spinor s."""
    out = [_ZERO] * 8
    for c, entries in zip(_witt_coords(v), _GENERATORS):
        if c:
            for r, j, value in entries:
                if s.parts[j]:
                    out[r] = out[r] + c * value * s.parts[j]
    return Spinor(out)


def unit_images(s: Spinor) -> list[Spinor]:
    """The images of s under the seven Witt vectors, in order."""
    images = []
    for entries in _GENERATORS:
        out = [_ZERO] * 8
        for r, j, value in entries:
            out[r] = value * s.parts[j]
        images.append(Spinor(out))
    return images


# The reference non-isotropic spinor: e56 plus (1/sqrt 2) e7.
P_SPINOR = Spinor([0, 0, 0, HALF_SQRT2, 1, 0, 0, 0])


def hatQ(s: Spinor) -> QExt:
    """The invariant quadratic form on spinors; pure spinors are its zeros."""
    c = s.parts
    return c[0] * c[7] + c[2] * c[6] - c[3] * c[4] - c[5] * c[1]


def hatB(s: Spinor, t: Spinor) -> QExt:
    """The symmetric bilinear form with hatB(s, s) = 2 hatQ(s)."""
    a, b = s.parts, t.parts
    return (
        a[0] * b[7]
        + a[7] * b[0]
        + a[2] * b[6]
        + a[6] * b[2]
        - a[3] * b[4]
        - a[4] * b[3]
        - a[5] * b[1]
        - a[1] * b[5]
    )


def witt_quadratic(v) -> QExt:
    """Q(v) = B(v, v) / 2 in Witt coordinates."""
    return witt_form(v, v) / 2


def spinor_embed(triple) -> Spinor:
    """The pure spinor line of an isotropic 3-space, from three spanning vectors.

    The joint kernel of the three Clifford actions must be one-dimensional;
    the canonical kernel generator is returned and checked to lie on the
    spinor conic.
    """
    triple = [list(u) for u in triple]
    if len(triple) != 3:
        raise ValueError("need exactly three spanning vectors")
    ker = kernel([row for u in triple for row in _action_rows(u)])
    if len(ker) != 1:
        raise SpinError(
            f"joint annihilated space has dimension {len(ker)}, expected 1; "
            "the three vectors must span an isotropic 3-space"
        )
    s = Spinor(ker[0])
    if hatQ(s) != 0:
        raise SpinError(f"embedded spinor {s} is off the conic")
    return s


def annihilator(s: Spinor) -> list[list[QExt]]:
    """The 3-space of vectors whose Clifford action kills the spinor s.

    Returns three Witt-coordinate vectors; raises SpinError when the
    annihilated space is not three-dimensional (s not a pure spinor).
    """
    mat = Mat.from_cols([t.parts for t in unit_images(s)])
    ker = kernel(mat.rows)
    if len(ker) != 3:
        raise SpinError(
            f"annihilated space has dimension {len(ker)}, expected 3; "
            "the spinor is not pure"
        )
    return ker


def invariant_surjection(t: Spinor, p: Spinor = P_SPINOR) -> list[QExt]:
    """Vector part of t in the decomposition t = x0 p + sum_i x_i (v_i p).

    Defined for non-isotropic p; returns the seven Witt coordinates."""
    m = Mat.from_cols([p.parts] + [q.parts for q in unit_images(p)])
    x = inverse(m) * list(t.parts)
    return x[1:]


@dataclass
class Preimages:
    """Isotropic 3-spaces mapping onto the line of a vector v.

    kind is "isotropic" (one space through v), "split" (two transverse
    spaces, direct sum the orthogonal complement of v), or "irrational"
    (the needed square root of -Q(v) is outside Q(sqrt 2): no spaces).
    """

    kind: str
    spaces: list[list[list[QExt]]]
    lines: list[Spinor]


def preimages(v) -> Preimages:
    """All isotropic 3-spaces whose invariant projection hits the vector v."""
    v = [QExt.lift(c) for c in v]
    q = witt_quadratic(v)
    vp = clifford_act(v, P_SPINOR)
    if q == 0:
        if all(not c for c in v):
            raise ValueError("preimages of the zero vector")
        space = annihilator(vp)
        return Preimages(kind="isotropic", spaces=[space], lines=[vp])
    r = qext_sqrt(-q)
    if r is None:
        return Preimages(kind="irrational", spaces=[], lines=[])
    lines = [r * P_SPINOR + vp, (-r) * P_SPINOR + vp]
    spaces = [annihilator(s) for s in lines]
    combined = [list(u) for u in spaces[0] + spaces[1]]
    if rank(combined) != 6:
        raise SpinError("preimage spaces do not span the complement")
    if any(witt_form(u, v) != 0 for u in combined):
        raise SpinError("preimage space not orthogonal to v")
    return Preimages(kind="split", spaces=spaces, lines=lines)
