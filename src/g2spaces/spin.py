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
from functools import lru_cache
from itertools import product

from .linalg import kernel, rank, solve, transpose
from .scalars import HALF_SQRT2, QExt, qext_sqrt
from .spaces import _witt_coords, witt_form

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

    def __reduce__(self):
        return Spinor, (self.parts,)

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


def _action_rows(v) -> list[list[QExt]]:
    """The dense 8x8 matrix of the vector with Witt coordinates v."""
    rows = [[_ZERO] * 8 for _ in range(8)]
    for c, entries in zip(_witt_coords(v), _GENERATORS):
        if c:
            for r, j, value in entries:
                rows[r][j] = rows[r][j] + c * value
    return rows


def action_matrix(i: int) -> list[list[QExt]]:
    """The 8x8 matrix of the i-th Witt vector acting on spinors, i in 1..7."""
    if not 1 <= i <= 7:
        raise ValueError(f"generator index must be 1..7, got {i}")
    return _action_rows([int(k == i) for k in range(1, 8)])


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


# hatB pairs spinor coordinate j with _PAIRING[j] = (partner, sign); unit_words reads it too.
_PAIRING = ((7, 1), (5, -1), (6, 1), (4, -1), (3, -1), (1, -1), (2, 1), (0, 1))


def hatB(s: Spinor, t: Spinor) -> QExt:
    """The symmetric invariant bilinear form on spinors."""
    a, b = s.parts, t.parts
    terms = (a[j] * b[k] if sign > 0 else -(a[j] * b[k]) for j, (k, sign) in enumerate(_PAIRING))
    return sum(terms, _ZERO)


@lru_cache(maxsize=1)
def unit_words() -> dict:
    """Maps each word (x, y, z) of Witt unit vectors with a nonzero value to its
    values (m, n, 8 (hatB(w s_m, s_n) + hatB(w s_n, s_m))), m <= n, for w = v_x v_y
    v_z, s_0 = P (paired with itself only) and s_m = v_m P.  Generator entries are
    sign * (sqrt(2)/2)^e, so index and sign arithmetic builds the words, no QExt;
    a sqrt(2) part in a value raises SpinError, also under -O.  Shared: only read it."""
    signed = {1: (1, 0), -1: (-1, 0), HALF_SQRT2: (1, 1), -HALF_SQRT2: (-1, 1)}
    gens = [{j: (r, *signed[v]) for r, j, v in entries} for entries in _GENERATORS]

    def act(i, terms):
        """Apply v_i to (coordinate, sign, e) terms."""
        g = gens[i - 1]
        return [(g[j][0], s * g[j][1], e + g[j][2]) for j, s, e in terms if j in g]

    spinors = [[(j, *signed[c]) for j, c in enumerate(P_SPINOR.parts) if c]]
    spinors += [act(i, spinors[0]) for i in range(1, 8)]
    # The spinors under v_y v_z, shared by the seven words (x, y, z).
    suffixes = {(y, z): [act(y, act(z, ts)) for ts in spinors]
                for y, z in product(range(1, 8), repeat=2)}
    # holders[p][k]: the s_n with coordinate k, signed for the pairing, n == 0
    # exactly when p; P with v_n P is not read, and not always rational.
    holders = [[[(n, s * _PAIRING[k][1], e) for n, ts in enumerate(spinors) if (n == 0) == p
                 for j, s, e in ts if j == k] for k in range(8)] for p in (False, True)]
    words = {}
    for word in product(range(1, 8), repeat=3):
        acc = {}
        for m, terms in enumerate(suffixes[word[1:]]):
            for j, s, e in act(word[0], terms):
                for n, t, f in holders[m == 0][_PAIRING[j][0]]:
                    # (sqrt(2)/2)^(2h) = 2^(3-h)/8, (sqrt(2)/2)^(2h+1) = 2^(3-h) sqrt(2)/16.
                    for key in ((m, n), (n, m)):
                        acc.setdefault(key, [0, 0])[(e + f) & 1] += s * t << (3 - (e + f) // 2)
        if any(q for _, q in acc.values()):
            raise SpinError(f"word {word} pairs to a value with a sqrt(2) part")
        if values := tuple((m, n, r) for (m, n), (r, _) in acc.items() if r and m <= n):
            words[word] = values
    return words


def hatQ(s: Spinor) -> QExt:
    """hatQ(s) = hatB(s, s) / 2; pure spinors are its zeros."""
    return hatB(s, s) / 2


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
    ker = kernel(transpose(t.parts for t in unit_images(s)))
    if len(ker) != 3:
        raise SpinError(
            f"annihilated space has dimension {len(ker)}, expected 3; "
            "the spinor is not pure"
        )
    return ker


def invariant_surjection(t: Spinor, p: Spinor = P_SPINOR) -> list[QExt]:
    """Vector part of t in the decomposition t = x0 p + sum_i x_i (v_i p).

    Defined for non-isotropic p; returns the seven Witt coordinates."""
    cols = [p.parts] + [q.parts for q in unit_images(p)]
    sol = solve(transpose(cols), t.parts)
    if sol is None or sol[1]:
        raise SpinError("p and its seven images do not form a basis: p is isotropic")
    return sol[0][1:]


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
