"""Reproduction of polynomial tuples and the populations they generate.

A tuple of monic polynomials with ramification data reproduces in a chosen
direction by swapping one coordinate for a Wronskian partner; the partners
form a one-parameter affine family.  Exploring all directions from a seed
yields a population whose first coordinates span a seven-dimensional space
annihilated by an explicit seventh-order operator, and whose degree
bookkeeping lives in a single shifted Weyl orbit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .linalg import solve
from .polynomials import Poly, RatFun, apply_log_factor, poly_gcd
from .spaces import PolySpace, SpaceError, canonicalize

F = Fraction

_SIZES = {"A6": 6, "C3": 3, "G2": 2}


class BetheTuple:
    """A tuple of nonzero polynomials with ramification data.

    Coordinates count 6, 3, or 2 by kind and are normalized monic:
    tuples are compared up to a scalar on each coordinate, so the monic
    representatives are the canonical ones.  Instances are immutable and
    hashable.
    """

    __slots__ = ("kind", "polys", "T")

    def __init__(self, kind: str, polys, T):
        if kind not in _SIZES:
            raise ValueError(f"unknown tuple kind {kind!r}")
        polys = tuple(Poly.lift(p) for p in polys)
        T = tuple(Poly.lift(t) for t in T)
        if len(polys) != _SIZES[kind] or len(T) != _SIZES[kind]:
            raise ValueError(f"{kind} tuples need {_SIZES[kind]} coordinates and T entries")
        if any(p.is_zero() for p in polys):
            raise ValueError("tuple coordinates must be nonzero")
        if any(t.is_zero() for t in T):
            raise ValueError("ramification data must be nonzero")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "polys", tuple(p.monic() for p in polys))
        object.__setattr__(self, "T", T)

    def __setattr__(self, name, value):
        raise AttributeError("BetheTuple is immutable")

    def replace(self, i: int, p: Poly) -> "BetheTuple":
        """The tuple with 1-based coordinate i swapped for p."""
        polys = list(self.polys)
        polys[i - 1] = p
        return BetheTuple(self.kind, polys, self.T)

    def key(self):
        return (self.kind, self.polys, self.T)

    def __eq__(self, other):
        if not isinstance(other, BetheTuple):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        inner = ", ".join(str(p) for p in self.polys)
        return f"BetheTuple({self.kind}; {inner})"

    def degrees(self) -> tuple[int, ...]:
        return tuple(p.degree for p in self.polys)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "polys": [p.to_json() for p in self.polys],
            "T": [t.to_json() for t in self.T],
        }

    @staticmethod
    def from_json(obj) -> "BetheTuple":
        return BetheTuple(
            obj["kind"],
            [Poly.from_json(row) for row in obj["polys"]],
            [Poly.from_json(row) for row in obj["T"]],
        )


def genericity_defect(t: BetheTuple) -> str | None:
    """Why t is not generic, or None when it is.

    Generic means no coordinate has a multiple root and adjacent
    coordinates are coprime; the first violation found is named.
    """
    for idx, p in enumerate(t.polys, 1):
        if not poly_gcd(p, p.derivative()).is_constant():
            return f"coordinate {idx} has multiple roots"
    for idx, (a, b) in enumerate(zip(t.polys, t.polys[1:]), 1):
        if not poly_gcd(a, b).is_constant():
            return f"coordinates {idx} and {idx + 1} share a root"
    return None


def is_generic(t: BetheTuple) -> bool:
    """No coordinate has a multiple root; adjacent coordinates are coprime."""
    return genericity_defect(t) is None


@dataclass(frozen=True)
class FertilityFamily:
    """Solutions of W(y, q) = rhs: the particular one plus multiples of y."""

    particular: Poly
    kernel: Poly

    def member(self, c) -> Poly:
        return self.particular + self.kernel * F(c)


def fertility_solve(y: Poly, rhs: Poly) -> FertilityFamily | None:
    """Solve W(y, q) = y q' - y' q = rhs for q, or None when infertile.

    Any solution can be shifted by multiples of y to one of degree exactly
    deg(rhs) + 1 - deg(y), so an ansatz of that degree is complete; the
    full solution set is the returned affine family.
    """
    y = Poly.lift(y)
    rhs = Poly.lift(rhs)
    if y.is_zero() or rhs.is_zero():
        raise ValueError("fertility requires nonzero polynomials")
    dstar = rhs.degree + 1 - y.degree
    if dstar < 0:
        return None
    # Column j is W(y, x^j) = sum_k (j - k) y_k x^(k+j-1), of degree at most
    # deg rhs; row r reads its coefficient at k = r - j + 1.
    nrows = rhs.degree + 1
    rows = [
        [(2 * j - r - 1) * y.coeff(r - j + 1) for j in range(dstar + 1)]
        for r in range(nrows)
    ]
    sol = solve(rows, [rhs.coeff(r) for r in range(nrows)])
    if sol is None:
        return None
    coeffs, _ = sol
    return FertilityFamily(Poly(coeffs), y)


_PARAMS = (F(0), F(1), F(-1), F(2))


def reproduction_rhs(t: BetheTuple, i: int) -> Poly:
    """Right-hand side of the reproduction equation in direction i (1-based)."""
    y, T = t.polys, t.T
    if t.kind == "G2":
        if i == 1:
            return T[0] * y[1]
        if i == 2:
            return T[1] * y[0] ** 3
    elif t.kind == "C3":
        if i == 1:
            return T[0] * y[1]
        if i == 2:
            return T[1] * y[0] * y[2] ** 2
        if i == 3:
            return T[2] * y[1]
    elif t.kind == "A6":
        if 1 <= i <= 6:
            left = y[i - 2] if i >= 2 else Poly.one()
            right = y[i] if i <= 5 else Poly.one()
            return T[i - 1] * left * right
    raise ValueError(f"direction {i} is invalid for kind {t.kind}")


def descendants(t: BetheTuple, i: int) -> tuple[BetheTuple, ...]:
    """Generic tuples obtained by reproducing in direction i.

    Samples the affine partner family at a fixed parameter set; the
    parameter-zero member carries the family's distinguished degree.
    Infertile directions yield the empty tuple.
    """
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


def degree_increasing_descendant(t: BetheTuple, i: int) -> BetheTuple | None:
    """The sampled descendant whose new coordinate has maximal degree."""
    best = None
    for child in descendants(t, i):
        d = child.polys[i - 1].degree
        if best is None or d > best.polys[i - 1].degree:
            best = child
    return best


@dataclass
class Population:
    """Tuples reached from a seed by sampled reproduction, with parent edges.

    members[0] is the seed; edges hold (child_index, direction,
    parent_index) in discovery order.  Chains alternating the two G2
    directions are always explored to the requested depth, so the span of
    first coordinates reaches full size even under a small node budget.
    """

    seed: BetheTuple
    members: list
    edges: list

    @property
    def kind(self) -> str:
        return self.seed.kind

    def first_coordinates(self) -> list[Poly]:
        return [m.polys[0] for m in self.members]

    def to_json(self) -> dict:
        return {
            "seed": self.seed.to_json(),
            "members": [m.to_json() for m in self.members],
            "edges": [list(e) for e in self.edges],
        }


def population_bfs(seed: BetheTuple, depth: int = 6, max_nodes: int = 400) -> Population:
    """Breadth-first reproduction closure from a generic fertile seed.

    Deduplicates on the canonical monic form; the BFS stops once it holds
    max_nodes members.  The two alternating direction chains still run to
    the given depth, taking the degree-maximal child at each step; their
    members join the population, so its span does not hinge on the budget.
    """
    if not is_generic(seed):
        raise ValueError("population seed must be generic")
    ndirs = _SIZES[seed.kind]
    members = [seed]
    index = {seed.key(): 0}
    edges = []
    frontier = deque([(0, 0)])
    while frontier and len(members) < max_nodes:
        at, d = frontier.popleft()
        if d >= depth:
            continue
        for i in range(1, ndirs + 1):
            for child in descendants(members[at], i):
                k = child.key()
                if k in index:
                    continue
                if len(members) >= max_nodes:
                    break
                index[k] = len(members)
                members.append(child)
                edges.append((index[k], i, at))
                frontier.append((index[k], d + 1))
    for first in range(1, ndirs + 1):
        at = 0
        for step in range(depth):
            i = 1 + (first - 1 + step) % ndirs
            child = degree_increasing_descendant(members[at], i)
            if child is None:
                break
            k = child.key()
            if k not in index:
                index[k] = len(members)
                members.append(child)
                edges.append((index[k], i, at))
            at = index[k]
    return Population(seed, members, edges)


def a_tuple(t: BetheTuple) -> tuple[tuple[Poly, ...], tuple[Poly, ...]]:
    """The six-coordinate tuple and T data feeding the kernel operator.

    A G2 pair (y1, y2) widens through its three-coordinate image to
    (y1, y2, y1^2, y1^2, y2, y1) with T pattern (T1, T2, T1, T1, T2, T1).
    """
    if t.kind == "A6":
        return t.polys, t.T
    if t.kind == "C3":
        y1, y2, y3 = t.polys
        T1, T2, T3 = t.T
        return (y1, y2, y3 * y3, y3 * y3, y2, y1), (T1, T2, T1, T1, T2, T1)
    y1, y2 = t.polys
    T1, T2 = t.T
    return (y1, y2, y1 * y1, y1 * y1, y2, y1), (T1, T2, T1, T1, T2, T1)


def apply_D(yA, T, f) -> RatFun:
    """Apply the seventh-order kernel operator for the given tuple data.

    The operator is the right-to-left composition of the factors
    d/dx - (log u_i)' with u_i = y_(7-i) T_1 ... T_(6-i) / y_(6-i) for
    i = 6, ..., 0, reading y_0 = y_7 = 1.  With all data 1 it reduces to
    the seventh derivative.
    """
    yA = [Poly.lift(p) for p in yA]
    T = [Poly.lift(p) for p in T]
    if len(yA) != 6 or len(T) != 6:
        raise ValueError("the kernel operator needs six coordinates and six T entries")

    def y(k: int) -> Poly:
        return yA[k - 1] if 1 <= k <= 6 else Poly.one()

    g = RatFun.lift(f)
    for i in range(6, -1, -1):
        num = y(7 - i)
        for s in range(1, 7 - i):
            num = num * T[s - 1]
        g = apply_log_factor(g, RatFun(num, y(6 - i)))
    return g


def space_from_population(pop: Population) -> PolySpace:
    """The span of first coordinates, certified by the kernel operator.

    Raises unless the span is seven-dimensional; every canonical basis
    vector is checked to be annihilated by the operator of the seed.
    """
    basis = canonicalize(pop.first_coordinates())
    if len(basis) != 7:
        raise SpaceError(
            f"population spans {len(basis)} dimensions; explore deeper"
        )
    yA, T = a_tuple(pop.seed)
    for b in basis:
        if not apply_D(yA, T, b).is_zero():
            raise SpaceError(f"kernel operator does not annihilate {b}")
    return PolySpace(basis)


# -- weights ----------------------------------------------------------------

# Simple roots in fundamental-weight coordinates; the first root is long.
G2_ALPHA = ((2, -3), (-1, 2))


@dataclass(frozen=True)
class Weight:
    """An integral weight in fundamental-weight coordinates."""

    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))

    @property
    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.coords)

    def __add__(self, other):
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords)))


def weight_at_infinity(t: BetheTuple, lambdas=None) -> Weight:
    """Sum of the finite weights minus deg(y_i) times each simple root.

    With lambdas=None the total finite weight is read off the ramification
    data: in fundamental coordinates it is (deg T_1, deg T_2), since each
    T_i collects the root factors with exponents paired against the i-th
    coroot.  Pass explicit weights (or ()) to override.
    """
    if t.kind != "G2":
        raise ValueError("weights at infinity are implemented for G2 tuples")
    if lambdas is None:
        lambdas = [Weight((t.T[0].degree, t.T[1].degree))]
    coords = [0, 0]
    for lam in lambdas:
        cs = lam.coords if isinstance(lam, Weight) else lam
        coords = [a + b for a, b in zip(coords, cs)]
    for p, alpha in zip(t.polys, G2_ALPHA):
        coords = [a - p.degree * b for a, b in zip(coords, alpha)]
    return Weight(tuple(coords))


def shifted_reflect(w: Weight, i: int) -> Weight:
    """Reflection s_i in the shifted action: w - <w + rho, a_i^v> a_i."""
    if i not in (1, 2):
        raise ValueError("reflection index must be 1 or 2")
    c = w.coords[i - 1] + 1
    alpha = G2_ALPHA[i - 1]
    return Weight(tuple(a - c * b for a, b in zip(w.coords, alpha)))


def dominant_representative(w: Weight) -> Weight | None:
    """The dominant member of the shifted orbit, or None on a wall orbit."""
    seen = set()
    while not w.is_dominant:
        if w.coords in seen:
            return None
        seen.add(w.coords)
        i = 1 if w.coords[0] < 0 else 2
        w = shifted_reflect(w, i)
    return w


def shifted_orbit(w: Weight) -> set[Weight]:
    """Closure of a weight under both shifted reflections (at most 12)."""
    out = {w}
    frontier = [w]
    while frontier:
        cur = frontier.pop()
        for i in (1, 2):
            nxt = shifted_reflect(cur, i)
            if nxt not in out:
                out.add(nxt)
                frontier.append(nxt)
    return out


def weyl_dim_g2(m: int, n: int) -> int:
    """Dimension of the irreducible representation with highest weight (m, n)."""
    num = (
        (m + 1)
        * (n + 1)
        * (m + n + 2)
        * (m + 2 * n + 3)
        * (m + 3 * n + 4)
        * (2 * m + 3 * n + 5)
    )
    q, r = divmod(num, 120)
    if r:
        raise ValueError(f"weight ({m}, {n}) has no integral Weyl dimension")
    return q
