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
from functools import reduce

from .linalg import solve
from .polynomials import Poly, RatFun, _iz_derivative, convolve, coprime, lincomb
from .scalars import _clear_ints, _int_clear, rat
from .spaces import PolySpace, SpaceError

F = Fraction

# The Cartan matrix (a_ij) of each kind, which fixes reproduction_rhs.
_CARTAN = {
    "A6": tuple(tuple({0: 2, 1: -1}.get(abs(i - j), 0) for j in range(6)) for i in range(6)),
    "C3": ((2, -1, 0), (-1, 2, -2), (0, -1, 2)),
    "G2": ((2, -1), (-3, 2)),
}
_SIZES = {kind: len(a) for kind, a in _CARTAN.items()}


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

    def __reduce__(self):
        return BetheTuple, (self.kind, self.polys, self.T)

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


def _genericity_conditions(n: int):
    """Each genericity condition on n coordinates: (coordinates, reason).

    One 0-based coordinate means it has no multiple root; two adjacent ones
    mean they are coprime.
    """
    for k in range(n):
        yield (k,), f"coordinate {k + 1} has multiple roots"
    for k in range(n - 1):
        yield (k, k + 1), f"coordinates {k + 1} and {k + 2} share a root"


def genericity_defect(t: BetheTuple, involving=None) -> str | None:
    """Why t is not generic, or None when it is.

    Generic means no coordinate has a multiple root and adjacent
    coordinates are coprime; the first violation found is named.  With
    ``involving`` a predicate on 0-based coordinate tuples, only the
    conditions it accepts are checked.
    """
    for coords, reason in _genericity_conditions(len(t.polys)):
        if involving is not None and not involving(coords):
            continue
        f = t.polys[coords[0]]
        g = t.polys[coords[1]] if len(coords) == 2 else f.derivative()
        if not coprime(f, g):
            return reason
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
        """The solution at parameter c, an int, string or Fraction; a float
        or a boolean raises TypeError."""
        return self.particular + self.kernel * rat(c)


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
    # deg rhs; row r reads its coefficient at k = r - j + 1.  With y = content
    # * ints for primitive integers ints, the system W(ints, q) = rhs / content
    # has the same solutions and an integer matrix.
    ints, content = _int_clear(y.coeffs)
    nrows = rhs.degree + 1
    rows = [
        [(2 * j - r - 1) * ints[r - j + 1] if 0 <= r - j + 1 <= y.degree else 0
         for j in range(dstar + 1)]
        for r in range(nrows)
    ]
    sol = solve(rows, [rhs.coeff(r) / content for r in range(nrows)])
    if sol is None:
        return None
    coeffs, _ = sol
    return FertilityFamily(Poly(coeffs), y)


_PARAMS = (F(0), F(1), F(-1), F(2))


def reproduction_rhs(t: BetheTuple, i: int) -> Poly:
    """Right-hand side T_i * prod_{j != i} y_j^(-a_ij) in direction i (1-based)."""
    if not 1 <= i <= _SIZES[t.kind]:
        raise ValueError(f"direction {i} is invalid for kind {t.kind}")
    out = t.T[i - 1]
    for y, a in zip(t.polys, _CARTAN[t.kind][i - 1]):
        for _ in range(-a):
            out = out * y
    return out


def descendants(t: BetheTuple, i: int) -> tuple[BetheTuple, ...]:
    """Generic tuples obtained by reproducing in direction i.

    Samples the affine partner family at a fixed parameter set; the
    parameter-zero member carries the family's distinguished degree.
    Infertile directions yield the empty tuple.  A child differs from t
    only in coordinate i, so the genericity conditions away from it are
    checked once on t and only those on it for each child.
    """
    family = fertility_solve(t.polys[i - 1], reproduction_rhs(t, i))
    if family is None or genericity_defect(t, lambda coords: i - 1 not in coords):
        return ()
    out, seen = [], set()
    for c in _PARAMS:
        q = family.member(c)
        if q.is_zero():
            continue
        child = t.replace(i, q)
        if child.key() in seen or genericity_defect(child, lambda coords: i - 1 in coords):
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


def population_bfs(seed: BetheTuple, depth: int = 6, max_nodes: int = 400) -> Population:
    """Breadth-first reproduction closure from a generic fertile seed.

    Deduplicates on the canonical monic form; the BFS stops once it holds
    max_nodes members.  The two alternating direction chains still run to
    the given depth, taking the degree-maximal child at each step, and
    their members join the population.  The span can still hinge on the
    budget: for random G2-isotropic flag pairs of ``deg6`` a budget of 40
    spans six dimensions where the default 400 spans seven, and
    ``space_from_population`` then asks to explore deeper.
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


def kernel_operator(yA, T):
    """The seventh-order kernel operator for the given tuple data, as a map
    from a polynomial to the reduced ``RatFun`` image.

    The operator is the right-to-left composition of the factors
    d/dx - (log u_i)' with u_i = y_(7-i) T_1 ... T_(6-i) / y_(6-i) for
    i = 6, ..., 0, reading y_0 = y_7 = 1; with all data constant it is the
    seventh derivative.  It is expanded once, from the data alone, to
    Q^-7 sum_k b_k d^k with integer polynomials b_k, where Q is the product
    of the atoms, the distinct non-constant entries as primitive integer
    lists, and (log u_i)' = A_i / Q.  Composing d - A/Q onto Q^-m sum b_k d^k
    gives Q^-(m+1) sum ((Q b_k' - m Q' b_k - A b_k) d^k + Q b_k d^(k+1)), so
    b_7 = Q^7.  Only a nonzero image is reduced.  Zero data raise
    ZeroDivisionError.
    """
    yA = [Poly.lift(p) for p in yA]
    T = [Poly.lift(p) for p in T]
    if len(yA) != 6 or len(T) != 6:
        raise ValueError("the kernel operator needs six coordinates and six T entries")
    if any(p.is_zero() for p in (*yA, *T)):
        raise ZeroDivisionError("the kernel operator needs nonzero coordinates and T entries")
    atoms: list[list[int]] = []

    def atom(p: Poly) -> int | None:
        if p.is_constant():
            return None
        ints = _clear_ints(p.coeffs)[0]
        if ints not in atoms:
            atoms.append(ints)
        return atoms.index(ints)

    ys, ts = [None, *map(atom, yA), None], [atom(t) for t in T]
    Q = reduce(convolve, atoms, [1])
    dQ = _iz_derivative(Q)
    # P' Q / P for each atom P, as a product.
    cofactors = [reduce(convolve, atoms[:j] + atoms[j + 1 :], _iz_derivative(a))
                 for j, a in enumerate(atoms)]
    b = [[1]]
    for m, i in enumerate(range(6, -1, -1)):
        e = [0] * len(atoms)  # the exponent of each atom in u_i
        for j, sign in ((ys[7 - i], 1), *((t, 1) for t in ts[: 6 - i]), (ys[6 - i], -1)):
            if j is not None:
                e[j] += sign
        A = lincomb(zip(e, cofactors))
        b = [
            lincomb((
                (1, convolve(Q, _iz_derivative(bk))),
                (-m, convolve(dQ, bk)),
                (-1, convolve(A, bk)),
                (1, convolve(Q, b[k - 1]) if k else []),
            ))
            for k, bk in enumerate([*b, []])
        ]

    def D(f: Poly) -> RatFun:
        ints, content = _int_clear(Poly.lift(f).coeffs)
        terms = []
        for bk in b:
            terms.append((1, convolve(bk, ints)))
            ints = _iz_derivative(ints)
        image = lincomb(terms)
        if not image:
            return RatFun(Poly.zero())
        return RatFun(Poly(image) * content, Poly(b[7]))

    return D


def apply_D(yA, T, f) -> RatFun:
    """Apply the seventh-order kernel operator of ``kernel_operator`` once."""
    return kernel_operator(yA, T)(f)


def space_from_population(pop: Population) -> PolySpace:
    """The span of first coordinates, certified by the kernel operator.

    Raises unless the span is seven-dimensional; every canonical basis
    vector is checked to be annihilated by the operator of the seed.
    """
    space = PolySpace(pop.first_coordinates())
    if space.dim != 7:
        raise SpaceError(f"population spans {space.dim} dimensions; explore deeper")
    D = kernel_operator(*a_tuple(pop.seed))
    for b in space.basis:
        if not D(b).is_zero():
            raise SpaceError(f"kernel operator does not annihilate {b}")
    return space


# -- weights ----------------------------------------------------------------

# Simple roots in fundamental-weight coordinates (the columns of the Cartan
# matrix); the first root is long.
G2_ALPHA = tuple(zip(*_CARTAN["G2"]))


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
