"""The exceptional three-form, standard bases, and the certification pipeline.

A standard basis of a seven-dimensional space is one whose 35 divided
three-Wronskians reproduce the fixed table of quadratic expressions below.
Spaces carrying a standard basis ("doubly self-dual" here) support the
invariant three-form, computed two independent ways: through the spinor
representation and through square roots of divided Wronskians of isotropic
triples.  The standard basis is built slot by slot along the degree flag
of the Witt basis and then certified on all 35 identities.  The decision
pipeline reports one of three sound verdicts: certified basis, a violated
necessary condition, or honest "undecided".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

from .linalg import kernel, rank, same_span, solve
from .polynomials import NotASquareError, Poly, ProductTable, lincomb, perfect_square_root
from .scalars import _clear_ints, _int_clear, rat
from .spaces import (
    BasePointError,
    DegreePatternError,
    NotSelfDualError,
    PolySpace,
    SpaceError,
    WittBasis,
    WittGramError,
    _witt_coords,
    _witt_gram_mismatches,
    _witt_pair,
    combine,
    degree_window_space,
    witt_basis,
    witt_form,
)
from .spin import unit_words

F = Fraction
H = F(1, 2)
Q = F(1, 4)

# Divided Wronskian of standard basis vectors (i, j, k) as a quadratic
# expression sum coeff * v_a * v_b in the same basis.
WRONSKIAN_TABLE = {
    (1, 2, 3): (((1, 1), F(1)),),
    (1, 2, 4): (((1, 2), F(1)),),
    (1, 2, 5): (((2, 2), H),),
    (1, 2, 6): (((1, 4), -H), ((2, 3), H)),
    (1, 2, 7): (((1, 5), F(-1)), ((2, 4), H)),
    (1, 3, 4): (((1, 3), F(1)),),
    (1, 3, 5): (((1, 4), H), ((2, 3), H)),
    (1, 3, 6): (((3, 3), H),),
    (1, 3, 7): (((1, 6), F(-1)), ((3, 4), H)),
    (1, 4, 5): (((2, 4), H),),
    (1, 4, 6): (((3, 4), H),),
    (1, 4, 7): (((1, 7), -H), ((2, 6), -H), ((3, 5), H), ((4, 4), Q)),
    (1, 5, 6): (((4, 4), Q),),
    (1, 5, 7): (((2, 7), -H), ((4, 5), H)),
    (1, 6, 7): (((3, 7), -H), ((4, 6), H)),
    (2, 3, 4): (((1, 4), F(1)),),
    (2, 3, 5): (((1, 5), F(1)), ((2, 4), H)),
    (2, 3, 6): (((1, 6), F(1)), ((3, 4), H)),
    (2, 3, 7): (((4, 4), H),),
    (2, 4, 5): (((2, 5), F(1)),),
    (2, 4, 6): (((1, 7), H), ((2, 6), H), ((3, 5), H), ((4, 4), Q)),
    (2, 4, 7): (((4, 5), F(1)),),
    (2, 5, 6): (((2, 7), H), ((4, 5), H)),
    (2, 5, 7): (((5, 5), F(1)),),
    (2, 6, 7): (((4, 7), -H), ((5, 6), F(1))),
    (3, 4, 5): (((1, 7), -H), ((2, 6), H), ((3, 5), H), ((4, 4), -Q)),
    (3, 4, 6): (((3, 6), F(1)),),
    (3, 4, 7): (((4, 6), F(1)),),
    (3, 5, 6): (((3, 7), H), ((4, 6), H)),
    (3, 5, 7): (((4, 7), H), ((5, 6), F(1))),
    (3, 6, 7): (((6, 6), F(1)),),
    (4, 5, 6): (((4, 7), H),),
    (4, 5, 7): (((5, 7), F(1)),),
    (4, 6, 7): (((6, 7), F(1)),),
    (5, 6, 7): (((7, 7), H),),
}

# Nonzero values of the invariant three-form on standard basis triples.
THREE_FORM_VALUES = {
    (1, 4, 7): Q,
    (2, 4, 6): Q,
    (3, 4, 5): -Q,
    (1, 5, 6): -Q,
    (2, 3, 7): -H,
}


def _perm_sign(seq) -> int:
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv % 2 else 1


def _minor_row(triple, keys) -> list[Fraction]:
    """The 3x3 minors of the triple's coordinate columns at each key (1-based),
    expanded along the first vector; its zero entries skip their terms."""
    x, y, z = triple
    row = []
    for i, j, k in keys:
        a, b, c = i - 1, j - 1, k - 1
        minor = (
            (x[a] and x[a] * (y[b] * z[c] - y[c] * z[b]))
            - (x[b] and x[b] * (y[a] * z[c] - y[c] * z[a]))
            + (x[c] and x[c] * (y[a] * z[b] - y[b] * z[a]))
        )
        row.append(minor)
    return row


class ThreeForm:
    """Alternating trilinear form on seven coordinates, exact rational values."""

    def __init__(self, entries):
        clean = {}
        for key, val in entries.items():
            i, j, k = key
            if not 1 <= i < j < k <= 7:
                raise ValueError(f"keys must be ascending triples in 1..7, got {key}")
            val = rat(val)
            if val:
                clean[(i, j, k)] = val
        self.entries = clean
        # Each nonzero value at every ordering of its triple, with the sign.
        self.signed = {p: _perm_sign(p) * val for key, val in clean.items()
                       for p in permutations(key)}

    def __call__(self, i: int, j: int, k: int) -> Fraction:
        return self.signed.get((i, j, k), F(0))

    def evaluate(self, x, y, z) -> Fraction:
        """The form on three vectors of seven rational Witt coordinates."""
        x, y, z = ([rat(c) for c in _witt_coords(v)] for v in (x, y, z))
        minors = _minor_row((x, y, z), self.entries)
        return sum((w * m for w, m in zip(self.entries.values(), minors)), F(0))

    def matrix2(self, v) -> list[list[Fraction]]:
        """The 7x7 alternating matrix of the contraction with v, over nonzero values."""
        v = _witt_coords(v)
        m = [[F(0)] * 7 for _ in range(7)]
        for (i, j, k), val in self.signed.items():
            if v[i - 1]:
                m[j - 1][k - 1] += v[i - 1] * val
        return m

    def __eq__(self, other):
        if not isinstance(other, ThreeForm):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self):
        return f"ThreeForm({self.entries})"


def _unit(i: int) -> list[Fraction]:
    v = [F(0)] * 7
    v[i - 1] = F(1)
    return v


def three_form_from_spin() -> ThreeForm:
    """The three-form through the spinor route: w(a, b, c) = -1/2 hatB(a.(b.(c.p)), p)
    for the reference spinor p, read off the m = n = 0 values of spin.unit_words."""
    return ThreeForm({(i, j, k): F(-v, 32) for (i, j, k), values in unit_words().items()
                      if i < j < k for m, _, v in values if m == 0})


def _rand_fraction(rng) -> Fraction:
    return F(rng.randint(-5, 5), rng.randint(1, 3))


def random_isotropic_vector(rng) -> list[Fraction] | None:
    """A random rational vector that is isotropic for the antidiagonal pairing.

    Draws six coordinates and solves the isotropy condition linearly for the
    last one; returns None on a degenerate draw."""
    u = [_rand_fraction(rng) for _ in range(6)]
    if not u[0]:
        return None
    u.append((2 * u[1] * u[5] - 2 * u[2] * u[4] + u[3] * u[3]) / (2 * u[0]))
    if witt_form(u, u) != 0:
        raise SpaceError("sampled vector is not isotropic")
    return u


def _shear_a(x, c: Fraction) -> list[Fraction]:
    """First one-parameter symmetry family, acting on Witt coordinates."""
    y = list(x)
    y[1] = y[1] + c * x[0]
    y[3] = y[3] + 2 * c * x[2]
    y[4] = y[4] + 2 * c * c * x[2] + 2 * c * x[3]
    y[6] = y[6] + c * x[5]
    return y


def _shear_b(x, c: Fraction) -> list[Fraction]:
    """Second one-parameter symmetry family, acting on Witt coordinates."""
    y = list(x)
    y[2] = y[2] + c * x[1]
    y[5] = y[5] + c * x[4]
    return y


def _flip(x) -> list[Fraction]:
    """Order-reversing symmetry of the pairing and the three-form.

    Sends slot i to slot 8-i with scales (1, 1, -2, -1, -1/2, 1, 1); the
    scales make it preserve both the antidiagonal pairing and the form."""
    return [x[6], x[5], -H * x[4], -x[3], -2 * x[2], x[1], x[0]]


_SEED_TRIPLES = (
    (_unit(1), _unit(5), _unit(6)),
    (_unit(2), _unit(3), _unit(7)),
)


def _random_special_triple(rng) -> list[list[Fraction]]:
    """A rational triple spanning a member of the special 3-space family.

    Applies a short random word in the two shear families and the flip to
    one of the seed spans.  The caller certifies the result independently
    through the square condition, so correctness never rests on this
    sampler; it only has to reach enough of the family."""
    triple = [list(v) for v in _SEED_TRIPLES[rng.randint(0, 1)]]
    for _ in range(rng.randint(2, 5)):
        kind = rng.randint(0, 2)
        if kind == 2:
            triple = [_flip(x) for x in triple]
        else:
            c = F(rng.choice((1, -1, 2, -2, 3)), rng.choice((1, 1, 2)))
            shear = _shear_a if kind == 0 else _shear_b
            triple = [shear(x, c) for x in triple]
    # Scale each vector to coprime integer entries.
    return [[F(n) for n in _clear_ints(x)[0]] for x in triple]


def _symmetry_generators() -> list[list[list[Fraction]]]:
    """Unit-vector images under the shear families and the flip."""
    images = (lambda x: _shear_a(x, F(1)), lambda x: _shear_b(x, F(1)), _flip)
    return [[img(_unit(i)) for i in range(1, 8)] for img in images]


def symmetry_image(g, basis) -> tuple[Poly, ...]:
    """A map g of Witt coordinates carried onto a basis: slot i becomes
    sum_j g(e_i)_j v_j.  The shears and the flip send standard bases to
    standard bases."""
    return tuple(combine(g(_unit(i)), basis) for i in range(1, 8))


_CERTIFIED_TRIPLES = 8  # per call: the first fixes the scale, the rest check it


def three_form_from_wronskians(space: PolySpace | None = None) -> ThreeForm:
    """The three-form recovered from divided Wronskians of special 3-spaces.

    On special 3-spaces the divided Wronskian is a constant times a perfect
    square, W = L*g^2, and the form evaluates any spanning triple to
    L*B(g, g).  Isotropy alone does not suffice: a generic pairwise
    isotropic 3-space has a non-square divided Wronskian and carries no
    equation.

    Wedges of special 3-spaces span only a 28-dimensional subspace of the
    35-dimensional wedge cube, so value equations alone leave a
    7-dimensional ambiguity.  The missing constraints are symmetry: the
    form is invariant under the two shear families and the flip (all three
    preserve standard bases, a fact about the quadratic table, so nothing
    here presupposes the form itself).  Their equivariance rows depend on
    neither the space nor the samples; one elimination must leave a line,
    the invariants of the group they generate.  A certified triple's minors
    against the line, times the scale, must equal L*B(g, g): the first
    triple with nonzero minors fixes the scale and all later ones check it.

    Triples are sampled in the certified standard basis of
    ``find_standard_basis``, so a space without one is a SpaceError.
    """
    if space is None:
        space = degree_window_space()
    found = find_standard_basis(space)
    if found.status != "found":
        raise SpaceError(f"no certified standard basis to sample in: {found.detail}")
    B = space.bilinear_form()
    keys = list(combinations(range(1, 8), 3))
    rows = []
    for cols in _symmetry_generators():
        for n, key in enumerate(keys):
            row = _minor_row([cols[i - 1] for i in key], keys)
            row[n] -= 1
            rows.append(row)
    invariants = kernel(rows)
    if len(invariants) != 1:
        raise SpaceError(f"symmetry rows leave a {len(invariants)}-dimensional kernel, not a line")
    line = invariants[0]
    rng = random.Random(0)
    scale, certified = None, 0
    for _ in range(500):
        triple = _random_special_triple(rng)
        w = space.divided_wronskian([combine(x, found.vectors) for x in triple])
        if w.is_zero():
            continue
        try:
            g = perfect_square_root(w * (1 / w.lc))
        except NotASquareError:
            continue
        dot = sum((m * c for m, c in zip(_minor_row(triple, keys), line) if c), F(0))
        value = w.lc * B(g, g)
        if scale is None and dot:
            scale = value / dot
        elif dot * (scale or 0) != value:
            raise SpaceError("inconsistent equations from special triples")
        certified += 1
        if certified >= _CERTIFIED_TRIPLES and scale is not None:
            return ThreeForm({key: scale * c for key, c in zip(keys, line)})
    raise SpaceError("could not collect enough independent special triples")


def three_form_routes():
    """Yield (key, spin value, Wronskian value, explicit value) for the 35
    triples of ``WRONSKIAN_TABLE`` in sorted order."""
    spin_route, wrons_route = three_form_from_spin(), three_form_from_wronskians()
    for key in sorted(WRONSKIAN_TABLE):
        yield key, spin_route(*key), wrons_route(*key), THREE_FORM_VALUES.get(key, F(0))


@lru_cache(maxsize=1)
def _phi_table() -> tuple:
    """(x, y, z, ((7k + l, N_kl), ...)), 0-based, for N = 16 phi_map(v_x, v_y, v_z):
    N_kl is (-1)^(k+l) times the spin.unit_words value of (x, y, z) at (7 - k, 7 - l)."""
    table = []
    for (x, y, z), values in unit_words().items():
        entries = tuple({(7 * (7 - a) + 7 - b, (-1) ** (m + n) * v)
                         for m, n, v in values if m for a, b in ((m, n), (n, m))})
        table.append((x - 1, y - 1, z - 1, entries))
    return tuple(table)


def phi_map(a, b, c) -> list[list[Fraction]]:
    """Symmetric square image of a wedge of three Witt-coordinate vectors.

    Returns the 7x7 symmetric rational matrix N with
    m(phi) = sum N_kl v_k v_l over standard basis polynomials.  N is
    trilinear, so it is the integer contraction of the cleared coordinates
    with _phi_table, divided once."""
    (xs, sa), (ys, sb), (zs, sc) = [_int_clear(list(map(rat, _witt_coords(v)))) for v in (a, b, c)]
    acc = [0] * 49
    for x, y, z, entries in _phi_table():
        w = xs[x] * ys[y] * zs[z]
        if w:
            for i, value in entries:
                acc[i] += w * value
    scale = sa * sb * sc / 16
    return [[acc[7 * k + l] * scale for l in range(7)] for k in range(7)]


def quadratic_of_phi(n: list[list[Fraction]], vectors) -> Poly:
    """The polynomial sum N_kl v_k v_l for standard basis polynomials v.

    The products commute, so the sum runs over k <= l with the coefficient
    N_kl + N_lk off the diagonal; that holds for any N, symmetric or not."""
    return ProductTable(vectors).combine(
        ((k, l), n[k][l] if k == l else n[k][l] + n[l][k]) for k in range(7) for l in range(k, 7)
    )


def three_form_of_phi(n: list[list[Fraction]]) -> Fraction:
    """Pairing of the phi image against the Witt Gram: the form's value.

    That is the trace of N times the Gram matrix: the sum over k of the
    Witt pairing of row k of N with the k-th unit vector."""
    return sum((witt_form(n[k], _unit(k + 1)) for k in range(7)), F(0))


# -- standard basis verification and search --------------------------------


@dataclass
class StandardBasisReport:
    ok: bool
    failures: list


def _table_terms(key, index):
    """The table's terms for the triple key with slot a at index[a - 1] of a
    ``ProductTable``; a slot at None is zero and drops its terms."""
    return [
        ((index[a - 1], index[b - 1]), coeff)
        for (a, b), coeff in WRONSKIAN_TABLE[key]
        if index[a - 1] is not None and index[b - 1] is not None
    ]


def table_identities(space: PolySpace, vs):
    """Yield (key, divided Wronskian, table quadratic) for the 35 triples of
    ``WRONSKIAN_TABLE`` in sorted order, on seven members vs of the space."""
    divided = space.divided_wronskians(vs, 3)
    products = ProductTable(vs)
    for key in sorted(WRONSKIAN_TABLE):
        yield key, divided[tuple(i - 1 for i in key)], products.combine(_table_terms(key, range(7)))


def verify_standard_basis(space: PolySpace, vectors) -> StandardBasisReport:
    """Check all 35 table identities and the antidiagonal pairing for vectors.

    No degree or ordering assumptions are made about the vectors beyond
    membership.
    """
    vs = [Poly.lift(v) for v in vectors]
    if len(vs) != 7:
        return StandardBasisReport(False, [("count", len(vs))])
    coords = [space.coords(v) for v in vs]
    failures = [("membership", i + 1) for i, c in enumerate(coords) if c is None]
    if failures:
        return StandardBasisReport(False, failures)
    if rank(coords) != 7:
        return StandardBasisReport(False, [("dependent", None)])
    for i, j, got, want in _witt_gram_mismatches(space.bilinear_form().pair, coords):
        failures.append(("pairing", (i, j), got, want))
    for key, got, want in table_identities(space, vs):
        if got != want:
            failures.append(("table", key, got, want))
    return StandardBasisReport(not failures, failures)


@dataclass
class StandardBasisResult:
    status: str  # "found" (fully certified) | "undecided"
    vectors: tuple | None = None
    method: str = ""
    detail: str = ""


def find_standard_basis(space: PolySpace) -> StandardBasisResult:
    """Build the standard basis adapted to the degree flag, one slot at a time.

    Slot k is v_k = w_k + sum_{i<k} c_i w_i over the Witt basis w.  Given
    v_1..v_(k-1), the pairings <v_k, v_j> and the table identities (1, j, k)
    for j < k are affine in v_k, hence linear in c; one exact solve gives
    the particular solution, with free unknowns at zero.  A slot whose Witt
    vector already meets its equations keeps that vector.  The result is
    "found" only after the full 35-identity certification, with method
    "direct" when every slot kept its Witt vector and "flag" otherwise.
    Anything else is "undecided": a free unknown set to zero in one slot
    refutes nothing.
    """
    wb = witt_basis(space)
    w = wb.vectors
    vs: list[Poly] = []
    coords: list[list[Fraction]] = []
    pairs = {}  # j -> the map c -> W(v_1, v_j, c)/U_3
    wronskians: dict[tuple[int, int], Poly] = {}
    products = ProductTable(w)
    index: list[int] = []  # the products index of each slot so far

    def residual(j: int, i: int) -> Poly:
        """Identity (1, j, k) minus its table side, with w_i in slot k = len(vs) + 1."""
        if (j, i) not in wronskians:
            if j not in pairs:
                pairs[j] = space.pair_wronskians(vs[0], vs[j - 1])
            wronskians[j, i] = pairs[j](w[i - 1])
        table_side = products.combine(_table_terms((1, j, len(vs) + 1), index + [i - 1]))
        return Poly(lincomb([(1, wronskians[j, i].coeffs), (-1, table_side.coeffs)]))

    for k in range(1, 8):
        pairings = [witt_form(_unit(k), coords[j - 1]) - _witt_pair(j, k) for j in range(1, k)]
        identities = [residual(j, k) for j in range(2, k)]
        if not any(pairings) and all(r.is_zero() for r in identities):
            vs.append(w[k - 1])
            coords.append(_unit(k))
            index.append(k - 1)
            continue
        rows = [[witt_form(_unit(i), coords[j - 1]) for i in range(1, k)] for j in range(1, k)]
        rhs = [-r for r in pairings]
        for j, at_wk in zip(range(2, k), identities):
            offset = products.combine(_table_terms((1, j, k), index + [None]))
            cols = [residual(j, i) + offset for i in range(1, k)]
            for d in range(max(len(p.coeffs) for p in cols + [at_wk])):
                rows.append([p.coeff(d) for p in cols])
                rhs.append(-at_wk.coeff(d))
        sol = solve(rows, rhs)
        if sol is None:
            return StandardBasisResult("undecided", detail=f"slot {k} equations are inconsistent")
        coords.append(sol[0] + _unit(k)[k - 1 :])
        vs.append(wb.element(coords[-1]))
        index.append(products.add(vs[-1]))
    if not verify_standard_basis(space, vs).ok:
        return StandardBasisResult("undecided", detail="flag-adapted basis failed certification")
    method = "direct" if tuple(vs) == w else "flag"
    return StandardBasisResult("found", tuple(vs), method=method)


# -- self-self-duality pipeline --------------------------------------------


@dataclass
class SsdVerdict:
    verdict: str  # "ssd" | "not_ssd" | "undecided"
    reason: str
    basis: tuple | None = None


def check_ssd(space: PolySpace) -> SsdVerdict:
    """Sound three-way decision: certified standard basis, refutation, or open.

    "ssd" always carries a fully verified standard basis.  "not_ssd" rests
    on a violated necessary condition; a flag-adapted construction that
    fails to certify leaves the space "undecided"."""
    if space.dim != 7:
        return SsdVerdict("not_ssd", f"dimension {space.dim}, need 7")
    try:
        if not space.is_self_dual():
            return SsdVerdict("not_ssd", "space is not self-dual")
        T = space.ramification
        pattern_ok = T[0] == T[2] == T[3] == T[5] and T[1] == T[4]
        if not pattern_ok:
            return SsdVerdict("not_ssd", "ramification does not repeat in the required pattern")
        u = space.basis
        w123 = space.divided_wronskian([u[0], u[1], u[2]])
        quot, rem = divmod(w123, u[0] * u[0])
        if not rem.is_zero() or not quot.is_constant():
            return SsdVerdict(
                "not_ssd", "lowest divided Wronskian is not a multiple of the lowest square"
            )
        result = find_standard_basis(space)
    except BasePointError as exc:
        return SsdVerdict("not_ssd", f"base point: {exc}")
    except DegreePatternError as exc:
        return SsdVerdict("not_ssd", f"degree pattern: {exc}")
    except WittGramError as exc:
        return SsdVerdict("not_ssd", f"no exact hyperbolic basis: {exc}")
    except NotSelfDualError as exc:
        return SsdVerdict("not_ssd", str(exc))
    if result.status == "found":
        return SsdVerdict("ssd", f"standard basis certified ({result.method})", result.vectors)
    return SsdVerdict("undecided", result.detail)


# -- contractions, associated form, flags ----------------------------------


def kernel_2form(form: ThreeForm, v) -> list[list[Fraction]]:
    """Kernel of the contraction of the form with v.

    Three-dimensional when v is isotropic for the associated metric (and
    then contains v); one-dimensional (the line of v) otherwise."""
    return kernel(form.matrix2(v))


def associated_two_form(form: ThreeForm) -> list[list[Fraction]]:
    """The symmetric bilinear form built by pairing contractions with the form.

    Entry (k, l) evaluates (i_k form) wedge (i_l form) wedge form on the
    standard frame; proportional to the Witt Gram in the standard case.
    The proportionality constant is reported as-is, not normalized.  The sum
    over partitions A, B, C of 1..7 runs over nonzero values only."""
    b = [[F(0)] * 7 for _ in range(7)]
    heads = [(k, (p, q), w) for (k, p, q), w in form.signed.items() if p < q]
    for C, wC in form.entries.items():
        for k, A, wk in heads:
            if not set(A) & set(C):
                for l, Bk, wl in heads:
                    if not set(Bk) & set(A + C):
                        b[k - 1][l - 1] += _perm_sign(A + Bk + C) * wk * wl * wC
    for i in range(7):
        for j in range(i):
            if b[i][j] != b[j][i]:
                raise SpaceError("asymmetric associated form")
    return b


def flag_is_g2_isotropic(form: ThreeForm, triple) -> bool:
    """Whether the coordinate triple spans the 3-space of a G2-isotropic flag.

    The flag is (line of the first vector, plane of the first two, span of
    all three).  The span must be three-dimensional, isotropic for the
    pairing, and equal to the kernel of the contraction of the form with
    the first vector."""
    if rank([_witt_coords(x) for x in triple]) != 3:
        return False
    if any(witt_form(x, y) for x in triple for y in triple):
        return False
    ker = kernel_2form(form, triple[0])
    return len(ker) == 3 and same_span(ker, triple)


def flag_to_pair(space: PolySpace, wb: WittBasis, triple) -> tuple[Poly, Poly]:
    """The pair (monic generator of the line, divided Wronskian of the plane).

    The flag is given by the coordinate triple as in flag_is_g2_isotropic.
    Both outputs are monic; they are the tuple coordinates attached to a
    flag of the space in the reproduction picture."""
    gen = wb.element(triple[0])
    y2 = space.divided_wronskian([wb.element(c) for c in triple[:2]])
    return gen.monic(), y2.monic()
