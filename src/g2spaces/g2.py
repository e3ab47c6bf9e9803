"""The exceptional three-form, standard bases, and the certification pipeline.

A standard basis of a seven-dimensional space is one whose 35 divided
three-Wronskians reproduce the fixed table of quadratic expressions below.
Spaces carrying a standard basis ("doubly self-dual" here) support the
invariant three-form, computed two independent ways: through the spinor
representation and through square roots of divided Wronskians of isotropic
triples.  The decision pipeline reports one of three sound verdicts:
certified basis, proof of absence, or honest "undecided".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .elimination import (
    MPoly,
    SymPoly,
    solve_rational_system,
    sym_exact_div,
    sym_square_conditions,
    sym_wronskian3,
)
from .linalg import Mat, in_span, kernel, rank, same_span, solve
from .polynomials import NotASquareError, Poly, _int_clear, perfect_square_root
from .scalars import rational_part, rational_sqrt
from .spaces import (
    BasePointError,
    DegreePatternError,
    NotSelfDualError,
    PolySpace,
    SpaceError,
    WittBasis,
    WittGramError,
    _witt_gram_mismatches,
    degree_window_space,
    witt_basis,
    witt_form,
)
from .spin import P_SPINOR, clifford_act, hatB, unit_images

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
    """The 3x3 minors of the triple's coordinate columns at each key (1-based)."""
    x, y, z = triple
    row = []
    for i, j, k in keys:
        a, b, c = i - 1, j - 1, k - 1
        minor = (
            x[a] * (y[b] * z[c] - y[c] * z[b])
            - x[b] * (y[a] * z[c] - y[c] * z[a])
            + x[c] * (y[a] * z[b] - y[b] * z[a])
        )
        row.append(minor)
    return row


class ThreeForm:
    """Alternating trilinear form on seven coordinates, exact rational values."""

    def __init__(self, entries):
        clean = {}
        for key, val in entries.items():
            i, j, k = key
            if not i < j < k:
                raise ValueError(f"keys must be ascending triples, got {key}")
            val = F(val)
            if val:
                clean[(i, j, k)] = val
        self.entries = clean

    def __call__(self, i: int, j: int, k: int) -> Fraction:
        if len({i, j, k}) < 3:
            return F(0)
        key = tuple(sorted((i, j, k)))
        sgn = _perm_sign((i, j, k))
        return sgn * self.entries.get(key, F(0))

    def evaluate(self, x, y, z) -> Fraction:
        minors = _minor_row((x, y, z), self.entries)
        return sum((w * m for w, m in zip(self.entries.values(), minors)), F(0))

    def matrix2(self, v) -> Mat:
        """The 7x7 alternating matrix of the contraction with v."""
        m = [[F(0)] * 7 for _ in range(7)]
        for j in range(1, 8):
            for k in range(1, 8):
                acc = F(0)
                for i in range(1, 8):
                    if v[i - 1]:
                        acc += v[i - 1] * self(i, j, k)
                m[j - 1][k - 1] = acc
        return Mat(m)

    def __eq__(self, other):
        if not isinstance(other, ThreeForm):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self):
        return f"ThreeForm({self.entries})"

    def items(self):
        return sorted(self.entries.items())


def _unit(i: int) -> list[Fraction]:
    v = [F(0)] * 7
    v[i - 1] = F(1)
    return v


def three_form_from_spin() -> ThreeForm:
    """The three-form through the spinor route.

    w(a, b, c) = -1/2 hatB(a.(b.(c.p)), p) for the reference spinor p;
    every value on coordinate triples must come out rational.
    """
    entries = {}
    for i, j, k in combinations(range(1, 8), 3):
        s = clifford_act(_unit(k), P_SPINOR)
        s = clifford_act(_unit(j), s)
        s = clifford_act(_unit(i), s)
        val = -H * hatB(s, P_SPINOR)
        entries[(i, j, k)] = rational_part(val)
    return ThreeForm(entries)


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
    return [[F(n) for n in _int_clear(x)[0]] for x in triple]


def _symmetry_generators() -> list[list[list[Fraction]]]:
    """Unit-vector images under the shear families and the flip."""
    images = (lambda x: _shear_a(x, F(1)), lambda x: _shear_b(x, F(1)), _flip)
    return [[img(_unit(i)) for i in range(1, 8)] for img in images]


def three_form_from_wronskians(space: PolySpace | None = None, seed: int = 0) -> ThreeForm:
    """The three-form recovered from divided Wronskians of special 3-spaces.

    On special 3-spaces the divided Wronskian is a constant times a perfect
    square, W = L*g^2, and the form evaluates any spanning triple to
    L*B(g, g).  Isotropy alone does not suffice: a generic pairwise
    isotropic 3-space has a non-square divided Wronskian and carries no
    equation.

    Wedges of special 3-spaces span only a 28-dimensional subspace of the
    35-dimensional wedge cube, so value equations alone leave a
    7-dimensional ambiguity.  The missing constraints are symmetry:
    the form is invariant under the two shear families and the flip (all
    three preserve standard bases, a fact about the quadratic table, so
    nothing here presupposes the form itself), and the invariants of the
    group they generate form a line.  Homogeneous equivariance rows for
    the generators cut the ambiguity to that line; certified value
    equations fix the scale.  Redundant value rows double as consistency
    checks across the symmetry relations.
    """
    if space is None:
        space = degree_window_space()
    wb = witt_basis(space)
    B = space.bilinear_form()
    rng = random.Random(seed)
    keys = list(combinations(range(1, 8), 3))
    index = {key: n for n, key in enumerate(keys)}
    rows, rhs = [], []
    reduced: list[tuple[list[Fraction], Fraction]] = []

    def feed(row, value):
        red, rv = list(row), value
        for prow, pval in reduced:
            piv = next(i for i, e in enumerate(prow) if e)
            if red[piv]:
                f = red[piv] / prow[piv]
                red = [a - f * b for a, b in zip(red, prow)]
                rv = rv - f * pval
        if any(red):
            reduced.append((red, rv))
            rows.append(row)
            rhs.append(value)
        elif rv != 0:
            raise SpaceError("inconsistent equations from special triples")

    for cols in _symmetry_generators():
        for key in keys:
            row = _minor_row([cols[i - 1] for i in key], keys)
            row[index[key]] -= 1
            feed(row, F(0))
    attempts = 0
    while len(rows) < 35:
        attempts += 1
        if attempts > 500:
            raise SpaceError("could not collect enough independent special triples")
        triple = _random_special_triple(rng)
        polys = [wb.element(c) for c in triple]
        w = space.divided_wronskian(polys)
        if w.is_zero():
            continue
        lc = w.lc
        try:
            g = perfect_square_root(w * (1 / lc))
        except NotASquareError:
            continue
        feed(_minor_row(triple, keys), lc * B(g, g))
    sol = solve(rows, rhs)
    if sol is None:
        raise SpaceError("inconsistent three-form sampling system")
    coeffs, ker = sol
    if ker:
        raise SpaceError("underdetermined three-form sampling system")
    return ThreeForm({key: c for key, c in zip(keys, coeffs)})


def phi_map(a, b, c) -> Mat:
    """Symmetric square image of a wedge of three Witt-coordinate vectors.

    Returns the 7x7 symmetric rational matrix N with
    m(phi) = sum N_kl v_k v_l over standard basis polynomials."""
    ps = unit_images(P_SPINOR)

    def abc(s):
        return clifford_act(a, clifford_act(b, clifford_act(c, s)))

    images = [abc(p) for p in ps]
    r = [[None] * 7 for _ in range(7)]
    for i in range(7):
        for j in range(7):
            r[i][j] = H * (hatB(images[i], ps[j]) + hatB(images[j], ps[i]))
    n = [[F(0)] * 7 for _ in range(7)]
    for k in range(1, 8):
        for l in range(1, 8):
            val = ((-1) ** (k + l)) * r[(8 - k) - 1][(8 - l) - 1]
            n[k - 1][l - 1] = rational_part(val)
    return Mat(n)


def quadratic_of_phi(n: Mat, vectors) -> Poly:
    """The polynomial sum N_kl v_k v_l for standard basis polynomials v."""
    out = Poly.zero()
    for k in range(7):
        for l in range(7):
            if n.rows[k][l]:
                out = out + vectors[k] * vectors[l] * n.rows[k][l]
    return out


def three_form_of_phi(n: Mat) -> Fraction:
    """Pairing of the phi image against the Witt Gram: the form's value.

    That is the trace of N times the Gram matrix: the sum over k of the
    Witt pairing of row k of N with the k-th unit vector."""
    return sum((witt_form(n.rows[k], _unit(k + 1)) for k in range(7)), F(0))


# -- standard basis verification and search --------------------------------

SMALL_CHECK_KEYS = ((1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 5, 6), (2, 3, 7))


@dataclass
class StandardBasisReport:
    ok: bool
    failures: list


def table_quadratic(vs, key) -> Poly:
    """The table's quadratic for the triple key, evaluated on the vectors vs."""
    want = Poly.zero()
    for (a, b), coeff in WRONSKIAN_TABLE[key]:
        want = want + vs[a - 1] * vs[b - 1] * coeff
    return want


def verify_standard_basis(space: PolySpace, vectors, keys=None) -> StandardBasisReport:
    """Check the table identities and the antidiagonal pairing for vectors.

    keys=None checks all 35 table entries (full certification); passing
    SMALL_CHECK_KEYS gives the quick necessary test.  No degree or ordering
    assumptions are made about the vectors beyond membership.
    """
    vs = [Poly.lift(v) for v in vectors]
    failures = []
    if len(vs) != 7:
        return StandardBasisReport(False, [("count", len(vs))])
    for i, v in enumerate(vs):
        if not space.contains(v):
            failures.append(("membership", i + 1))
    if failures:
        return StandardBasisReport(False, failures)
    if rank([space.coords(v) for v in vs]) != 7:
        return StandardBasisReport(False, [("dependent", None)])
    B = space.bilinear_form()
    for i, j, got, want in _witt_gram_mismatches(B, vs):
        failures.append(("pairing", (i, j), got, want))
    for key in keys or sorted(WRONSKIAN_TABLE):
        i, j, k = key
        got = space.divided_wronskian([vs[i - 1], vs[j - 1], vs[k - 1]])
        want = table_quadratic(vs, key)
        if got != want:
            failures.append(("table", key, got, want))
    return StandardBasisReport(not failures, failures)


@dataclass
class StandardBasisResult:
    status: str  # "found" | "none" | "undecided"
    vectors: tuple | None = None
    method: str = ""
    detail: str = ""


def _isotropic_ansatz_system(wb: WittBasis, space: PolySpace, coords, nvars: int):
    """Equations for an isotropic 3-space ansatz with prescribed echelon shape.

    coords gives three symbolic coordinate vectors over the hyperbolic basis.
    Returns the equation list, or "none" when the fixed degree of the
    symbolic divided Wronskian already rules every solution out: a genuine
    3-space of this shape would need it to be a square of half that degree."""
    sym_vectors = [SymPoly.from_poly(nvars, p) for p in wb.vectors]

    def assemble(coord):
        out = SymPoly.zero(nvars)
        for c, sv in zip(coord, sym_vectors):
            if not c.is_zero():
                out = out + sv * c
        return out

    polys = [assemble(c) for c in coords]
    eqs = []
    for i in range(3):
        for j in range(i, 3):
            eq = witt_form(coords[i], coords[j])
            if not eq.is_zero():
                eqs.append(eq)
    w = sym_wronskian3(*polys)
    wd = sym_exact_div(w, space.U(3))
    d4 = wb.vectors[3].degree
    # The leading coefficient is a nonzero constant: the top vectors have
    # fixed leading terms and distinct degrees, so no cancellation occurs.
    if not wd.coeffs[-1].is_constant():
        raise SpaceError("symbolic leading coefficient must be constant")
    if wd.degree != 2 * d4:
        return "none"
    conds, _ = sym_square_conditions(wd)
    eqs.extend(conds)
    return eqs


def _translated_direct(space: PolySpace) -> StandardBasisResult | None:
    """Direct construction after moving a totally ramified point to zero.

    When every nonconstant ramification divisor is a power of one common
    (x - r), the space is a translate of one in standard position.  The
    hyperbolic construction commutes with translation, so building there
    and translating back preserves certification; the result is verified
    on the original space regardless."""
    try:
        ts = space.ramification
    except SpaceError:
        return None
    root = None
    for t in ts:
        e = t.degree
        if e <= 0:
            continue
        r = -t.coeffs[e - 1] / e
        if root is None:
            root = r
        elif root != r:
            return None
    if root is None or root == 0:
        return None
    for t in ts:
        if t.degree > 0 and any(t.translate(root).coeffs[:-1]):
            return None
    moved = PolySpace([p.translate(root) for p in space.basis])
    try:
        wb = witt_basis(moved)
    except SpaceError:
        return None
    if not verify_standard_basis(moved, wb.vectors).ok:
        return None
    back = tuple(q.translate(-root) for q in wb.vectors)
    if verify_standard_basis(space, back).ok:
        return StandardBasisResult("found", back, method="translated")
    return None


def find_standard_basis(space: PolySpace) -> StandardBasisResult:
    """Search for a certified standard basis.

    First tries the rescaled hyperbolic basis directly; otherwise solves the
    two isotropic-3-space ansatz systems and assembles candidates, checked
    by full certification.  "none" is returned only from facts that refute
    every possible standard basis (an impossible degree for the symbolic
    divided Wronskian, or an exhaustively empty ansatz system); a failed
    assembly or certification yields "undecided" instead.
    """
    wb = witt_basis(space)
    if verify_standard_basis(space, wb.vectors).ok:
        return StandardBasisResult("found", wb.vectors, method="direct")

    translated = _translated_direct(space)
    if translated is not None:
        return translated

    # A standard basis can be normalized so that the two isotropic 3-spaces
    # spanned by its vectors at slots (1, 5, 6) and (2, 3, 7) have reduced
    # echelon bases of exactly the shapes below, with "t" for unknowns
    # t0..t5 in order; each system characterizes such a 3-space directly,
    # so an empty solution set refutes existence.
    nvars = 6
    atoms = {"0": MPoly(nvars, {}), "1": MPoly.const(nvars, 1)}
    results = []
    for which, rows in (
        ("first", ("1000000", "0ttt100", "0ttt010")),
        ("second", ("t100000", "t010000", "t00ttt1")),
    ):
        unknowns = iter(range(nvars))
        coords = [
            [atoms[a] if a in atoms else MPoly.var(nvars, next(unknowns)) for a in row]
            for row in rows
        ]
        system = _isotropic_ansatz_system(wb, space, coords, nvars)
        if system == "none":
            return StandardBasisResult("none", detail=f"{which} 3-space has impossible degree")
        res = solve_rational_system(system, nvars)
        if res.status == "no_solution":
            return StandardBasisResult(
                "none", detail=f"{which} 3-space system has no rational solution"
            )
        results.append(res)
    res1, res2 = results

    for sol1 in res1.solutions:
        for sol2 in res2.solutions:
            for sign in (1, -1):
                candidate = _assemble_candidate(space, wb, sol1, sol2, sign)
                if candidate is None:
                    continue
                if verify_standard_basis(space, candidate).ok:
                    return StandardBasisResult("found", tuple(candidate), method="ansatz")
    if res1.status == "stuck" or res2.status == "stuck":
        return StandardBasisResult("undecided", detail="ansatz solver gave up")
    return StandardBasisResult(
        "undecided", detail="ansatz solutions found but none passed certification"
    )


def _assemble_candidate(space, wb: WittBasis, sol1, sol2, sign):
    """Build a candidate standard basis from the two ansatz solutions.

    Slots 1 and 5 are normalized to the primitive and echelon vectors.
    The middle slot is the square root of the first span's divided
    Wronskian, scaled so it pairs with itself to -1; slot 6 then follows
    from the scale identity of that span, and slots 2, 3, 7 are the unique
    second-span vectors with the required pairings against slots 1, 5, 6."""
    v = wb.vectors
    c2, c3, c4, d2, d3, d4 = sol1
    e1, h1, k1, k4, k5, k6 = sol2
    u1 = v[0]
    f12 = v[4] + v[3] * c4 + v[2] * c3 + v[1] * c2
    f13 = v[5] + v[3] * d4 + v[2] * d3 + v[1] * d2
    f21 = v[1] + v[0] * e1
    f22 = v[2] + v[0] * h1
    f23 = v[6] + v[5] * k6 + v[4] * k5 + v[3] * k4 + v[0] * k1

    r1 = space.divided_wronskian([u1, f12, f13])
    if r1.is_zero():
        return None
    kappa = r1.lc
    try:
        m4 = perfect_square_root(r1 * (1 / kappa))
    except NotASquareError:
        return None
    B = space.bilinear_form()
    try:
        bm = B(m4, m4)
    except SpaceError:
        return None
    if bm >= 0:
        return None
    t4 = rational_sqrt(F(-1) / bm)
    if t4 is None:
        return None
    v4 = m4 * (t4 * sign)
    v5 = f12
    v6 = f13 * ((t4 * t4) / (4 * kappa))

    frame = (u1, v5, v6)
    span2 = (f21, f22, f23)
    m = [[B(s, f) for s in span2] for f in frame]
    targets = ((0, 0, -1), (0, 1, 0), (1, 0, 0))
    filled = []
    for t in targets:
        sol = solve(m, [F(x) for x in t])
        if sol is None or sol[1]:
            return None
        coeffs = sol[0]
        filled.append(span2[0] * coeffs[0] + span2[1] * coeffs[1] + span2[2] * coeffs[2])
    v2, v3, v7 = filled
    return [u1, v2, v3, v4, v5, v6, v7]


# -- self-self-duality pipeline --------------------------------------------


@dataclass
class SsdVerdict:
    verdict: str  # "ssd" | "not_ssd" | "undecided"
    reason: str
    basis: tuple | None = None


def check_ssd(space: PolySpace) -> SsdVerdict:
    """Sound three-way decision: certified standard basis, refutation, or open.

    "ssd" always carries a fully verified standard basis.  "not_ssd" rests
    on a violated necessary condition or an exhaustive empty search."""
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
    if result.status == "none":
        return SsdVerdict("not_ssd", result.detail)
    return SsdVerdict("undecided", result.detail)


# -- contractions, associated form, flags ----------------------------------


def kernel_2form(form: ThreeForm, v) -> list[list[Fraction]]:
    """Kernel of the contraction of the form with v.

    Three-dimensional when v is isotropic for the associated metric (and
    then contains v); one-dimensional (the line of v) otherwise."""
    m = form.matrix2(v)
    return kernel(m.rows)


def associated_two_form(form: ThreeForm) -> Mat:
    """The symmetric bilinear form built by pairing contractions with the form.

    Entry (k, l) evaluates (i_k form) wedge (i_l form) wedge form on the
    standard frame; proportional to the Witt Gram in the standard case.
    The proportionality constant is reported as-is, not normalized."""
    idx = tuple(range(1, 8))
    b = [[F(0)] * 7 for _ in range(7)]
    for A in combinations(idx, 2):
        restA = tuple(i for i in idx if i not in A)
        for Bk in combinations(restA, 2):
            C = tuple(i for i in restA if i not in Bk)
            wC = form(*C)
            if not wC:
                continue
            sgn = _perm_sign(A + Bk + C)
            for k in range(1, 8):
                wk = form(k, *A)
                if not wk:
                    continue
                for l in range(1, 8):
                    wl = form(l, *Bk)
                    if wl:
                        b[k - 1][l - 1] += sgn * wk * wl * wC
    mat = Mat(b)
    for i in range(7):
        for j in range(i):
            if mat.rows[i][j] != mat.rows[j][i]:
                raise SpaceError("asymmetric associated form")
    return mat


@dataclass
class IsotropicFlag:
    """Nested coordinate subspaces of dimensions 1, 2, 3 in a standard frame."""

    line: list
    plane: list
    space3: list


def basis_to_flag(coords=None) -> IsotropicFlag:
    """The flag of spans of the first one, two, three given coordinate vectors."""
    if coords is None:
        coords = [_unit(1), _unit(2), _unit(3)]
    return IsotropicFlag(line=coords[:1], plane=coords[:2], space3=coords[:3])


def flag_is_g2_isotropic(form: ThreeForm, flag: IsotropicFlag) -> bool:
    """Nesting, isotropy, and the kernel condition for a coordinate flag.

    The 3-space must both be isotropic for the pairing and coincide with
    the kernel of the contraction of the form with the line."""
    if not (len(flag.line), len(flag.plane), len(flag.space3)) == (1, 2, 3):
        return False
    if rank(flag.space3) != 3 or rank(flag.plane) != 2:
        return False
    for smaller, larger in ((flag.line, flag.plane), (flag.plane, flag.space3)):
        for vec in smaller:
            if not in_span(larger, vec):
                return False
    for x in flag.space3:
        for y in flag.space3:
            if witt_form(x, y) != 0:
                return False
    ker = kernel_2form(form, flag.line[0])
    if len(ker) != 3:
        return False
    return same_span(ker, [list(v) for v in flag.space3])


def flag_to_pair(space: PolySpace, wb: WittBasis, flag: IsotropicFlag) -> tuple[Poly, Poly]:
    """The pair (monic generator of the line, divided Wronskian of the plane).

    Both outputs are monic; they are the tuple coordinates attached to a
    flag of the space in the reproduction picture."""
    gen = wb.element(flag.line[0])
    pair = [wb.element(c) for c in flag.plane]
    y2 = space.divided_wronskian(pair)
    return gen.monic(), y2.monic()
