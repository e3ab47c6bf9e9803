"""The twelve bundled verification checks behind the `verify all` command.

Each check is a zero-argument callable returning (ok, detail).  All
randomness uses fixed seeds, so output is identical across runs.
"""

import random
from fractions import Fraction
from functools import lru_cache

from .bethe import (
    a_tuple,
    kernel_operator,
    population_bfs,
    shifted_orbit,
    space_from_population,
    weight_at_infinity,
    weyl_dim_g2,
)
from .fixtures import (
    factorial_basis,
    get_seed,
    get_space,
    transformed_basis_a,
    transformed_basis_b,
)
from .g2 import (
    _SEED_TRIPLES,
    _unit,
    associated_two_form,
    check_ssd,
    kernel_2form,
    phi_map,
    quadratic_of_phi,
    random_isotropic_vector,
    three_form_from_spin,
    three_form_routes,
    verify_standard_basis,
)
from .linalg import in_span, kernel, rank, same_span, transpose
from .polynomials import Poly, wronskian
from .scalars import QExt
from .spaces import _witt_pair, monomial_space, witt_basis, witt_form
from .spin import (
    Spinor,
    annihilator,
    clifford_act,
    hatB,
    hatQ,
    spinor_embed,
    witt_quadratic,
)

F = Fraction


def _rand_qext(rng) -> QExt:
    return QExt(
        F(rng.randint(-9, 9), rng.randint(1, 4)),
        F(rng.randint(-9, 9), rng.randint(1, 4)),
    )


def _rand_coord(rng) -> F:
    return F(rng.randint(-6, 6), rng.randint(1, 3))


def criterion_1():
    report = verify_standard_basis(get_space("deg6"), factorial_basis())
    if not report.ok:
        return False, f"{len(report.failures)} mismatches, first {report.failures[0]}"
    return True, "35/35 divided Wronskians match the table"


def criterion_2():
    for key, spin, wrons, want in three_form_routes():
        if spin != want:
            return False, f"spin route differs from the explicit value at {key}"
        if wrons != want:
            return False, f"Wronskian route differs at {key}"
    return True, "35/35 values agree on both routes"


def criterion_3():
    for m, n in ((1, 2), (1, 3), (2, 3), (1, 4)):
        space = monomial_space(m, n)
        verdict = check_ssd(space)
        if verdict.verdict != "ssd":
            return False, f"({m},{n}): {verdict.verdict} ({verdict.reason})"
        T1, T2 = Poly.monomial(m - 1), Poly.monomial(n - m - 1)
        if tuple(space.ramification) != (T1, T2, T1, T1, T2, T1):
            return False, f"({m},{n}): unexpected ramification"
    return True, "four monomial spaces certified with monomial ramification"


@lru_cache(maxsize=1)
def _population():
    return population_bfs(get_seed("trivial"), depth=6)


def criterion_4():
    pop = _population()
    space = space_from_population(pop)
    if space != get_space("deg6"):
        return False, "span differs from the degree window"
    if space.degrees != (0, 1, 2, 3, 4, 5, 6):
        return False, f"basis degrees {space.degrees}"
    D = kernel_operator(*a_tuple(pop.seed))
    for member in pop.members:
        if not D(member.polys[0]).is_zero():
            return False, f"first coordinate of {member} not annihilated"
    return True, f"{len(pop.members)} members span exactly the degree window"


def _anticommutator(i: int, j: int, p: Spinor) -> Spinor:
    """act(i) act(j) p + act(j) act(i) p, through the sparse Clifford action."""
    vi, vj = _unit(i), _unit(j)
    return clifford_act(vi, clifford_act(vj, p)) + clifford_act(vj, clifford_act(vi, p))


def criterion_5():
    rng = random.Random(5)
    spin_units = [Spinor([QExt.lift(int(r == k)) for r in range(8)]) for k in range(8)]
    checked = 0
    for i in range(1, 8):
        for j in range(i, 8):
            scale = QExt.lift((-1) ** i if i + j == 8 else 0)
            if any(_anticommutator(i, j, e) != e * scale for e in spin_units):
                return False, f"Clifford relation fails at ({i},{j})"
            checked += 1
    for _ in range(100):
        p = Spinor([_rand_qext(rng) for _ in range(8)])
        q = Spinor([_rand_qext(rng) for _ in range(8)])
        u = [_rand_qext(rng) for _ in range(7)]
        v = [_rand_qext(rng) for _ in range(7)]
        i, j = rng.randint(1, 7), rng.randint(1, 7)
        scale = QExt.lift((-1) ** i if i + j == 8 else 0)
        if _anticommutator(i, j, p) != p * scale:
            return False, f"Clifford relation fails on a random spinor at ({i},{j})"
        if hatB(clifford_act(v, p), q) != -hatB(p, clifford_act(v, q)):
            return False, "pairing is not action-skew"
        if hatB(clifford_act(u, p), clifford_act(v, p)) != witt_form(u, v) * hatQ(p):
            return False, "pairing of two actions differs from form times conic value"
        checked += 3
    done = 0
    while done < 100:
        w = random_isotropic_vector(rng)
        if w is None or all(c == 0 for c in w):
            continue
        wq = [QExt.lift(c) for c in w]
        if witt_quadratic(wq) != 0:
            return False, "sampler produced a non-isotropic vector"
        images = [clifford_act(wq, e) for e in spin_units]
        if not all(clifford_act(wq, t).is_zero() for t in images):
            return False, "isotropic action does not square to zero"
        # The images are the columns of the action matrix; by rank-nullity
        # rank 4 is the same as a four-dimensional kernel.
        ker = kernel(transpose(t.parts for t in images))
        if len(ker) != 4:
            return False, f"isotropic action has rank {8 - len(ker)}, need 4"
        done += 1
        checked += 1
    return True, f"{checked} identity instances verified"


def criterion_6():
    rng = random.Random(6)
    form = three_form_from_spin()
    done = 0
    while done < 20:
        v = random_isotropic_vector(rng)
        if v is None or all(c == 0 for c in v):
            continue
        triple = kernel_2form(form, v)
        if len(triple) != 3:
            return False, f"contraction kernel has dimension {len(triple)}"
        s = spinor_embed(triple)
        back = annihilator(s)
        lifted = [[QExt.lift(c) for c in u] for u in triple]
        if not same_span(back, lifted):
            return False, "annihilator does not recover the embedded 3-space"
        done += 1
    return True, "20 isotropic 3-spaces embed to conic points and invert"


def criterion_7():
    from .spin import preimages

    split = preimages(_unit(4))
    if split.kind != "split" or len(split.spaces) != 2:
        return False, f"preimages of the middle vector have kind {split.kind}"
    want = _SEED_TRIPLES
    matched = (
        same_span(split.spaces[0], want[0]) and same_span(split.spaces[1], want[1])
    ) or (same_span(split.spaces[0], want[1]) and same_span(split.spaces[1], want[0]))
    if not matched:
        return False, "split planes differ from the two expected spans"
    combined = [list(u) for u in split.spaces[0] + split.spaces[1]]
    if rank(combined) != 6:
        return False, "the two preimages do not span a six-dimensional sum"
    if any(witt_form(u, _unit(4)) != 0 for u in combined):
        return False, "the sum is not orthogonal to the target vector"
    iso = preimages(_unit(1))
    if iso.kind != "isotropic" or len(iso.spaces) != 1:
        return False, f"preimages of an isotropic vector have kind {iso.kind}"
    if not in_span(iso.spaces[0], _unit(1)):
        return False, "the unique preimage does not contain its target"
    return True, "split pair sums to the orthogonal complement; isotropic case unique"


def criterion_8():
    rng = random.Random(8)
    checked = 0
    for name in ("deg6", "monomial-2-3"):
        space = get_space(name)
        wb = witt_basis(space)
        for _ in range(50):
            coords = [[_rand_coord(rng) for _ in range(7)] for _ in range(3)]
            polys = [wb.element(c) for c in coords]
            bridge = quadratic_of_phi(phi_map(*coords), wb.vectors)
            direct = space.divided_wronskian(polys)
            if bridge != direct:
                return False, f"bridge mismatch in {name}"
            checked += 1
    return True, f"{checked} random triples agree across the bridge"


def criterion_9():
    mat = associated_two_form(three_form_from_spin())
    ratio = None
    for i in range(1, 8):
        for j in range(1, 8):
            got = mat[i - 1][j - 1]
            want = _witt_pair(i, j)
            if want == 0:
                if got != 0:
                    return False, f"entry ({i},{j}) should vanish"
                continue
            r = got / want
            if r == 0:
                return False, "the multiple is zero"
            if ratio is None:
                ratio = r
            elif r != ratio:
                return False, f"inconsistent multiple at ({i},{j})"
    return True, f"equals {ratio} times the antidiagonal Gram matrix"


def criterion_10():
    space = get_space("deg6")
    basis = factorial_basis()
    for c in (F(1), F(-1), F(2), F(1, 2)):
        for family, name in ((transformed_basis_a, "first"), (transformed_basis_b, "second")):
            report = verify_standard_basis(space, family(basis, c))
            if not report.ok:
                return False, f"{name} family at c={c}: {report.failures[0]}"
    return True, "8 transformed bases fully certified"


def criterion_11():
    pop = _population()
    orbit = shifted_orbit(weight_at_infinity(pop.seed))
    if len(orbit) != 12:
        return False, f"orbit size {len(orbit)}"
    weights = {weight_at_infinity(m) for m in pop.members}
    if weights != orbit:
        return False, "member weights do not fill exactly one shifted orbit"
    dims = tuple(weyl_dim_g2(m, n) for m, n in ((0, 0), (1, 0), (0, 1), (2, 0)))
    if dims != (1, 7, 14, 27):
        return False, f"dimension formula gives {dims}"
    return True, "one 12-element orbit filled; dimensions 1, 7, 14, 27"


def criterion_12():
    rng = random.Random(12)

    def rand_poly():
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(rng.randint(1, 9))]
        if all(c == 0 for c in coeffs):
            coeffs[-1] = F(1)
        return Poly(coeffs)

    for _ in range(100):
        u1, u2, u3 = rand_poly(), rand_poly(), rand_poly()
        lhs = wronskian([wronskian([u1, u2]), wronskian([u1, u3])])
        rhs = wronskian([u1, u2, u3]) * u1
        if lhs != rhs:
            return False, f"identity fails on ({u1}; {u2}; {u3})"
    return True, "100 random triples satisfy the composition identity"


CRITERIA = (
    (1, "table1-reproduction", criterion_1),
    (2, "threeform-two-routes", criterion_2),
    (3, "monomial-family-ssd", criterion_3),
    (4, "population-round-trip", criterion_4),
    (5, "spin-identities", criterion_5),
    (6, "spinor-embedding", criterion_6),
    (7, "preimage-planes", criterion_7),
    (8, "phi-wronskian-bridge", criterion_8),
    (9, "associated-form", criterion_9),
    (10, "transformed-bases", criterion_10),
    (11, "weight-orbit", criterion_11),
    (12, "wronskian-identity", criterion_12),
)
