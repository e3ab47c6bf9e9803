"""Workloads of the g2spaces benchmark: inputs from a seed, operations, checks.

Input generators return plain data (integers and tuples) and depend only on
the workload seed; the functions in ``WORKLOADS`` turn that data into library
objects and operations.  An operation is one closed-loop call into the public API; its
check runs outside the timed region and returns the canonical text of the
result, from which the run's output digest is made.
"""

from __future__ import annotations

import importlib
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

PACKAGE = "g2spaces"

# Every population op uses this node budget.  Of the 141 seeds with distinct
# roots in -2..2, six span only six dimensions at depth 6 under a budget of
# 100; at 130 every one spans seven at depths 6 and 8.  The span only grows
# with the budget, since a larger one keeps every member a smaller one finds.
# A budget of 65 with the depths swapped also spans, but there a seed and its
# mirror differ in cost by up to 40%, which widens the spread between
# workload seeds.
POPULATION_BUDGET = 130
POPULATION_DEPTHS = (6, 8)
# The roots of a population seed, by their number.  T1 takes the smallest of
# them and T2 the rest, and a workload seed picks the sign of all of them:
# x -> -x mirrors a seed without changing its cost, so the mix of costs stays
# the same from one workload seed to the next.  Another split of the same
# roots can cost 1.8 times as much, so the split is fixed.
ROOT_SETS = {0: (), 1: (1,), 2: (-1, 1), 3: (-1, 0, 1), 4: (-2, -1, 1, 2)}

# Translates x -> x + c of monomial spaces: three shifts for each step pair.
# Their cost hardly depends on c, so they steady the workload's mix.
TRANSLATE_STEPS = ((1, 3), (2, 3), (1, 4))
SHIFTS = (-2, -1, 1, 2)
TRANSLATES_PER_STEP = 3
# Ansatz inputs: the roots of T1 and T2 of seeds with two distinct
# ramification points in all, one for each shape (deg T1, deg T2).  The space
# a seed spans does not depend on the budget, so they are built at depth 8,
# where every such seed spans, with a small budget.  Their check_ssd times
# vary threefold with the roots, so they are fixed and the same in every
# workload seed.
ANSATZ_SEEDS = (((0,), (1,)), ((-1, 1), ()), ((), (-1, 1)))
ANSATZ_DEPTH = 8
ANSATZ_BUDGET = 12
NEGATIVE_STEPS = ((1, 2), (1, 3), (2, 3), (1, 4))
NEGATIVES = 4
# Verdicts each kind of ssd input may get.  Fixtures other than
# not-self-dual and translates are ssd by construction and negatives are
# not; the ansatz search may give up, so an ansatz input may come back
# undecided, but never not_ssd.  A decided input that comes back undecided
# is a failed op.
ALLOWED = {"fixture": {"ssd"}, "translate": {"ssd"}, "ansatz": {"ssd", "undecided"},
           "negative": {"not_ssd"}}


class CheckFailed(Exception):
    """An operation returned a result that its check rejects."""


@dataclass
class Op:
    """One operation.  ``steps`` returns the callables that make it up, which
    are timed one by one so that the yardstick is read between them;
    ``check`` takes the list of their results and returns its canonical text
    or raises."""

    label: str
    steps: Callable[[], list]
    check: Callable[[list], str]
    verdict: Callable[[list], str] | None = None


@dataclass
class Workload:
    ops: list  # one cycle of the timed loop, and the traced run's fixed set
    warmup: list  # callables run once during set-up


def load_library():
    """Import the library afresh, so that set-up time includes the import."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    lib = importlib.import_module(PACKAGE)
    importlib.import_module(f"{PACKAGE}.acceptance")
    return lib


def clear_caches() -> None:
    """Empty every ``functools`` cache of the library's modules, so that each
    operation does the same work however many ran before it."""
    for name, module in list(sys.modules.items()):
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def _rng(workload: str, seed: int) -> random.Random:
    # A string seed is hashed with SHA-512, so it is the same in every process.
    return random.Random(f"g2spaces-bench/{workload}/{seed}")


def _exponents(m: int, n: int) -> list[int]:
    return [0, m, n, m + n, 2 * m + n, m + 2 * n, 2 * m + 2 * n]


# -- input generation ---------------------------------------------------------


def population_seeds(seed: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Roots of T1 and T2 for G2 seed pairs (1, 1), one per shape.

    T1 and T2 each have 0 to 2 linear factors, so there are nine shapes;
    all roots of one seed are distinct small integers.  The shapes come in a
    fixed order, and each seed's roots are ROOT_SETS up to sign, so every
    workload seed gives the same mix of costs.
    """
    rng = _rng("population", seed)
    out = []
    for d1, d2 in product(range(3), repeat=2):
        sign = rng.choice((1, -1))
        roots = ROOT_SETS[d1 + d2]
        out.append(tuple(tuple(sorted(sign * r for r in part)) for part in (roots[:d1], roots[d1:])))
    return out


def population_plan(seed: int) -> list[tuple[tuple, tuple, int]]:
    """(T1 roots, T2 roots, depth) per op; depths alternate 6 and 8."""
    return [(*s, POPULATION_DEPTHS[i % 2]) for i, s in enumerate(population_seeds(seed))]


def negative_candidates() -> list[tuple]:
    """Every ("negative", m, n, j) whose raised exponent stays distinct."""
    return [("negative", m, n, j) for m, n in NEGATIVE_STEPS
            for j, e in enumerate(_exponents(m, n)) if e + 1 not in _exponents(m, n)]


def ssd_inputs(seed: int, fixtures) -> list[tuple]:
    """Specs of the ssd inputs, interleaved by kind.

    ("fixture", name) for every named fixture, ("translate", m, n, c),
    ("ansatz", T1 roots, T2 roots) and ("negative", m, n, j), where j is the
    index of the exponent of the (m, n) monomial space that is raised by one.
    Interleaving keeps the mix of kinds the same in every prefix of a run.
    """
    rng = _rng("ssd", seed)
    translates = [("translate", m, n, c) for m, n in TRANSLATE_STEPS
                  for c in rng.sample(SHIFTS, TRANSLATES_PER_STEP)]
    ansatz = [("ansatz", t1, t2) for t1, t2 in ANSATZ_SEEDS]
    negatives = rng.sample(negative_candidates(), NEGATIVES)
    kinds = [[("fixture", name) for name in sorted(fixtures)], translates, ansatz, negatives]
    out = []
    while any(kinds):
        for group in kinds:
            if group:
                out.append(group.pop(0))
    return out


# -- operations and checks ----------------------------------------------------


def _basis_text(polys) -> str:
    return ";".join(",".join(str(c) for c in p.coeffs) for p in polys)


def _acceptance(lib) -> Workload:
    acc = lib.acceptance

    def steps():
        # CRITERIA is read at call time, so the tracer's wrappers are used.
        return [lambda n=n, fn=fn: (n, *fn()) for n, _slug, fn in acc.CRITERIA]

    def check(results):
        texts = []
        for n, ok, detail in results:
            if ok is not True:
                raise CheckFailed(f"criterion {n} failed: {detail}")
            texts.append(f"{n}:{detail}")
        if [r[0] for r in results] != list(range(1, 13)):
            raise CheckFailed("the pass did not run the twelve criteria in order")
        return "|".join(texts)

    def warm():
        for n, _slug, fn in acc.CRITERIA:
            if n in (1, 2):
                fn()

    return Workload([Op("verify-all", steps, check)], [warm])


def _g2_pair(lib, t1_roots, t2_roots):
    Poly = lib.Poly

    def product_of(roots):
        p = Poly.one()
        for r in roots:
            p = p * Poly([-r, 1])
        return p

    T1, T2 = product_of(t1_roots), product_of(t2_roots)
    return T1, T2, lib.BetheTuple("G2", [Poly.one(), Poly.one()], [T1, T2])


def _population_op(lib, t1_roots, t2_roots, depth) -> Op:
    T1, T2, seed = _g2_pair(lib, t1_roots, t2_roots)
    checked = set()  # spans whose ramification was already checked

    def run():
        pop = lib.population_bfs(seed, depth, POPULATION_BUDGET)
        return pop, lib.space_from_population(pop)

    def check(results):
        (pop, space), = results
        if space.dim != 7:
            raise CheckFailed(f"span has dimension {space.dim}")
        m, n = T1.degree + 1, T1.degree + T2.degree + 2
        degs = list(space.degrees)
        if degs != [degs[0] + e for e in _exponents(m, n)]:
            raise CheckFailed(f"degrees {degs} do not fit steps ({m}, {n})")
        if space.basis not in checked:
            if tuple(space.ramification) != (T1, T2, T1, T1, T2, T1):
                raise CheckFailed("ramification is not (T1, T2, T1, T1, T2, T1)")
            checked.add(space.basis)
        return f"{len(pop.members)}:{_basis_text(space.basis)}"

    return Op(f"population:{t1_roots}:{t2_roots}:{depth}", lambda: [run], check)


def _population(lib, seed: int) -> Workload:
    ops = [_population_op(lib, *spec) for spec in population_plan(seed)]
    # A seed whose root is outside every ROOT_SETS, so that nothing the
    # warm-up leaves behind can be reused by a timed op.
    _, _, warm_seed = _g2_pair(lib, (5,), ())
    return Workload(ops, [lambda: lib.population_bfs(warm_seed, 2, POPULATION_BUDGET)])


def _ssd_op(lib, label, basis, allowed) -> Op:
    # Certificates already verified for this input; a result equal to one of
    # them needs no second verification.
    certified = set()

    def run():
        return lib.check_ssd(lib.PolySpace(basis))

    def check(results):
        verdict, = results
        if verdict.verdict not in allowed:
            raise CheckFailed(f"{label}: {verdict.verdict} where only {sorted(allowed)} may come")
        if verdict.verdict == "ssd":
            if tuple(verdict.basis) not in certified:
                report = lib.verify_standard_basis(lib.PolySpace(basis), verdict.basis)
                if not report.ok:
                    raise CheckFailed(f"{label}: certificate fails: {report.failures[:1]}")
                certified.add(tuple(verdict.basis))
        basis_text = _basis_text(verdict.basis) if verdict.basis else ""
        return f"{verdict.verdict}:{verdict.reason}:{basis_text}"

    return Op(label, lambda: [run], check, verdict=lambda results: results[0].verdict)


def ssd_basis(lib, spec) -> tuple[tuple, set]:
    """Basis of the input space for a spec, and the verdicts it may get."""
    kind = spec[0]
    if kind == "fixture":
        return lib.get_space(spec[1]).basis, {"not_ssd"} if spec[1] == "not-self-dual" else ALLOWED[kind]
    if kind == "translate":
        _, m, n, c = spec
        return tuple(p.translate(Fraction(c)) for p in lib.monomial_space(m, n).basis), ALLOWED[kind]
    if kind == "ansatz":
        _, _, seed = _g2_pair(lib, spec[1], spec[2])
        pop = lib.population_bfs(seed, ANSATZ_DEPTH, ANSATZ_BUDGET)
        return lib.space_from_population(pop).basis, ALLOWED[kind]
    if kind == "negative":
        _, m, n, j = spec
        exps = _exponents(m, n)
        exps[j] += 1
        return tuple(lib.Poly.monomial(e) for e in exps), ALLOWED[kind]
    raise ValueError(f"unknown ssd input kind {kind!r}")


def _ssd(lib, seed: int) -> Workload:
    ops = []
    for spec in ssd_inputs(seed, lib.fixtures.SPACES):
        basis, allowed = ssd_basis(lib, spec)
        ops.append(_ssd_op(lib, ":".join(map(str, spec)), basis, allowed))
    # A translate no input uses, so that nothing the warm-up leaves behind
    # can be reused by a timed op.
    warm = ssd_basis(lib, ("translate", 1, 2, 3))[0]
    return Workload(ops, [lambda: lib.check_ssd(lib.PolySpace(warm))])


WORKLOADS = {"acceptance": lambda lib, seed: _acceptance(lib),
            "population": _population,
            "ssd": _ssd}
