"""Named built-in inputs for the command line and the verification suite."""

from fractions import Fraction

from .bethe import BetheTuple
from .g2 import _shear_a, _shear_b, symmetry_image
from .polynomials import Poly
from .spaces import PolySpace, degree_window_space, monomial_space

F = Fraction


def factorial_basis() -> tuple[Poly, ...]:
    """The reference standard basis x^i / i! of the full degree window."""
    out = []
    fact = 1
    for i in range(7):
        if i:
            fact *= i
        out.append(Poly.monomial(i, F(1, fact)))
    return tuple(out)


def transformed_basis_a(basis, c) -> tuple[Poly, ...]:
    """First one-parameter family of bases built on a standard basis."""
    c = F(c)
    return symmetry_image(lambda x: _shear_a(x, c), basis)


def transformed_basis_b(basis, c) -> tuple[Poly, ...]:
    """Second one-parameter family of bases built on a standard basis."""
    c = F(c)
    return symmetry_image(lambda x: _shear_b(x, c), basis)


def _shifted_2_3() -> PolySpace:
    base = monomial_space(2, 3)
    return PolySpace([p.translate(F(1)) for p in base.basis])


def _not_self_dual() -> PolySpace:
    return PolySpace([Poly.monomial(d) for d in (0, 1, 2, 3, 4, 5, 7)])


SPACES = {
    "deg6": degree_window_space,
    "monomial-1-2": lambda: monomial_space(1, 2),
    "monomial-1-3": lambda: monomial_space(1, 3),
    "monomial-2-3": lambda: monomial_space(2, 3),
    "monomial-1-4": lambda: monomial_space(1, 4),
    "shifted-2-3": _shifted_2_3,
    "not-self-dual": _not_self_dual,
}


def _pair_seed(T1: Poly, T2: Poly) -> BetheTuple:
    one = Poly.one()
    return BetheTuple("G2", [one, one], [T1, T2])


SEEDS = {
    "trivial": lambda: _pair_seed(Poly.one(), Poly.one()),
    "monomial-2-3": lambda: _pair_seed(Poly.x(), Poly.one()),
    "monomial-1-3": lambda: _pair_seed(Poly.one(), Poly.x()),
    "shifted": lambda: _pair_seed(Poly.x() - Poly.one(), Poly.one()),
}


def get_space(name: str) -> PolySpace:
    if name not in SPACES:
        raise KeyError(
            f"unknown space fixture {name!r}; choose from {', '.join(sorted(SPACES))}"
        )
    return SPACES[name]()


def get_seed(name: str) -> BetheTuple:
    if name not in SEEDS:
        raise KeyError(
            f"unknown seed fixture {name!r}; choose from {', '.join(sorted(SEEDS))}"
        )
    return SEEDS[name]()
