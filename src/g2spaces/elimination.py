"""Small exact solver for polynomial systems in a handful of unknowns.

MPoly is a sparse multivariate polynomial over Q.  SymPoly is a dense
polynomial in one main variable x whose coefficients are MPoly values; it
supports the Wronskian-style determinants and the formal square root needed
to turn "this expression is a perfect square times a constant" into
polynomial conditions on the unknowns.

The solver repeatedly eliminates unknowns that occur linearly with a
constant coefficient, branches on single-unknown quadratics, and reports
one of: all rational solutions (complete search), no rational solution, or
stuck.  Soundness matters more than power here; stuck is an honest answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import truediv

from .polynomials import InexactDivisionError, Poly, convolve, formal_sqrt, long_divide
from .scalars import rat, rational_sqrt


class MPoly:
    """Sparse multivariate polynomial: exponent tuple -> rational coefficient."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        clean = {}
        for exps, c in (terms or {}).items():
            c = rat(c)
            if c:
                clean[tuple(exps)] = clean.get(tuple(exps), Fraction(0)) + c
        self.n = n
        self.terms = {e: c for e, c in clean.items() if c}

    @classmethod
    def const(cls, n: int, c) -> "MPoly":
        return cls(n, {(0,) * n: rat(c)})

    @classmethod
    def var(cls, n: int, i: int) -> "MPoly":
        e = [0] * n
        e[i] = 1
        return cls(n, {tuple(e): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.terms.get((0,) * self.n, Fraction(0))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.n, other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return MPoly(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.n, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = rat(other)
            return MPoly(self.n, {e: v * c for e, v in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return MPoly(self.n, out)

    __rmul__ = __mul__

    def __truediv__(self, c):
        """Division by a nonzero rational scalar."""
        return self * (1 / rat(c))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.n, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def degree_in(self, i: int) -> int:
        return max((e[i] for e in self.terms), default=0)

    def vars_present(self) -> set[int]:
        out = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k:
                    out.add(i)
        return out

    def coeff_of(self, i: int, k: int) -> "MPoly":
        """Coefficient of x_i^k, as an MPoly without x_i."""
        out = {}
        for e, c in self.terms.items():
            if e[i] == k:
                reduced = e[:i] + (0,) + e[i + 1 :]
                out[reduced] = out.get(reduced, Fraction(0)) + c
        return MPoly(self.n, out)

    def subs(self, i: int, value) -> "MPoly":
        """Substitute x_i by a rational or an MPoly value."""
        if isinstance(value, (int, Fraction)):
            value = MPoly.const(self.n, value)
        out = MPoly(self.n, {})
        powers = {0: MPoly.const(self.n, 1)}
        top = self.degree_in(i)
        for k in range(1, top + 1):
            powers[k] = powers[k - 1] * value
        for e, c in self.terms.items():
            stripped = MPoly(self.n, {e[:i] + (0,) + e[i + 1 :]: c})
            out = out + stripped * powers[e[i]]
        return out

    def evaluate(self, point) -> Fraction:
        out = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for i, k in enumerate(e):
                for _ in range(k):
                    v *= point[i]
            out += v
        return out

    def __repr__(self):
        if not self.terms:
            return "MPoly(0)"
        parts = []
        for e, c in sorted(self.terms.items()):
            mon = "*".join(f"t{i}^{k}" if k > 1 else f"t{i}" for i, k in enumerate(e) if k)
            parts.append(f"{c}*{mon}" if mon else str(c))
        return "MPoly(" + " + ".join(parts) + ")"


class SymPoly:
    """Polynomial in x with MPoly coefficients, dense and ascending."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs):
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        self.n = n
        self.coeffs = cs

    @classmethod
    def from_poly(cls, n: int, p: Poly) -> "SymPoly":
        return cls(n, [MPoly.const(n, c) for c in p.coeffs])

    @classmethod
    def zero(cls, n: int) -> "SymPoly":
        return cls(n, [])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int) -> MPoly:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return MPoly(self.n, {})

    def __add__(self, other):
        m = max(len(self.coeffs), len(other.coeffs))
        return SymPoly(self.n, [self.coeff(i) + other.coeff(i) for i in range(m)])

    def __sub__(self, other):
        m = max(len(self.coeffs), len(other.coeffs))
        return SymPoly(self.n, [self.coeff(i) - other.coeff(i) for i in range(m)])

    def __neg__(self):
        return SymPoly(self.n, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, MPoly)):
            return SymPoly(self.n, [c * other for c in self.coeffs])
        return SymPoly(self.n, convolve(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def derivative(self) -> "SymPoly":
        return SymPoly(self.n, [c * k for k, c in enumerate(self.coeffs)][1:])

    def substitute_all(self, point) -> Poly:
        return Poly([c.evaluate(point) for c in self.coeffs])

    def __repr__(self):
        return f"SymPoly(deg={self.degree})"


def sym_wronskian3(f: SymPoly, g: SymPoly, h: SymPoly) -> SymPoly:
    """Third-order Wronskian determinant expanded along the first column."""
    f1, g1, h1 = f.derivative(), g.derivative(), h.derivative()
    f2, g2, h2 = f1.derivative(), g1.derivative(), h1.derivative()
    return f * (g1 * h2 - h1 * g2) - g * (f1 * h2 - h1 * f2) + h * (f1 * g2 - g1 * f2)


def sym_exact_div(f: SymPoly, d: Poly) -> SymPoly:
    """Divide by a rational polynomial known to divide at every specialization.

    Because the ground field is infinite, specialization-wise divisibility
    forces the symbolic remainder to vanish identically; InexactDivisionError
    is raised when it does not, as when f is nonzero of lower degree than d.
    """
    if d.is_zero():
        raise ZeroDivisionError("symbolic division by zero polynomial")
    quo, rem = long_divide(f.coeffs, d.coeffs, truediv)
    if not all(r.is_zero() for r in rem):
        raise InexactDivisionError("symbolic division leaves a remainder")
    return SymPoly(f.n, quo)


def sym_square_conditions(f: SymPoly) -> tuple[list[MPoly], SymPoly]:
    """Conditions for f to be a constant times a perfect square.

    Requires even degree and a nonzero constant leading coefficient c0.
    Returns (conditions, root) where root is the formal monic square root of
    f/c0: the conditions vanish exactly when f == c0 * root^2.
    """
    n = f.n
    if f.is_zero():
        return [], SymPoly.zero(n)
    deg = f.degree
    if deg % 2:
        raise ValueError(f"symbolic degree {deg} is odd")
    lc = f.coeffs[-1]
    if not lc.is_constant():
        raise ValueError("leading coefficient must be constant for the formal root")
    c0 = lc.constant_value()
    g = [c / c0 for c in f.coeffs]
    rootp = SymPoly(n, formal_sqrt(g, Fraction(1), truediv) + [MPoly.const(n, 1)])
    diff = SymPoly(n, g) - rootp * rootp
    conditions = [c for c in diff.coeffs if not c.is_zero()]
    return conditions, rootp


@dataclass
class SystemResult:
    """Outcome of a rational solve: status 'solved', 'no_solution', or 'stuck'.

    'solved' means the search was exhaustive and `solutions` lists every
    rational solution (possibly via defaulted free unknowns).  'no_solution'
    means exhaustive and empty.  'stuck' means the engine gave up on at
    least one branch; `solutions` may still hold some found solutions.
    """

    status: str
    solutions: list[list[Fraction]] = field(default_factory=list)
    detail: str = ""


def solve_rational_system(eqs, nvars: int, branch_limit: int = 32) -> SystemResult:
    """All rational solutions of a polynomial system in nvars unknowns."""
    sols = []
    complete = [True]
    branches = [0]

    def explore(eqs, pending):
        # pending: list of (var, expr MPoly) substitutions made, in order.
        branches[0] += 1
        if branches[0] > branch_limit:
            complete[0] = False
            return
        eqs = [e for e in eqs if not e.is_zero()]
        while True:
            for e in eqs:
                if e.is_constant():
                    return  # nonzero constant: contradiction, dead branch
            progressed = False
            for e in sorted(eqs, key=lambda q: (len(q.terms), len(q.vars_present()))):
                for i in sorted(e.vars_present()):
                    if e.degree_in(i) != 1:
                        continue
                    a = e.coeff_of(i, 1)
                    if not a.is_constant():
                        continue
                    b = e - MPoly.var(nvars, i) * a
                    expr = b * (-1 / a.constant_value())
                    eqs = [q.subs(i, expr) for q in eqs if q is not e]
                    eqs = [q for q in eqs if not q.is_zero()]
                    pending = pending + [(i, expr)]
                    progressed = True
                    break
                if progressed:
                    break
            if not progressed:
                break
            if any(e.is_constant() and not e.is_zero() for e in eqs):
                return
        if not eqs:
            # Free unknowns default to zero; then unwind substitutions.
            values = [None] * nvars
            for i, _ in pending:
                values[i] = "pending"
            for i in range(nvars):
                if values[i] is None:
                    values[i] = Fraction(0)
            for i, expr in reversed(pending):
                point = [v if isinstance(v, Fraction) else Fraction(0) for v in values]
                values[i] = expr.evaluate(point)
            sols.append([Fraction(v) for v in values])
            return
        # Branch on a univariate equation of degree at most two.
        for e in sorted(eqs, key=lambda q: len(q.terms)):
            vs = e.vars_present()
            if len(vs) != 1:
                continue
            (i,) = vs
            d = e.degree_in(i)
            if d > 2:
                continue
            c2 = e.coeff_of(i, 2).constant_value() if d == 2 else Fraction(0)
            c1 = e.coeff_of(i, 1).constant_value()
            c0 = e.coeff_of(i, 0).constant_value()
            if d == 2:
                disc = c1 * c1 - 4 * c2 * c0
                r = rational_sqrt(disc)
                if r is None:
                    return  # no rational root on this branch
                roots = {(-c1 + r) / (2 * c2), (-c1 - r) / (2 * c2)}
            else:
                roots = {-c0 / c1}
            for root in sorted(roots):
                explore([q.subs(i, root) for q in eqs], pending + [(i, MPoly.const(nvars, root))])
            return
        complete[0] = False  # nothing linear, nothing univariate: give up

    explore(list(eqs), [])
    # Deduplicate solutions.
    uniq = []
    for s in sols:
        if s not in uniq:
            uniq.append(s)
    if complete[0]:
        status = "solved" if uniq else "no_solution"
    else:
        status = "stuck"
    return SystemResult(status=status, solutions=uniq)
