"""Symbolic helpers: multivariate polynomials, formal roots, rational solving."""

from fractions import Fraction

import pytest

from g2spaces.elimination import (
    MPoly,
    SymPoly,
    solve_rational_system,
    sym_exact_div,
    sym_square_conditions,
    sym_wronskian3,
)
from g2spaces.polynomials import InexactDivisionError, Poly, wronskian

F = Fraction


def test_mpoly_arithmetic():
    t0 = MPoly.var(2, 0)
    t1 = MPoly.var(2, 1)
    p = (t0 + t1) * (t0 - t1)
    assert p == t0 * t0 - t1 * t1
    assert p.subs(1, F(0)) == t0 * t0
    assert p.evaluate([F(3), F(1)]) == 8
    assert (t0 * 0).is_zero()
    assert MPoly.const(2, 5).is_constant()
    assert p.degree_in(0) == 2
    assert p.coeff_of(0, 2) == MPoly.const(2, 1)


def test_sym_wronskian_matches_numeric():
    n = 1
    t = MPoly.var(n, 0)
    x2 = SymPoly.from_poly(n, Poly.monomial(2))
    # f = x^3 + t x, g = x, h = 1
    f = SymPoly.from_poly(n, Poly.monomial(3)) + SymPoly.from_poly(n, Poly.x()) * t
    g = SymPoly.from_poly(n, Poly.x())
    h = SymPoly.from_poly(n, Poly.one())
    w = sym_wronskian3(f, g, h)
    for val in [F(0), F(2), F(-1, 3)]:
        expect = wronskian([Poly([0, val, 0, 1]), Poly.x(), Poly.one()])
        assert w.substitute_all([val]) == expect
    assert sym_wronskian3(x2, x2, h).is_zero()


def test_sym_exact_div():
    n = 1
    t = MPoly.var(n, 0)
    # (x^2 + t x) / x = x + t, valid at every specialization.
    f = SymPoly.from_poly(n, Poly.monomial(2)) + SymPoly.from_poly(n, Poly.x()) * t
    q = sym_exact_div(f, Poly.x())
    assert q.substitute_all([F(5)]) == Poly([5, 1])
    assert sym_exact_div(SymPoly.zero(n), Poly.x()).is_zero()


def test_sym_exact_div_raises_on_a_remainder():
    n = 1
    t = MPoly.var(n, 0)
    # t x has lower degree than x^2, so it cannot be a multiple of it.
    with pytest.raises(InexactDivisionError):
        sym_exact_div(SymPoly.from_poly(n, Poly.x()) * t, Poly.monomial(2))
    # (x^2 + t) / x leaves the remainder t.
    f = SymPoly.from_poly(n, Poly.monomial(2)) + SymPoly.from_poly(n, Poly.one()) * t
    with pytest.raises(InexactDivisionError):
        sym_exact_div(f, Poly.x())


def test_sym_square_conditions():
    n = 1
    t = MPoly.var(n, 0)
    # (x + t)^2 is always a square: no conditions.
    f = SymPoly(n, [t * t, 2 * t, MPoly.const(n, 1)])
    conds, root = sym_square_conditions(f)
    assert conds == []
    assert root.substitute_all([F(7)]) == Poly([7, 1])
    # x^2 + t needs t = 0.
    g = SymPoly(n, [t, MPoly(n, {}), MPoly.const(n, 1)])
    conds2, _ = sym_square_conditions(g)
    assert len(conds2) == 1 and conds2[0] == t
    # Scaled squares are fine: 4(x + t)^2 has constant leading coefficient 4.
    conds3, root3 = sym_square_conditions(f * 4)
    assert conds3 == []
    assert root3.substitute_all([F(1)]) == Poly([1, 1])


def test_solver_linear_chain():
    n = 3
    t0, t1, t2 = (MPoly.var(n, i) for i in range(n))
    eqs = [t0 + t1 - 3, t1 - t2 - 1, t2 - 1]
    res = solve_rational_system(eqs, n)
    assert res.status == "solved"
    assert res.solutions == [[F(1), F(2), F(1)]]


def test_solver_quadratic_branches():
    n = 2
    t0, t1 = MPoly.var(n, 0), MPoly.var(n, 1)
    eqs = [t0 * t0 - 4, t1 - t0]
    res = solve_rational_system(eqs, n)
    assert res.status == "solved"
    assert sorted(res.solutions) == [[F(-2), F(-2)], [F(2), F(2)]]


def test_solver_no_rational_solution():
    n = 1
    t0 = MPoly.var(n, 0)
    res = solve_rational_system([t0 * t0 - 2], n)
    assert res.status == "no_solution"
    res2 = solve_rational_system([t0 * t0 + 1], n)
    assert res2.status == "no_solution"
    # Constant contradiction.
    res3 = solve_rational_system([MPoly.const(n, 1)], n)
    assert res3.status == "no_solution"


def test_solver_stuck_is_honest():
    n = 2
    t0, t1 = MPoly.var(n, 0), MPoly.var(n, 1)
    res = solve_rational_system([t0 * t1 - 1], n)
    assert res.status == "stuck"


def test_solver_free_variables_default_zero():
    n = 2
    t0 = MPoly.var(n, 0)
    res = solve_rational_system([t0 - 5], n)
    assert res.status == "solved"
    assert res.solutions == [[F(5), F(0)]]


def test_solver_substitution_unwinding():
    # t0 is expressed through t1, which is fixed by a quadratic later on.
    n = 2
    t0, t1 = MPoly.var(n, 0), MPoly.var(n, 1)
    eqs = [t0 - t1 * t1, (t1 - 2) * (t1 - 2)]
    res = solve_rational_system(eqs, n)
    assert res.status == "solved"
    assert res.solutions == [[F(4), F(2)]]
