"""Seven-dimensional spaces of polynomials and their Wronskian invariants.

A space is stored through its canonical basis: the reduced echelon basis
with respect to coefficients, ordered by increasing degree.  All basis
elements are monic with pairwise distinct degrees.  From the basis the
module derives ramification divisors, divided Wronskians, the dual space,
the invariant bilinear form of a self-dual space, and a rescaled Witt basis
whose pairing matrix is exactly antidiagonal.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import inverse, rref, solve, transpose
from .polynomials import (
    InexactDivisionError,
    Poly,
    WronskianTable,
    _iz_derivative,
    _iz_exact_div,
    _iz_gcd,
    _iz_primitive,
    convolve,
    exact_div,
    lincomb,
)
from .scalars import _clear_ints, _int_clear, rat


class SpaceError(ValueError):
    """Structural failure in a space computation."""


class BasePointError(SpaceError):
    """All elements of the space share a root."""


class NotSelfDualError(SpaceError):
    """The span of the divided Wronskian duals differs from the space."""


class DegreePatternError(SpaceError):
    """Basis degrees do not fit the two-parameter exponent pattern."""


class WittGramError(SpaceError):
    """The rescaled hyperbolic basis misses the exact antidiagonal pairing."""


def canonicalize(polys) -> list[Poly]:
    """Canonical monic echelon basis of the span, ascending by degree."""
    polys = [Poly.lift(p) for p in polys]
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return []
    top = max(p.degree for p in polys)
    rows = [[p.coeff(top - j) for j in range(top + 1)] for p in polys]
    red, pivots = rref(rows)
    out = [Poly(list(reversed(red[r]))) for r in range(len(pivots))]
    out.reverse()
    return out


def combine(coords, polys) -> Poly:
    """The linear combination sum_j coords_j polys_j, one coordinate per polynomial."""
    if len(coords) != len(polys):
        raise ValueError(f"expected {len(polys)} coordinates, got {len(coords)}")
    return Poly(lincomb(zip(coords, (p.coeffs for p in polys))))


def _witt_pair(i: int, j: int) -> Fraction:
    """Pairing of the i-th and j-th Witt vectors, indices 1-based."""
    if i + j != 8:
        return Fraction(0)
    return Fraction((-1) ** (i + 1))


def _witt_coords(v) -> list:
    """The seven Witt coordinates of v as a list; a wrong length raises
    ValueError and a bool entry TypeError."""
    v = list(v)
    if len(v) != 7:
        raise ValueError(f"vector needs 7 Witt coordinates, got {len(v)}")
    for c in v:
        if isinstance(c, bool):
            raise TypeError(f"cannot interpret {c!r} as a rational")
    return v


def witt_form(x, y):
    """The Witt pairing sum_i (-1)^i x_i y_(6-i) of two coordinate vectors.

    Entries are 0-based Witt coordinates over any ring (Fraction, QExt,
    MPoly); the value has the entries' type.  Zero entries of x after the
    first skip their terms.  On unit vectors it gives ``_witt_pair``.
    """
    x, y = _witt_coords(x), _witt_coords(y)
    out = x[0] * y[6]
    for i in range(1, 7):
        if x[i]:
            term = x[i] * y[6 - i]
            out = out - term if i % 2 else out + term
    return out


def _witt_gram_mismatches(B, vectors):
    """Yield (i, j, got, want), 1 <= i <= j <= 7, where B misses the Witt pairing.

    B pairs whatever the vectors are: polynomials through a ``BilinearForm``,
    or their coordinate vectors through its ``pair``.
    """
    for i in range(1, 8):
        for j in range(i, 8):
            got = B(vectors[i - 1], vectors[j - 1])
            want = _witt_pair(i, j)
            if got != want:
                yield i, j, got, want


def witt_scales(m: int, n: int) -> list[Fraction]:
    """Leading coefficients of the standard basis for exponent steps (m, n).

    At (m, n) = (1, 2) these are 1/0!, ..., 1/6!.
    """
    return [
        Fraction(1),
        Fraction(1, m),
        Fraction(1, n * (n - m)),
        Fraction(1, (m + n) * n * m),
        Fraction(1, (2 * m + n) * (m + n) * (2 * m) * m),
        Fraction(1, (m + 2 * n) * (2 * n) * (m + n) * n * (n - m)),
        Fraction(1, (2 * m + 2 * n) * (m + 2 * n) * (2 * m + n) * (m + n) * m * n),
    ]


class PolySpace:
    """A space of polynomials over Q with a canonical echelon basis."""

    def __init__(self, polys):
        basis = canonicalize(polys)
        if not basis:
            raise SpaceError("space has no nonzero elements")
        self.basis = tuple(basis)
        self._cache = {}

    # -- structure --------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(p.degree for p in self.basis)

    def __eq__(self, other):
        if not isinstance(other, PolySpace):
            return NotImplemented
        return self.basis == other.basis

    def __hash__(self):
        return hash(self.basis)

    def __repr__(self):
        return f"PolySpace(dim={self.dim}, degrees={list(self.degrees)})"

    # -- membership -------------------------------------------------------

    def coords(self, f) -> list[Fraction] | None:
        """Coordinates of f in the canonical basis, or None if f is outside.

        Answers are memoized on the space, one exact solve per distinct f;
        every call returns a fresh list, which the caller may mutate.
        """
        f = Poly.lift(f)
        memo = self._cache.setdefault("coords", {})
        if f not in memo:
            top, sol = self.basis[-1].degree, None
            if "matrix" not in self._cache:
                self._cache["matrix"] = [[p.coeff(i) for p in self.basis] for i in range(top + 1)]
            if f.degree <= top:
                sol = solve(self._cache["matrix"], [f.coeff(i) for i in range(top + 1)])
            memo[f] = tuple(sol[0]) if sol else None
        c = memo[f]
        return None if c is None else list(c)

    def contains(self, f) -> bool:
        return self.coords(f) is not None

    def element(self, coords) -> Poly:
        """The linear combination of the canonical basis with given coords,
        which are unique, so they seed the ``coords`` memo."""
        coords = tuple(map(rat, coords))
        f = combine(coords, self.basis)
        self._cache.setdefault("coords", {})[f] = coords
        return f

    # -- ramification -----------------------------------------------------

    def _wronskians(self) -> WronskianTable:
        """The Wronskians of all subsets of the canonical basis."""
        if "wronskians" not in self._cache:
            self._cache["wronskians"] = WronskianTable(self.basis)
        return self._cache["wronskians"]

    def _U_ints(self, k: int) -> list[int]:
        """U_k as a primitive integer list with positive leading coefficient."""
        key = ("U ints", k)
        if key not in self._cache:
            g = []
            for w in self._wronskians().level(k).values():
                g = _iz_gcd(g, w)
                if len(g) == 1:
                    break
            self._cache[key] = _iz_primitive(g)
        return self._cache[key]

    def _over_U(self, ints: list[int], scale, k: int) -> Poly:
        """scale * ints over U_k: exact in Z[x], since U_k is primitive."""
        self.U(k)  # the range check, and the base-point check at k = 1
        u = self._U_ints(k)
        s = scale * u[-1]
        return Poly([s * c for c in _iz_exact_div(ints, u)])

    def _divided(self, table: WronskianTable, subset) -> Poly:
        k = len(subset)
        return self._over_U(table.level(k)[subset], table.scale(subset), k)

    def U(self, k: int) -> Poly:
        """Monic gcd of the Wronskians of all k-subsets of the space."""
        if not 1 <= k <= self.dim:
            raise ValueError(f"k must be in 1..{self.dim}, got {k}")
        key = ("U", k)
        if key not in self._cache:
            g = Poly(self._U_ints(k)).monic()
            if k == 1 and g != Poly.one():
                raise BasePointError(f"all elements share the factor {g}")
            self._cache[key] = g
        return self._cache[key]

    @property
    def ramification(self) -> tuple[Poly, ...]:
        """The monic divisor sequence T_1, ..., T_{dim-1}.

        With R_i the quotient U_{i+1}/U_i, the i-th entry is R_i/R_{i-1}
        (and R_0 = 1); every division here is exact.
        """
        key = "ramification"
        if key not in self._cache:
            try:
                R = [Poly.one()]
                for i in range(1, self.dim):
                    R.append(exact_div(self.U(i + 1), self.U(i)))
                T = tuple(exact_div(R[i], R[i - 1]) for i in range(1, self.dim))
            except InexactDivisionError as exc:
                raise SpaceError(f"ramification sequence is not multiplicative: {exc}")
            self._cache[key] = T
        return self._cache[key]

    # -- divided Wronskians ----------------------------------------------

    def _check_members(self, polys) -> list[Poly]:
        polys = [Poly.lift(p) for p in polys]
        if not 1 <= len(polys) <= self.dim:
            raise ValueError(f"expected 1..{self.dim} polynomials, got {len(polys)}")
        for p in polys:
            if not self.contains(p):
                raise SpaceError(f"{p} is not an element of {self!r}")
        return polys

    def divided_wronskian(self, polys) -> Poly:
        """Wronskian of k space elements divided by the k-th divisor U_k."""
        polys = self._check_members(polys)
        return self._divided(WronskianTable(polys), tuple(range(len(polys))))

    def pair_wronskians(self, a, b):
        """The map c -> W(a, b, c)/U_3 on elements of the space by
        construction, so membership is not checked.  The integer minors
        m_rs = a^(r) b^(s) - a^(s) b^(r) are built once; each c costs three
        integer products, c m_12 - c' m_02 + c'' m_01 (the last column)."""
        def derivatives(f):
            ints, scale = _int_clear(f.coeffs)
            d1 = _iz_derivative(ints)
            return (ints, d1, _iz_derivative(d1)), scale

        (a, sa), (b, sb) = derivatives(a), derivatives(b)
        m12, m02, m01 = (lincomb([(1, convolve(a[r], b[s])), (-1, convolve(a[s], b[r]))])
                         for r, s in ((1, 2), (0, 2), (0, 1)))

        def divided(c) -> Poly:
            c, sc = derivatives(c)
            w = lincomb(zip((1, -1, 1), map(convolve, c, (m12, m02, m01))))
            return self._over_U(w, sa * sb * sc, 3)

        return divided

    def divided_wronskians(self, polys, k: int) -> dict[tuple[int, ...], Poly]:
        """Divided Wronskians of every k-subset of the space elements polys.

        Keys are increasing 0-based index tuples; one WronskianTable over
        polys gives every Wronskian.
        """
        polys = self._check_members(polys)
        table = WronskianTable(polys)
        return {subset: self._divided(table, subset) for subset in table.level(k)}

    def top_constant(self) -> Fraction:
        """The constant divided Wronskian of the full canonical basis."""
        key = "top_constant"
        if key not in self._cache:
            w = self._divided(self._wronskians(), tuple(range(self.dim)))
            if not w.is_constant():
                raise SpaceError("full divided Wronskian is not constant")
            self._cache[key] = w.coeff(0)
        return self._cache[key]

    def duals(self) -> list[Poly]:
        """Divided Wronskians of the basis with one element omitted.

        The i-th dual omits basis element i; its degree complements the
        omitted degree whenever the space is self-dual.
        """
        key = "duals"
        if key not in self._cache:
            table, n = self._wronskians(), self.dim
            self._cache[key] = [
                self._divided(table, tuple(j for j in range(n) if j != i)) for i in range(n)
            ]
        return self._cache[key]

    def is_self_dual(self) -> bool:
        """Whether the duals span the space itself."""
        key = "self_dual"
        if key not in self._cache:
            sd = all(self.contains(d) for d in self.duals())
            if sd:
                T = self.ramification
                if list(T) != list(reversed(T)):
                    raise SpaceError("self-dual space with asymmetric divisors")
            self._cache[key] = sd
        return self._cache[key]

    # -- bilinear form ----------------------------------------------------

    def bilinear_form(self) -> "BilinearForm":
        """The invariant symmetric form of a self-dual space.

        Characterized by pairing basis element k with dual i to
        (-1)^(i-1) * delta_ki times the top constant.
        """
        key = "form"
        if key not in self._cache:
            if not self.is_self_dual():
                raise NotSelfDualError(f"{self!r} is not self-dual")
            w_top = self.top_constant()
            C = transpose(self.coords(d) for d in self.duals())
            G = [[w_top * (-1) ** i * e for e in row] for i, row in enumerate(inverse(C))]
            for i in range(self.dim):
                for j in range(i):
                    if G[i][j] != G[j][i]:
                        raise SpaceError("asymmetric invariant form")
            self._cache[key] = BilinearForm(self, G)
        return self._cache[key]

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {"basis": [p.to_json() for p in self.basis]}

    @staticmethod
    def from_json(obj) -> "PolySpace":
        return PolySpace([Poly.from_json(row) for row in obj["basis"]])


class BilinearForm:
    """Symmetric invariant form of a self-dual space, as a Gram matrix, kept
    also as one scale times its nonzero integer entries."""

    def __init__(self, space: PolySpace, gram: list[list[Fraction]]):
        self.space = space
        self.gram = gram
        ints, self._scale = _int_clear([e for row in gram for e in row])
        self._entries = [(*divmod(k, len(gram)), g) for k, g in enumerate(ints) if g]

    def __call__(self, f, g) -> Fraction:
        cf = self.space.coords(f)
        cg = self.space.coords(g)
        if cf is None or cg is None:
            raise SpaceError("form arguments must lie in the space")
        return self.pair(cf, cg)

    def pair(self, x, y) -> Fraction:
        """The form on two rational coordinate vectors in the canonical basis:
        one integer sum over the nonzero Gram entries, scaled once."""
        (x, gx, dx), (y, gy, dy) = _clear_ints(x), _clear_ints(y)
        total = sum(g * x[i] * y[j] for i, j, g in self._entries)
        return self._scale * Fraction(total * gx * gy, dx * dy)


class WittBasis:
    """Seven polynomials pairing antidiagonally: <i, 8-i> = (-1)^(i+1).

    Leading coefficients follow the standard scales for the space's
    exponent steps (m, n), so the basis doubles as the candidate standard
    basis on monomial-type spaces.
    """

    def __init__(self, space: PolySpace, coordinates, a: int, m: int, n: int):
        self.space = space
        self.coordinates = tuple(tuple(x) for x in coordinates)  # in the canonical basis
        self.vectors = tuple(map(space.element, self.coordinates))
        self.a = a
        self.m = m
        self.n = n
        self.scales = witt_scales(m, n)

    def coords(self, f) -> list[Fraction] | None:
        """Coordinates of f in the Witt basis, or None if f is outside.

        Solves for the space coordinates of f in the columns of the space
        coordinates of the Witt vectors.
        """
        c = self.space.coords(f)
        if c is None:
            return None
        return solve(transpose(self.coordinates), c)[0]

    def element(self, coords) -> Poly:
        """The combination of the Witt vectors, through ``space.element``."""
        if len(coords) != 7:
            raise ValueError(f"expected 7 coordinates, got {len(coords)}")
        x = lincomb(zip(map(rat, coords), self.coordinates))
        return self.space.element(x + [0] * (7 - len(x)))

    def __repr__(self):
        return f"WittBasis(a={self.a}, m={self.m}, n={self.n})"


def degree_steps(space: PolySpace) -> tuple[int, int, int]:
    """The parameters (a, m, n) of the basis degree pattern.

    Degrees must be a, a+m, a+n, a+m+n, a+2m+n, a+m+2n, a+2m+2n with
    0 < m < n; raises DegreePatternError otherwise.
    """
    degs = list(space.degrees)
    if len(degs) != 7:
        raise DegreePatternError(f"need dimension 7, got {len(degs)}")
    a = degs[0]
    m = degs[1] - a
    n = degs[2] - a
    expect = [a, a + m, a + n, a + m + n, a + 2 * m + n, a + m + 2 * n, a + 2 * m + 2 * n]
    if not 0 < m < n or degs != expect:
        raise DegreePatternError(f"degrees {degs} do not fit steps (m, n) = ({m}, {n})")
    return a, m, n


def witt_basis(space: PolySpace) -> WittBasis:
    """Hyperbolic basis with standard leading scales and exact pairing.

    Pairs off lowest against highest degrees, reducing against earlier
    pairs, then rescales by the standard leading coefficients.  Raises
    WittGramError when the rescaled pairing is not exactly antidiagonal,
    which cannot happen for a space carrying a standard basis.

    The reduction runs on coordinate vectors in the canonical basis, paired
    through the Gram matrix; a vector's degree is that of its highest
    nonzero coordinate, since the basis degrees are distinct.
    """
    if space.dim != 7:
        raise DegreePatternError(f"need dimension 7, got {space.dim}")
    B = space.bilinear_form().pair
    a, m, n = degree_steps(space)
    pool = [[Fraction(int(i == j)) for j in range(7)] for i in range(7)]
    pairs = []

    def degree(x) -> int:
        return space.degrees[max(i for i, c in enumerate(x) if c)]

    def reduce_elt(x):
        for p, q, t in pairs:
            cp, cq = B(x, q) / t, B(x, p) / t
            x = [u - cp * v - cq * w for u, v, w in zip(x, p, q)]
        return x

    for _ in range(3):
        low = reduce_elt(pool.pop(0))
        high = reduce_elt(pool.pop())
        if B(low, low) != 0:
            raise WittGramError(f"degree-{degree(low)} vector is not isotropic")
        t = B(low, high)
        if t == 0:
            raise WittGramError(
                f"degenerate pairing between degrees {degree(low)} and {degree(high)}"
            )
        c = B(high, high) / (2 * t)
        high = [u - c * v for u, v in zip(high, low)]
        pairs.append((low, high, t))
    mid = reduce_elt(pool.pop())

    monic = [pairs[0][0], pairs[1][0], pairs[2][0], mid, pairs[2][1], pairs[1][1], pairs[0][1]]
    scales = witt_scales(m, n)
    coords = [[c * s for c in x] for x, s in zip(monic, scales)]
    for i, j, got, want in _witt_gram_mismatches(B, coords):
        raise WittGramError(f"pairing of rescaled vectors ({i}, {j}) is {got}, expected {want}")
    return WittBasis(space, coords, a, m, n)


def monomial_space(m: int, n: int, a: int = 0) -> PolySpace:
    """The span of x^(a+e) over the seven standard exponents e for (m, n)."""
    if not 0 < m < n:
        raise ValueError("need 0 < m < n")
    exps = [0, m, n, m + n, 2 * m + n, m + 2 * n, 2 * m + 2 * n]
    return PolySpace([Poly.monomial(a + e) for e in exps])


def degree_window_space() -> PolySpace:
    """All polynomials of degree at most six: the (1, 2) monomial space."""
    return monomial_space(1, 2)
