"""The tropical Markov cubic surface.

The family of affine cubics X1^2+X2^2+X3^2+X1X2X3 = A X1+B X2+C X3+D
tropicalizes to the min-plus polynomial

    f(x) = min(2x1, 2x2, 2x3, x1+x2+x3, a+x1, b+x2, c+x3, d),

where a, b, c, d are the valuations of the coefficients.  The skeleton is the
locus where the cubic monomial x1+x2+x3 attains the minimum, equivalently the
zero set of the level function f0 = min(seven non-cubic monomials) - (x1+x2+x3).
This module provides membership tests, the cell decomposition of the skeleton,
ray thresholds, the foliation of R^3 by level sets of f0, and the involutions'
fixed-set parametrization.

+infinity enters only through the parameters, where it drops a monomial, so
f0 and f are exact rationals at every point.  Every formula reads the
parameters as Fractions, None where +infinity drops its terms
(`_finite_values`); ExtRat appears only in `Params`, in the public
`thresholds` tuple and in `level_set_shift`, which builds a `Params`.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import lcm

from .errors import DomainError, UsageError, check_size
from .scalars import ExtRat, parse_rational, value_class

Point3 = tuple[Fraction, Fraction, Fraction]
PlanePoint = tuple[Fraction, Fraction, Fraction]


def as_point(values) -> Point3:
    vals = tuple(Fraction(v) for v in values)
    if len(vals) != 3:
        raise UsageError(f"a point needs exactly 3 coordinates, got {len(vals)}")
    return vals


def parse_point(text: str) -> Point3:
    return as_point(parse_rational(part) for part in text.split(","))


def point_text(x: Point3) -> str:
    """A point as the command line writes it, e.g. "0,-1/2,3"."""
    return ",".join(map(str, x))


class CellId(Enum):
    """The seven cells of a skeleton, named by the monomial that ties x1+x2+x3."""

    X1SQ = "X1^2"
    X2SQ = "X2^2"
    X3SQ = "X3^2"
    AX1 = "AX1"
    BX2 = "BX2"
    CX3 = "CX3"
    D = "D"


QUADRATIC_CELLS = (CellId.X1SQ, CellId.X2SQ, CellId.X3SQ)
SUBQUADRATIC_CELLS = (CellId.AX1, CellId.BX2, CellId.CX3, CellId.D)
CELL_ORDER = QUADRATIC_CELLS + SUBQUADRATIC_CELLS


def check_index(i, what: str = "generator") -> None:
    """A generator, ray or cell index is the int 1, 2 or 3, not a bool, float or
    string that equals or names one."""
    if type(i) is not int or i not in (1, 2, 3):
        raise UsageError(f"{what} index must be 1, 2 or 3, got {i}")


def quadratic_cell(i: int) -> CellId:
    return QUADRATIC_CELLS[i - 1]


def nxt(i: int) -> int:
    """Cyclic successor of a coordinate index: 1->2->3->1."""
    return i % 3 + 1


def prv(i: int) -> int:
    """Cyclic predecessor of a coordinate index: 1->3->2->1."""
    return (i + 1) % 3 + 1


@value_class
class Params:
    """Coefficient valuations (a, b, c, d); each may be +infinity."""

    a: ExtRat
    b: ExtRat
    c: ExtRat
    d: ExtRat

    @classmethod
    def make(cls, a, b, c, d) -> "Params":
        return cls(ExtRat(a), ExtRat(b), ExtRat(c), ExtRat(d))

    @classmethod
    def parse(cls, text: str) -> "Params":
        parts = text.split(",")
        if len(parts) != 4:
            raise UsageError(f"parameters need exactly 4 entries, got {len(parts)}")
        return cls(*(ExtRat(part.strip()) for part in parts))

    def __str__(self):
        return ",".join(str(v) for v in (self.a, self.b, self.c, self.d))


def _monomials(coeffs, x) -> list:
    """The seven non-cubic monomials of f at x in CELL_ORDER slots, the only place
    the polynomial is written.  coeffs are (a, b, c, d), None where +infinity
    drops the monomial (None in its slot): `_finite_values(params)`, or for x on
    (1/L)Z^3 the parameters times L, which gives the monomials times L."""
    x1, x2, x3 = x
    a, b, c, d = coeffs
    return [2 * x1, 2 * x2, 2 * x3, a if a is None else a + x1, b if b is None else b + x2,
            c if c is None else c + x3, d]


def _finite_monomials(params: Params, x: Point3) -> list[Fraction]:
    """The finite non-cubic monomials of f at x."""
    return [v for v in _monomials(_finite_values(params), x) if v is not None]


def trop_poly_f(params: Params, x: Point3) -> Fraction:
    """The eight-term tropical polynomial of the Markov cubic at x."""
    return min(*_finite_monomials(params, x), sum(x))


def f0(params: Params, x: Point3) -> Fraction:
    """Skeleton level function: min of the seven non-cubic monomials minus x1+x2+x3."""
    return min(_finite_monomials(params, x)) - sum(x)


def on_skeleton(params: Params, x: Point3) -> bool:
    return f0(params, x) == 0


def in_tropicalization(params: Params, x: Point3) -> bool:
    """Kapranov membership: the tropical minimum is attained by at least two monomials."""
    values = [*_finite_monomials(params, x), sum(x)]
    return values.count(min(values)) >= 2


def _cell_slots(params: Params, values: list, x: Point3) -> list[int]:
    """The CELL_ORDER slots of the cells holding x, ascending, read off the seven
    `_monomials` ``values`` at x that the caller holds; DomainError if x is off
    the skeleton, the check min(values) == x1 + x2 + x3."""
    s = x[0] + x[1] + x[2]
    if min([v for v in values if v is not None]) != s:
        raise DomainError(f"point {point_text(x)} is not on the skeleton of {params}")
    return [k for k, v in enumerate(values) if v == s]


def cells_of(params: Params, x: Point3) -> set[CellId]:
    """Cells of the skeleton containing x (nonempty; singleton iff x is interior)."""
    return {CELL_ORDER[k] for k in _cell_slots(params, _monomials(_finite_values(params), x), x)}


def cell_has_interior(params: Params, cell: CellId) -> bool:
    """Whether the cell has nonempty planar interior.

    Quadratic cells always do.  The D cell requires
    d < min(0,2a-d)+min(0,2b-d)+min(0,2c-d); the linear cell AX1 requires
    a < min(0,b-a)+min(0,c-a) and 2a < d, and symmetrically for BX2, CX3.  An
    infinite parameter (None) drops its terms; an infinite d leaves the D cell
    empty, and an infinite a the AX1 cell.
    """
    if cell in QUADRATIC_CELLS:
        return True
    *abc, d = _finite_values(params)
    if cell is CellId.D:
        return d is not None and d < sum(min(0, 2 * e - d) for e in abc if e is not None)
    own = abc.pop(SUBQUADRATIC_CELLS.index(cell))
    return (own is not None and own < sum(min(0, e - own) for e in abc if e is not None)
            and (d is None or 2 * own < d))


def _finite_values(params: Params) -> tuple[Fraction | None, ...]:
    """(a, b, c, d) as Fractions, None where the parameter is +infinity."""
    return tuple(None if e.is_infinite else e.finite
                 for e in (params.a, params.b, params.c, params.d))


def _on_lattice(params: Params, *dens: int) -> tuple[int, list[int | None]]:
    """L = lcm of ``dens`` and the finite parameters' denominators, and (a, b, c, d)
    times L, each an int or None where infinite."""
    coeffs = _finite_values(params)
    scale = lcm(*dens, *(e.denominator for e in coeffs if e is not None))
    return scale, [None if e is None else e.numerator * (scale // e.denominator) for e in coeffs]


def _threshold(params: Params, i: int) -> Fraction:
    """Truncation bound of the ray R_i: min(0, a, b, c, d/2) with the i-th of
    a, b, c halved; an infinite parameter drops its term."""
    terms = [Fraction(0)]
    for k, e in enumerate(_finite_values(params), 1):
        if e is not None:
            terms.append(e / 2 if k in (i, 4) else e)
    return min(terms)


def thresholds(params: Params) -> tuple[ExtRat, ExtRat, ExtRat]:
    """Truncation bounds of the three boundary rays."""
    return tuple(ExtRat(_threshold(params, i)) for i in (1, 2, 3))


def on_boundary_ray(params: Params, i: int, x: Point3) -> bool:
    """Membership in the ray R_i: x is `ray_point(i, t)`, t = x_{i+1}, with t below
    the threshold."""
    check_index(i, "ray")
    t = x[i % 3]
    return tuple(x) == ray_point(i, t) and _threshold(params, i) >= t


def ray_point(i: int, t: Fraction) -> Point3:
    """The point of the ray R_i at t: x_i = 0 and the other two coordinates t."""
    check_index(i, "ray")
    t = Fraction(t)
    out = [t, t, t]
    out[i - 1] = Fraction(0)
    return (out[0], out[1], out[2])


# -- foliation by level sets ---------------------------------------------------


def project_to_plane(x: Point3) -> PlanePoint:
    """Orthogonal projection onto the plane x1+x2+x3 = 0."""
    x1, x2, x3 = x
    return (
        Fraction(2 * x1 - x2 - x3, 3),
        Fraction(-x1 + 2 * x2 - x3, 3),
        Fraction(-x1 - x2 + 2 * x3, 3),
    )


def plane_point(v1, v2, v3=None) -> PlanePoint:
    v1, v2 = Fraction(v1), Fraction(v2)
    v3 = -v1 - v2 if v3 is None else Fraction(v3)
    if v1 + v2 + v3 != 0:
        raise UsageError("plane points must have zero coordinate sum")
    return (v1, v2, v3)


# Most nodes per axis of a plane grid; skeleton sampling and rendering lift
# grid^2 points, 65,536 at 256: about 0.44 s for the SVG and 0.95 s for the CSV,
# best of 3 in-process on a shared 2-vCPU VM with Python 3.11.
GRID_BOUND = 256


def plane_grid(grid: int, span) -> list[Fraction]:
    """grid equally spaced values from -span to span, one grid axis.

    Fewer than 2 nodes is a UsageError, more than GRID_BOUND a ResourceError.
    """
    check_size(grid, "grid", 2, GRID_BOUND)
    span = Fraction(span)
    return [-span + 2 * span * Fraction(k, grid - 1) for k in range(grid)]


def _grid_lifts(params: Params, grid: int, span):
    """The `plane_grid` axis, 6L, and (y, cells) per node of the square, v2 outer:
    the node's lift to {f0 = 0} times 6L and the cells holding it, in CELL_ORDER.
    The grid is checked at the call, then lifted on one lattice (1/L)Z, L the lcm
    of the grid's and the parameters' denominators; the cells are int comparisons."""
    values = plane_grid(grid, span)
    scale, coeffs = _on_lattice(params, *(v.denominator for v in values))
    nums = [v.numerator * (scale // v.denominator) for v in values]
    coeffs6 = [e if e is None else 6 * e for e in coeffs]  # on the lift's lattice (1/6L)Z

    def lifts():
        for n2 in nums:
            for n1 in nums:
                y = _integer_lift(coeffs, 0, n1, n2)
                s = sum(y)
                yield y, [c for c, m in zip(CELL_ORDER, _monomials(coeffs6, y)) if m == s]
    return values, 6 * scale, lifts()


def lift_from_plane(params: Params, w, v: PlanePoint) -> Point3:
    """The unique point of the level set {f0 = w} projecting onto v.

    The point is v + alpha(1,1,1) with alpha the least of 2v_i - w,
    (a + v1 - w)/2, (b + v2 - w)/2, (c + v3 - w)/2 and (d - w)/3; an infinite
    parameter drops its term.  `_integer_lift` computes it.
    """
    w = Fraction(w)
    v1, v2, _ = plane_point(*v)
    return _lift_on_lattice(params, w.numerator, w.denominator,
                           v1.numerator, v1.denominator, v2.numerator, v2.denominator)


def _lift_on_lattice(params: Params, w_num: int, w_den: int,
                    n1: int, d1: int, n2: int, d2: int) -> Point3:
    """`lift_from_plane` of v = (n1/d1, n2/d2, -n1/d1 - n2/d2) to {f0 = w_num/w_den};
    every denominator is positive, and the pairs need not be in lowest terms.
    Nothing is validated: v3 = -v1 - v2 puts v on the plane by construction."""
    scale, coeffs = _on_lattice(params, w_den, d1, d2)
    y = _integer_lift(coeffs, w_num * (scale // w_den), n1 * (scale // d1), n2 * (scale // d2))
    den = 6 * scale
    return (Fraction(y[0], den), Fraction(y[1], den), Fraction(y[2], den))


def _integer_lift(coeffs: list[int | None], wl: int, n1: int, n2: int) -> tuple[int, int, int]:
    """The lift of v = (n1, n2, -n1 - n2)/L to {f0 = wl/L}, times 6L, for coeffs
    the parameters times L (None where infinite): every candidate for alpha
    times 6L is an integer, so alpha is one integer min."""
    n3 = -n1 - n2
    w6 = 6 * wl
    alphas = [12 * n1 - w6, 12 * n2 - w6, 12 * n3 - w6]
    for e, ni in zip(coeffs, (n1, n2, n3)):
        if e is not None:
            alphas.append(3 * (e + ni - wl))
    if coeffs[3] is not None:
        alphas.append(2 * (coeffs[3] - wl))
    m = min(alphas)
    return (m + 6 * n1, m + 6 * n2, m + 6 * n3)


# -- fixed sets of the involutions ---------------------------------------------


def fixed_set_point(params: Params, i: int, w, u) -> Point3:
    """Point of Fix(trop(s_i)) on the level set {f0 = w} with x_{i+1} - x_{i-1} = u.

    With e, e', e'' the parameters of x_i, x_{i+1}, x_{i-1} (None where infinite,
    dropping the term): t = x_{i+1} + x_{i-1} is the least of u - 2w, -u - 2w,
    (2e' + u - 4w)/3, (2e'' - u - 4w)/3, d/2 - w and e - w, then x_i is the least
    of x_{i+1}, x_{i-1}, (e' + x_{i+1})/2, (e'' + x_{i-1})/2 and d/2.
    """
    w, u = Fraction(w), Fraction(u)
    check_index(i)
    coeffs = _finite_values(params)
    e, up, down, d = coeffs[i - 1], coeffs[nxt(i) - 1], coeffs[prv(i) - 1], coeffs[3]
    t = min(v for v in (u - 2 * w, -u - 2 * w, up if up is None else (2 * up + u - 4 * w) / 3,
                        down if down is None else (2 * down - u - 4 * w) / 3,
                        d if d is None else d / 2 - w, e if e is None else e - w) if v is not None)
    x_up, x_down = (t + u) / 2, (t - u) / 2
    x_i = min(v for v in (x_up, x_down, up if up is None else (up + x_up) / 2,
                          down if down is None else (down + x_down) / 2,
                          d if d is None else d / 2) if v is not None)
    out = [x_i, x_i, x_i]
    out[nxt(i) - 1], out[prv(i) - 1] = x_up, x_down
    return (out[0], out[1], out[2])


def is_meromorphic(params: Params) -> bool:
    """min(a,b,c,d) < 0; decides whether the central table is fat or degenerate."""
    return any(e is not None and e < 0 for e in _finite_values(params))


def level_set_shift(params: Params, w) -> Params:
    """Parameters of the skeleton that the level set {f0 = w} translates to."""
    w = Fraction(w)
    return Params(params.a + w, params.b + w, params.c + w, params.d + 2 * w)
