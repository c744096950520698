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
f0 and f are exact rationals at every point.  Lifts, ray thresholds and the
meromorphic test read the finite parameters directly; ExtRat appears only in
the formulas that combine parameters with +infinity (interiors, fixed sets)
and in the public `thresholds` tuple.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import lcm

from .errors import DomainError, ResourceError, UsageError
from .scalars import ExtRat, ext_min, parse_rational, value_class

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


def quadratic_cell(i: int) -> CellId:
    return QUADRATIC_CELLS[i - 1]


def linear_cell(i: int) -> CellId:
    """The cell tied by the linear monomial in coordinate i (AX1, BX2 or CX3)."""
    return SUBQUADRATIC_CELLS[i - 1]


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

    def cycled(self) -> "Params":
        """Parameter relabeling (a,b,c) -> (b,c,a) matching (x1,x2,x3) -> (x2,x3,x1)."""
        return Params(self.b, self.c, self.a, self.d)

    def __str__(self):
        return ",".join(str(v) for v in (self.a, self.b, self.c, self.d))


def _monomial_values(params: Params, x: Point3) -> dict[CellId, Fraction]:
    """The finite non-cubic monomials of f at x, keyed by the cell each one ties.

    The only place the polynomial is written.  An infinite coefficient drops
    its monomial; the squares are always finite, so every minimum is rational.
    """
    x1, x2, x3 = x
    values = {CellId.X1SQ: 2 * x1, CellId.X2SQ: 2 * x2, CellId.X3SQ: 2 * x3}
    for cell, coeff, xi in ((CellId.AX1, params.a, x1), (CellId.BX2, params.b, x2),
                            (CellId.CX3, params.c, x3), (CellId.D, params.d, 0)):
        if not coeff.is_infinite:
            values[cell] = coeff.finite + xi
    return values


def trop_poly_f(params: Params, x: Point3) -> Fraction:
    """The eight-term tropical polynomial of the Markov cubic at x."""
    return min(*_monomial_values(params, x).values(), sum(x))


def f0(params: Params, x: Point3) -> Fraction:
    """Skeleton level function: min of the seven non-cubic monomials minus x1+x2+x3."""
    return min(_monomial_values(params, x).values()) - sum(x)


def on_skeleton(params: Params, x: Point3) -> bool:
    return f0(params, x) == 0


def in_tropicalization(params: Params, x: Point3) -> bool:
    """Kapranov membership: the tropical minimum is attained by at least two monomials."""
    values = [*_monomial_values(params, x).values(), sum(x)]
    return values.count(min(values)) >= 2


def cells_of(params: Params, x: Point3) -> set[CellId]:
    """Cells of the skeleton containing x (nonempty; singleton iff x is interior)."""
    s = sum(x)
    values = _monomial_values(params, x)
    if min(values.values()) != s:
        raise DomainError(f"point {point_text(x)} is not on the skeleton of {params}")
    return {cell for cell, v in values.items() if v == s}


def _min0(e: ExtRat) -> ExtRat:
    return ext_min((ExtRat(0), e))


def cell_has_interior(params: Params, cell: CellId) -> bool:
    """Whether the cell has nonempty planar interior.

    Quadratic cells always do.  The D cell requires
    d < min(0,2a-d)+min(0,2b-d)+min(0,2c-d); the linear cell AX1 requires
    a < min(0,b-a)+min(0,c-a) and 2a < d, and symmetrically for BX2, CX3.
    """
    a, b, c, d = params.a, params.b, params.c, params.d
    if cell in QUADRATIC_CELLS:
        return True
    if cell is CellId.D:
        if d.is_infinite:
            return False
        rhs = _min0(2 * a - d) + _min0(2 * b - d) + _min0(2 * c - d)
        return d < rhs
    coeffs = {CellId.AX1: (a, b, c), CellId.BX2: (b, a, c), CellId.CX3: (c, a, b)}
    own, other1, other2 = coeffs[cell]
    if own.is_infinite:
        return False
    return own < _min0(other1 - own) + _min0(other2 - own) and 2 * own < d


def _finite_values(params: Params) -> tuple[Fraction | None, ...]:
    """(a, b, c, d) as Fractions, None where the parameter is +infinity."""
    return tuple(None if e.is_infinite else e.finite
                 for e in (params.a, params.b, params.c, params.d))


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
    """Membership in the ray R_i: (0,t,t), (t,0,t) or (t,t,0) with t below the threshold."""
    x1, x2, x3 = x
    if i == 1:
        return x1 == 0 and x2 == x3 and _threshold(params, 1) >= x2
    if i == 2:
        return x2 == 0 and x1 == x3 and _threshold(params, 2) >= x1
    if i == 3:
        return x3 == 0 and x1 == x2 and _threshold(params, 3) >= x1
    raise UsageError(f"ray index must be 1, 2 or 3, got {i}")


def ray_point(i: int, t: Fraction) -> Point3:
    t = Fraction(t)
    zero = Fraction(0)
    if i == 1:
        return (zero, t, t)
    if i == 2:
        return (t, zero, t)
    if i == 3:
        return (t, t, zero)
    raise UsageError(f"ray index must be 1, 2 or 3, got {i}")


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
# grid^2 points, 65,536 at 256: about 4.2 s for the SVG or the CSV, best of 3
# in-process on a shared 2-vCPU VM with Python 3.11.
GRID_BOUND = 256


def plane_grid(grid: int, span) -> list[Fraction]:
    """grid equally spaced values from -span to span, one grid axis.

    Fewer than 2 nodes is a UsageError, more than GRID_BOUND a ResourceError.
    """
    if grid < 2:
        raise UsageError("grid needs at least 2 nodes per axis")
    if grid > GRID_BOUND:
        raise ResourceError(f"grid {grid} exceeds the configured bound {GRID_BOUND}")
    span = Fraction(span)
    return [-span + 2 * span * Fraction(k, grid - 1) for k in range(grid)]


def lift_from_plane(params: Params, w, v: PlanePoint) -> Point3:
    """The unique point of the level set {f0 = w} projecting onto v.

    The point is v + alpha(1,1,1) with alpha the least of 2v_i - w,
    (a + v1 - w)/2, (b + v2 - w)/2, (c + v3 - w)/2 and (d - w)/3; an infinite
    parameter drops its term.  `_lift_on_lattice` computes it.
    """
    w = Fraction(w)
    v1, v2, _ = plane_point(*v)
    return _lift_on_lattice(_finite_values(params), w.numerator, w.denominator,
                           v1.numerator, v1.denominator, v2.numerator, v2.denominator)


def _lift_on_lattice(coeffs: tuple[Fraction | None, ...], w_num: int, w_den: int,
                    n1: int, d1: int, n2: int, d2: int) -> Point3:
    """`lift_from_plane` of v = (n1/d1, n2/d2, -n1/d1 - n2/d2) to {f0 = w_num/w_den},
    with `_finite_values(params)` for coeffs; every denominator is positive.

    With L a common multiple of the denominators of v1, v2, w and the finite
    parameters, every candidate for alpha times 6L is an integer, so alpha is
    one integer min over the lattice (1/6L)Z.  The point does not depend on
    L, so the pairs need not be in lowest terms.  Nothing is validated: v3 =
    -v1 - v2 puts v on the plane by construction.
    """
    scale = lcm(w_den, d1, d2, *(e.denominator for e in coeffs if e is not None))
    wl = w_num * (scale // w_den)
    n1 *= scale // d1
    n2 *= scale // d2
    n3 = -n1 - n2
    w6 = 6 * wl
    alphas = [12 * n1 - w6, 12 * n2 - w6, 12 * n3 - w6]
    for e, ni in zip(coeffs[:3], (n1, n2, n3)):
        if e is not None:
            alphas.append(3 * (e.numerator * (scale // e.denominator) + ni - wl))
    d = coeffs[3]
    if d is not None:
        alphas.append(2 * (d.numerator * (scale // d.denominator) - wl))
    m = min(alphas)
    den = 6 * scale
    return (Fraction(m + 6 * n1, den), Fraction(m + 6 * n2, den), Fraction(m + 6 * n3, den))


# -- fixed sets of the involutions ---------------------------------------------


def _fixed_point_base(params: Params, w: Fraction, u: Fraction) -> Point3:
    """Fixed point of the first involution on {f0 = w} with x2 - x3 = u."""
    a, b, c, d = params.a, params.b, params.c, params.d
    vt = ext_min(
        (
            ExtRat(u - 2 * w),
            ExtRat(-u - 2 * w),
            (2 * b + (u - 4 * w)) / 3,
            (2 * c + (-u - 4 * w)) / 3,
            d / 2 - w,
            a - w,
        )
    ).finite
    x2 = (vt + u) / 2
    x3 = (vt - u) / 2
    x1 = ext_min((ExtRat(x2), ExtRat(x3), (b + x2) / 2, (c + x3) / 2, d / 2)).finite
    return (x1, x2, x3)


def fixed_set_point(params: Params, i: int, w, u) -> Point3:
    """Point of Fix(trop(s_i)) on the level set {f0 = w} with x_{i+1} - x_{i-1} = u.

    Stated for i = 1 directly; i = 2, 3 go through the cyclic relabeling of
    coordinates and parameters that conjugates the involutions.
    """
    w, u = Fraction(w), Fraction(u)
    if i == 1:
        return _fixed_point_base(params, w, u)
    if i == 2:
        y = _fixed_point_base(params.cycled(), w, u)
        return (y[2], y[0], y[1])
    if i == 3:
        y = _fixed_point_base(params.cycled().cycled(), w, u)
        return (y[1], y[2], y[0])
    raise UsageError(f"generator index must be 1, 2 or 3, got {i}")


def is_meromorphic(params: Params) -> bool:
    """min(a,b,c,d) < 0; decides whether the central table is fat or degenerate."""
    return any(e is not None and e < 0 for e in _finite_values(params))


def level_set_shift(params: Params, w) -> Params:
    """Parameters of the skeleton that the level set {f0 = w} translates to."""
    w = Fraction(w)
    return Params(params.a + w, params.b + w, params.c + w, params.d + 2 * w)
