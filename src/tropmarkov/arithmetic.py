"""Arithmetic applications over non-archimedean scalars.

The Fatou condition (nonempty interior of the D cell) with a rational witness;
exact Vieta orbits over Laurent-polynomial surface points together with the
valuation-lift consistency check; partial-product divergence for the shear
matrices; and the enumerator of Z[1/p]-points on the compact component of the
surface x1^2+x2^2+x3^2+x1x2x3 = D.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from fractions import Fraction

from .errors import DomainError, ResourceError, UsageError
from .scalars import ExtRat, _int_valuation, is_prime, value_class
from .surface import (CellId, Params, Point3, _finite_values, _monomials, cell_has_interior,
                      cells_of, on_skeleton)
from .dynamics import Matrix2, Word, _reflect, mat_mul

TYPE_CHECKING = False
if TYPE_CHECKING:  # LaurentPoly appears in annotations only; lift-check loads it
    from .laurent import LaurentPoly


def fatou_condition(params: Params) -> bool:
    """d < min(0, 2a-d) + min(0, 2b-d) + min(0, 2c-d), infinity-aware: the D cell
    has nonempty interior."""
    return cell_has_interior(params, CellId.D)


def _midpoint(lo: Fraction, hi: Fraction) -> Fraction:
    return (lo + hi) / 2


def fatou_witness(params: Params) -> Point3:
    """A rational point interior to the D cell: coordinate sum d with every
    competing monomial strictly larger."""
    if not fatou_condition(params):
        raise DomainError(f"parameters {params} do not satisfy the Fatou condition")
    a, b, c, d = _finite_values(params)  # d is finite: the D cell has interior
    symmetric = (d / 3, d / 3, d / 3)
    if on_skeleton(params, symmetric) and cells_of(params, symmetric) == {CellId.D}:
        return symmetric
    # Interval elimination in x2 then x1 (x3 = d - x1 - x2); None drops a bound.
    lo2 = d / 2 if b is None else max(d / 2, d - b)
    hi2 = min(v for v in (0, c if c is None else c - d / 2, a if a is None else a - d / 2,
                          None if a is None or c is None else a + c - d) if v is not None)
    x2 = _midpoint(lo2, hi2)
    lo1 = d / 2 if a is None else max(d / 2, d - a)
    hi1 = d / 2 - x2 if c is None else min(d / 2 - x2, c - x2)
    x1 = _midpoint(lo1, hi1)
    x = (x1, x2, d - x1 - x2)
    if cells_of(params, x) != {CellId.D}:
        raise DomainError(f"no interior witness found for {params}")
    return x


# -- exact Vieta dynamics over Laurent polynomials ---------------------------------


@value_class
class SurfacePointL:
    """A Laurent-polynomial point (X1, X2, X3) on the surface with coefficients
    (A, B, C, D); construction enforces the on-surface identity."""

    X1: LaurentPoly
    X2: LaurentPoly
    X3: LaurentPoly
    A: LaurentPoly
    B: LaurentPoly
    C: LaurentPoly
    D: LaurentPoly

    def __post_init__(self):
        lhs = self.X1.square() + self.X2.square() + self.X3.square() + self.X1 * self.X2 * self.X3
        rhs = self.A * self.X1 + self.B * self.X2 + self.C * self.X3 + self.D
        if lhs != rhs:
            raise DomainError("coordinates do not satisfy the surface equation")

    @classmethod
    def _unchecked(cls, *values: LaurentPoly) -> "SurfacePointL":
        """A point known to be on the surface, built without the identity check."""
        point = object.__new__(cls)
        for name, value in zip(cls.__slots__, values, strict=True):
            object.__setattr__(point, name, value)
        return point

    def coordinates(self) -> tuple[LaurentPoly, LaurentPoly, LaurentPoly]:
        return (self.X1, self.X2, self.X3)

    def valuation_vector(self) -> tuple[ExtRat, ExtRat, ExtRat]:
        return (self.X1.t_valuation(), self.X2.t_valuation(), self.X3.t_valuation())

    def params(self) -> Params:
        return Params(
            self.A.t_valuation(), self.B.t_valuation(),
            self.C.t_valuation(), self.D.t_valuation(),
        )


def surface_from_seed(X1: LaurentPoly, X2: LaurentPoly, X3: LaurentPoly,
                      A: LaurentPoly, B: LaurentPoly, C: LaurentPoly) -> SurfacePointL:
    """Derive D so that the seed lies on the surface."""
    D = (X1.square() + X2.square() + X3.square() + X1 * X2 * X3
         - A * X1 - B * X2 - C * X3)
    return SurfacePointL(X1, X2, X3, A, B, C, D)


def vieta_exact(i: int, point: SurfacePointL) -> SurfacePointL:
    """Exact Vieta involution: s1 replaces X1 by A - X1 - X2*X3, and cyclically.

    The new X1 is the other root of the surface equation as a quadratic in
    X1, so the image is on the surface by construction and is not rechecked.
    """
    X1, X2, X3 = point.X1, point.X2, point.X3
    if i == 1:
        X1 = point.A - X1 - X2 * X3
    elif i == 2:
        X2 = point.B - X2 - X1 * X3
    elif i == 3:
        X3 = point.C - X3 - X1 * X2
    else:
        raise UsageError(f"generator index must be 1, 2 or 3, got {i}")
    return SurfacePointL._unchecked(X1, X2, X3, point.A, point.B, point.C, point.D)


@value_class
class LiftStep:
    prefix: Word
    exact_valuations: tuple[ExtRat, ExtRat, ExtRat]
    tropical: Point3
    match: bool


@value_class
class LiftReport:
    ok: bool
    precondition_ok: bool
    steps: tuple[LiftStep, ...]


# Longest word lift_consistency replays.  Each vieta_exact multiplies Laurent
# polynomials whose degree grows with the word, so the cost grows exponentially
# with its length: from t^-1, t^-1, t^-1 about 2.4x per letter past 8 letters.
LIFT_WORD_BOUND = 12

# Largest cost of one exact Vieta step lift_consistency takes: the product of
# the sizes of the two polynomials it multiplies, a size being the sum over
# the terms of 1024 plus the bits of the exponent and the coefficient.  The
# cost grows 2.5 to 3 times per letter.  From t^-1, t^-1, t^-1 the 12th letter
# costs about 2^35; a step at the bound takes about a second on a 2-core Xeon,
# whether its terms are many or its coefficients or exponents long.
LIFT_STEP_BOUND = 2**38


def _lift_size(poly: LaurentPoly) -> int:
    return sum(1024 + e.bit_length() + c.numerator.bit_length() + c.denominator.bit_length()
               for e, c in poly.items())


def lift_consistency(point: SurfacePointL, word: Word) -> LiftReport:
    """Compare t-adic valuations of the exact Vieta orbit against the
    tropicalized orbit, prefix by prefix.

    The agreement is guaranteed when the seed's valuation vector is interior
    to the D cell; a violated precondition is reported, not fatal.  A word
    longer than LIFT_WORD_BOUND raises ResourceError before any step, and an
    exact step past LIFT_STEP_BOUND before that step.
    """
    if len(word) > LIFT_WORD_BOUND:
        raise ResourceError(
            f"word length {len(word)} exceeds the configured bound {LIFT_WORD_BOUND}")
    params = point.params()
    vals = point.valuation_vector()
    pre_ok = False
    if all(not v.is_infinite for v in vals):
        x0 = tuple(v.finite for v in vals)
        pre_ok = on_skeleton(params, x0) and cells_of(params, x0) == {CellId.D}
    else:
        x0 = None
    if x0 is None:
        return LiftReport(ok=False, precondition_ok=False, steps=())
    steps: list[LiftStep] = []
    finite = _finite_values(params)
    cur_exact = point
    cur_trop: Point3 = x0
    ok = True
    for k, (g, prefix) in enumerate(zip(word.applied_order(), word.applied_prefixes())):
        Xj, Xk = (X for i, X in enumerate((cur_exact.X1, cur_exact.X2, cur_exact.X3), 1)
                  if i != g)
        if _lift_size(Xj) * _lift_size(Xk) > LIFT_STEP_BOUND:
            raise ResourceError(f"exact step {k + 1} of {len(word)} exceeds the configured "
                                f"bound of {LIFT_STEP_BOUND} cost units")
        cur_exact = vieta_exact(g, cur_exact)
        cur_trop = _reflect(_monomials(finite, cur_trop), g, cur_trop)
        exact_vals = cur_exact.valuation_vector()
        match = all(ev == tv for ev, tv in zip(exact_vals, cur_trop))
        ok = ok and match
        steps.append(LiftStep(prefix, exact_vals, cur_trop, match))
    return LiftReport(ok=ok and pre_ok, precondition_ok=pre_ok, steps=tuple(steps))


# -- shear-matrix divergence --------------------------------------------------------


V_PLUS: Matrix2 = ((1, 1), (0, 1))
V_MINUS: Matrix2 = ((1, 0), (1, 1))


def v_partial_products(signs: Sequence[int]) -> list[Matrix2]:
    """Products V_{s_k} ... V_{s_1} for every prefix of the sign sequence."""
    out = []
    acc: Matrix2 = ((1, 0), (0, 1))
    for s in signs:
        if s not in (1, -1):
            raise UsageError(f"signs must be +1 or -1, got {s}")
        acc = mat_mul(V_PLUS if s == 1 else V_MINUS, acc)
        out.append(acc)
    return out


def matrix_divergence(signs: Sequence[int]) -> list[int]:
    """Minimum entry of each partial product of the shear matrices.

    Nonnegative and nondecreasing; divergent when the sign sequence is not
    eventually constant.
    """
    return [min(m[0][0], m[0][1], m[1][0], m[1][1]) for m in v_partial_products(signs)]


# -- Z[1/p]-points on the compact component ------------------------------------------

# Largest half-width of the integer box |n_i| <= nmax that enumerate_zp_points
# searches; its loop is quadratic in nmax, over the pairs (n1, n2).  256 admits
# K = 14 at p = 2 (nmax 221).  Every p above ZP_BOX_BOUND^2 exceeds it: D = m/p^K
# with K >= 1 makes the ball 3 m p^K at least 3p, so nmax >= sqrt(3p) - 1 > 256.
ZP_BOX_BOUND = 256


@value_class
class ZpPoint:
    """A representative point with denominators a power of p; exponents are the
    p-adic valuations of the coordinates."""

    coords: tuple[Fraction, Fraction, Fraction]
    exponents: tuple[int, int, int]


def compact_radius(D) -> Fraction:
    """Squared-radius bound 3D of the ball containing the compact component."""
    D = Fraction(D)
    if not 0 < D < 4:
        raise DomainError(f"compact component bound requires 0 < D < 4, got {D}")
    return 3 * D


def enumerate_zp_points(p: int, D) -> list[ZpPoint]:
    """All surface points with coordinates m_i p^(x_i), p not dividing m_i,
    exponents in [v_p(D), -1], and coordinate square-sum below 3D.

    Internally every coordinate is written n_i / p^K over the common
    denominator p^K with K = -v_p(D); the surface equation scaled by p^(3K)
    becomes the integer identity p^K (n1^2+n2^2+n3^2) + n1 n2 n3 = D p^(3K),
    and the exponent box is equivalent to n_i nonzero and p^K not dividing n_i.
    For each pair (n1, n2) the identity is a quadratic in n3, solved exactly
    with an integer square root, so the cost is O(nmax^2) for the box
    half-width nmax.  A half-width beyond ZP_BOX_BOUND, or any p above
    ZP_BOX_BOUND^2, raises ResourceError.
    """
    if p > ZP_BOX_BOUND ** 2:
        # Checked before is_prime, whose trial division is slow for huge p.
        raise ResourceError(
            f"p = {p} exceeds the configured bound {ZP_BOX_BOUND ** 2}: its enumeration "
            f"box half-width would exceed {ZP_BOX_BOUND}")
    # Also rejects p < 2, for which dividing D's denominator by p never ends.
    if not is_prime(p):
        raise UsageError(f"{p} is not prime")
    D = Fraction(D)
    pk = D.denominator
    K = _int_valuation(pk, p)
    if p ** K != pk:
        raise DomainError(f"{D} is not in Z[1/{p}]")
    if not 0 < D < Fraction(1, 3):
        raise DomainError(f"enumeration requires 0 < D < 1/3, got {D}")
    rhs = D.numerator * pk * pk  # D p^(3K)
    ball = 3 * D.numerator * pk  # n1^2+n2^2+n3^2 < 3 D p^(2K)
    nmax = math.isqrt(ball)
    if nmax * nmax >= ball:
        nmax -= 1
    if nmax > ZP_BOX_BOUND:
        raise ResourceError(
            f"enumeration box half-width {nmax} exceeds the configured bound {ZP_BOX_BOUND}")
    allowed = [n for n in range(-nmax, nmax + 1) if n != 0 and n % pk != 0]
    out = []
    for n1 in allowed:
        s1 = n1 * n1
        r2 = math.isqrt(ball - 1 - s1)  # the largest |n2| inside the ball
        for n2 in allowed[bisect_left(allowed, -r2):bisect_right(allowed, r2)]:
            s2 = s1 + n2 * n2
            # pk n3^2 + b n3 + c = 0 with b = n1 n2 and c = pk s2 - rhs.
            b = n1 * n2
            disc = b * b - 4 * pk * (pk * s2 - rhs)
            if disc < 0:
                continue
            r = math.isqrt(disc)
            if r * r != disc:
                continue
            for num in {-b + r, -b - r}:
                n3, rem = divmod(num, 2 * pk)
                # pk | n3 covers n3 = 0.
                if rem or n3 % pk == 0 or s2 + n3 * n3 >= ball:
                    continue
                coords = (Fraction(n1, pk), Fraction(n2, pk), Fraction(n3, pk))
                exps = tuple(_int_valuation(n, p) - K for n in (n1, n2, n3))
                out.append(ZpPoint(coords, exps))
    return sorted(out, key=lambda z: z.coords)


def rational_vieta(i: int, x: tuple[Fraction, Fraction, Fraction], D) -> tuple:
    """Vieta involution on rational points of the surface with A = B = C = 0."""
    x1, x2, x3 = (Fraction(c) for c in x)
    if i == 1:
        return (-x1 - x2 * x3, x2, x3)
    if i == 2:
        return (x1, -x2 - x1 * x3, x3)
    if i == 3:
        return (x1, x2, -x3 - x1 * x2)
    raise UsageError(f"generator index must be 1, 2 or 3, got {i}")
