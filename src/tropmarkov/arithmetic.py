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

from .errors import DomainError, ResourceError, UsageError, bound_error, check_size
from .scalars import ExtRat, _int_valuation, is_prime, value_class
from .surface import (CellId, Params, Point3, _finite_values, as_point, cell_has_interior,
                      cells_of, check_index, on_skeleton)
from .dynamics import Matrix2, Word, mat_mul, trop_vieta

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


# Largest cost of one Laurent product of a surface identity or an exact Vieta step,
# checked before the product: the product of the sizes of its two factors, a size
# being the sum over the terms of 1024 plus the bits of the exponent and the
# coefficient.  The step cost grows 2.5 to 3 times per letter; from t^-1, t^-1,
# t^-1 the 12th letter costs about 2^35.  A product at the bound takes about a
# second on a 2-core Xeon, whether its terms are many or its coefficients or
# exponents long.
LIFT_STEP_BOUND = 2**38


def _lift_size(poly: LaurentPoly) -> int:
    return sum(1024 + e.bit_length() + c.numerator.bit_length() + c.denominator.bit_length()
               for e, c in poly.items())


def _check_cost(P: LaurentPoly, Q: LaurentPoly, what: str) -> None:
    if _lift_size(P) * _lift_size(Q) > LIFT_STEP_BOUND:
        raise ResourceError(f"{what} exceeds the configured bound of {LIFT_STEP_BOUND} cost units")


def _vieta(i: int, X: Sequence, linear: Sequence) -> list:
    """The coordinates after s_i, in any ring with - and *: X_i becomes
    linear_i - X_i - X_j X_k, the other root of the surface equation as a
    quadratic in X_i, and the other two are unchanged."""
    X = list(X)
    X[i - 1] = linear[i - 1] - X[i - 1] - X[i % 3] * X[(i + 1) % 3]
    return X


def _surface_d(X: Sequence[LaurentPoly], linear: Sequence[LaurentPoly]) -> LaurentPoly:
    """X1^2 + X2^2 + X3^2 + X1 X2 X3 - (A X1 + B X2 + C X3): the D of the surface
    through X.  A product past LIFT_STEP_BOUND raises ResourceError before it is made."""
    X1, X2, X3 = X
    for P, Q in ((X1, X1), (X2, X2), (X3, X3), (X1, X2), *zip(linear, X)):
        _check_cost(P, Q, "a product of the surface identity")
    X12 = X1 * X2
    _check_cost(X12, X3, "a product of the surface identity")
    A, B, C = linear
    return X1.square() + X2.square() + X3.square() + X12 * X3 - (A * X1 + B * X2 + C * X3)


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
        if _surface_d((self.X1, self.X2, self.X3), (self.A, self.B, self.C)) != self.D:
            raise DomainError("coordinates do not satisfy the surface equation")

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
    """Derive D so that the seed lies on the surface, bounded as `_surface_d` is."""
    return SurfacePointL._unchecked(X1, X2, X3, A, B, C, _surface_d((X1, X2, X3), (A, B, C)))


def vieta_exact(i: int, point: SurfacePointL) -> SurfacePointL:
    """Exact Vieta involution: s1 replaces X1 by A - X1 - X2*X3, and cyclically.

    The image is on the surface by construction and is not rechecked.
    """
    check_index(i)
    linear = (point.A, point.B, point.C)
    return SurfacePointL._unchecked(*_vieta(i, point.coordinates(), linear), *linear, point.D)


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


def lift_consistency(point: SurfacePointL, word: Word) -> LiftReport:
    """Compare t-adic valuations of the exact Vieta orbit against the
    tropicalized orbit, prefix by prefix.

    The agreement is guaranteed when the seed's valuation vector is interior
    to the D cell; a violated precondition is reported, not fatal.  A word
    longer than LIFT_WORD_BOUND raises ResourceError before any step, and an
    exact step past LIFT_STEP_BOUND before that step.
    """
    check_size(word.length, "word length", 0, LIFT_WORD_BOUND)
    params = point.params()
    vals = point.valuation_vector()
    if any(v.is_infinite for v in vals):
        return LiftReport(ok=False, precondition_ok=False, steps=())
    x0 = tuple(v.finite for v in vals)
    pre_ok = on_skeleton(params, x0) and cells_of(params, x0) == {CellId.D}
    steps: list[LiftStep] = []
    letters = word.letters  # display order: the first k applied are the last k
    cur_exact = point
    cur_trop: Point3 = x0
    ok = True
    for k, g in enumerate(reversed(letters), 1):
        X = cur_exact.coordinates()  # the factors of step g, as _vieta picks them
        _check_cost(X[g % 3], X[(g + 1) % 3], f"exact step {k} of {word.length}")
        cur_exact = vieta_exact(g, cur_exact)
        cur_trop = trop_vieta(params, g, cur_trop)
        exact_vals = cur_exact.valuation_vector()
        match = all(ev == tv for ev, tv in zip(exact_vals, cur_trop))
        ok = ok and match
        steps.append(LiftStep(Word(letters[-k:]), exact_vals, cur_trop, match))
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

# Largest half-width of the integer box |n_i| <= nmax, nmax^2 < 3 m p^K, around
# the ball that holds the points of enumerate_zp_points; its loop takes one integer
# square root per pair (n1, n2) with 0 < n1 < sqrt(m p^K) and a real n3, O(nmax^2).
# 256 admits K = 14 at p = 2 (nmax 221, rows 0 < n1 <= 127).  Every p above ZP_BOX_BOUND^2
# exceeds it: D = m/p^K, K >= 1, makes the ball 3 m p^K >= 3p, so nmax >= sqrt(3p) - 1 > 256.
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
    exponents in [v_p(D), -1], and coordinate square-sum below 3D, sorted.

    The points of `zp_numerators`, each coordinate n_i / p^K with exponent
    v_p(n_i) - K.  A half-width beyond ZP_BOX_BOUND, or any p above
    ZP_BOX_BOUND^2, raises ResourceError.
    """
    triples, pk, K = zp_numerators(p, D)
    return [ZpPoint(tuple(Fraction(n, pk) for n in t), tuple(_int_valuation(n, p) - K for n in t))
            for t in triples]


def zp_numerators(p: int, D) -> tuple[list[tuple[int, int, int]], int, int]:
    """The points of `enumerate_zp_points` over their common denominator p^K,
    K = -v_p(D): the sorted integer triples (n1, n2, n3), then p^K and K.  The
    order is that of the points, since the denominator is shared.

    The surface equation scaled by p^(3K) becomes the integer identity
    p^K (n1^2+n2^2+n3^2) + n1 n2 n3 = D p^(3K), and the exponent box is
    equivalent to n_i nonzero and p^K not dividing n_i.  Every point of the
    compact component has x1^2 < D, so the rows are 0 < n1 < sqrt(m p^K), m
    the numerator of D: about 1/sqrt(3) of the box half-width nmax, and half
    the pairs (n1, n2), as (n1, n2, n3) -> (-n1, -n2, n3) keeps the identity,
    the ball and the rows: each point is found with its mirror.  For each pair
    the identity is a quadratic in n3 whose discriminant, a2 n2^2 + c0, has its
    coefficients fixed in the row (`_row_quadratic`); each row stops at its last
    n2 with real roots, inside the ball, and solves for n3 only where that is a
    square.  So the cost is O(nmax^2), one integer square root per pair.  A
    half-width beyond ZP_BOX_BOUND, or any p above ZP_BOX_BOUND^2, raises ResourceError.
    """
    if p > ZP_BOX_BOUND ** 2:
        # Checked before is_prime, whose trial division is slow for huge p.
        raise bound_error("p =", p, f"{ZP_BOX_BOUND ** 2}: its enumeration box half-width "
                                    f"would exceed {ZP_BOX_BOUND}")
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
    ball = 3 * D.numerator * pk  # n1^2+n2^2+n3^2 < 3 D p^(2K)
    nmax = math.isqrt(ball)
    if nmax * nmax >= ball:
        nmax -= 1
    check_size(nmax, "enumeration box half-width", 0, ZP_BOX_BOUND)
    allowed = [n for n in range(-nmax, nmax + 1) if n != 0 and n % pk != 0]
    # n2 and n3 are nonzero, so x1^2 = D - (x2^2 + x1 x2 x3 + x3^2) < D, the form
    # being positive definite for |x1| < 2: only the rows n1^2 < m p^K hold a point.
    # The rows n1 > 0; the mirror (-n1, -n2, n3) has the same b = n1 n2 below.
    r1 = math.isqrt(D.numerator * pk - 1)
    out = []
    for n1 in allowed[bisect_left(allowed, 1):bisect_right(allowed, r1)]:
        s1 = n1 * n1
        a2, c0, r2 = _row_quadratic(pk, D.numerator, s1)
        cols = allowed[bisect_left(allowed, -r2):bisect_right(allowed, r2)]
        discs = [a2 * n2 * n2 + c0 for n2 in cols]
        for n2, disc, r in zip(cols, discs, map(math.isqrt, discs)):
            if r * r != disc:
                continue
            # pk n3^2 + b n3 + pk s2 - D p^(3K) = 0 with b = n1 n2, s2 = s1 + n2^2.
            b, s2 = n1 * n2, s1 + n2 * n2
            for num in {-b + r, -b - r}:
                n3, rem = divmod(num, 2 * pk)
                # pk | n3 covers n3 = 0.
                if rem or n3 % pk == 0 or s2 + n3 * n3 >= ball:
                    continue
                out += (n1, n2, n3), (-n1, -n2, n3)
    out.sort()
    return out, pk, K


def _row_quadratic(pk: int, m: int, s1: int) -> tuple[int, int, int]:
    """The row s1 = n1^2 < m pk of `zp_numerators`: the discriminant of its
    quadratic in n3, b^2 - 4 pk (pk (s1 + n2^2) - m pk^2) with b = n1 n2, is
    a2 n2^2 + c0, a2 = s1 - 4 pk^2 < 0 < c0 = 4 pk^2 (m pk - s1) since s1 < m pk
    < pk^2 / 3.  Returns a2, c0 and the last n2 >= 0 with real roots."""
    q = 4 * pk * pk
    a2, c0 = s1 - q, q * (m * pk - s1)
    return a2, c0, math.isqrt(c0 // -a2)


def rational_vieta(i: int, x: tuple[Fraction, Fraction, Fraction], D) -> tuple:
    """Vieta involution on rational points of the surface with A = B = C = 0."""
    check_index(i)
    return tuple(_vieta(i, as_point(x), (0, 0, 0)))
