"""Exception-set classifier.

For meromorphic parameters the orbit of the central table misses a countable
union of rays.  Whether a quadratic-cell point x belongs to the orbit (the
dense open set U) is decided by the gcd of its difference coordinates against
a ray threshold picked out by the index shift of its slope.  The index shift
is computed two ways: by iterating the slope transformation T (brute force)
and by a closed formula over the continued fraction of the slope.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import DomainError, ResourceError, UsageError
from .scalars import ExtRat, continued_fraction, thomae_gcd, value_class
from .surface import (
    CellId,
    Params,
    Point3,
    _threshold,
    is_meromorphic,
    nxt,
    quadratic_cell,
)
from .dynamics import (
    Matrix2,
    UVec,
    Word,
    gamma_of,
    greedy_path,
    mat_mul,
    transit_matrix,
    u_coords,
)

_STEP_GUARD = 8


def _as_slope(m) -> ExtRat:
    return m if isinstance(m, ExtRat) else ExtRat(m)


def slope_T(m) -> ExtRat:
    """Slope transformation: T(m) = 1/m - 1 for m < 1 and 1/(m-1) for m >= 1.

    T(0) = T(1) = infinity; infinite input is outside the domain.
    """
    m = _as_slope(m)
    if m.is_infinite:
        raise DomainError("the slope transformation is not applied to infinity")
    v = m.finite
    if v < 0:
        raise DomainError(f"slopes are nonnegative, got {v}")
    if v == 0 or v == 1:
        return ExtRat.infinity()
    if v < 1:
        return ExtRat(1 / v - 1)
    return ExtRat(1 / (v - 1))


def _t_orbit(m: Fraction) -> list[Fraction]:
    """Finite T-orbit m, T(m), ..., T^(st-1)(m); the next value is infinity."""
    budget = m.numerator + m.denominator + _STEP_GUARD
    orbit = [m]
    cur: ExtRat = slope_T(m)
    for _ in range(budget):
        if cur.is_infinite:
            return orbit
        orbit.append(cur.finite)
        cur = slope_T(cur)
    raise DomainError(f"slope orbit of {m} did not stop within {budget} steps")


def _finite_positive_slope(m, op: str) -> Fraction:
    m = _as_slope(m)
    if m.is_infinite:
        raise DomainError(f"{op} requires a finite nonzero slope")
    v = m.finite
    if v <= 0:
        raise DomainError(f"{op} requires a finite nonzero slope, got {v}")
    return v


def stopping_time(m) -> int:
    """Least j > 0 with T^j(m) equal to 0 or infinity; equals the sum of the
    continued-fraction terms of m."""
    return sum(continued_fraction(_finite_positive_slope(m, "stopping time")).terms)


def index_shift_bruteforce(m) -> int:
    """Signed count of orbit values >= 1 minus values < 1 before the stopping time."""
    v = _finite_positive_slope(m, "index shift")
    return sum(1 if t >= 1 else -1 for t in _t_orbit(v))


def _sign_pow(exponent: int) -> int:
    return 1 if exponent % 2 == 0 else -1


def index_shift_cf(m) -> int:
    """Index shift by the continued-fraction formula
    1 + parity(A'(l)) + sum_{k<l} (-1)^(A'(k)) with A'(k) the partial sums of
    (a_j - 1)."""
    cf = continued_fraction(_finite_positive_slope(m, "index shift"))
    aprime = []
    acc = 0
    for a in cf.terms:
        acc += a - 1
        aprime.append(acc)
    parity = aprime[-1] % 2
    return 1 + parity + sum(_sign_pow(k) for k in aprime[:-1])


# -- the classifier --------------------------------------------------------------


@value_class
class ClassifyReport:
    """Decision record for one skeleton point under meromorphic parameters.

    ``slope`` and ``delta`` are None for points inside subquadratic cells;
    ray points report slope infinity in the cell after the ray index.  The
    ``certificate`` word drives the point to its greedy terminal; for ray
    points it is empty and ``ray_parameter`` carries the ray coordinate t.
    """

    cell: CellId
    slope: ExtRat | None
    gamma: Fraction
    delta: int | None
    relevant_ray: int | None
    in_U: bool
    certificate: Word
    ray_parameter: Fraction | None = None


def _mod3(i: int) -> int:
    return (i - 1) % 3 + 1


def classify(params: Params, x: Point3) -> ClassifyReport:
    """Decide membership of x in the dense orbit U of the central table."""
    if not is_meromorphic(params):
        raise DomainError("the exception set is a meromorphic-parameter object")
    trace = greedy_path(params, x)  # its first cells_of is the skeleton check
    gamma = gamma_of(x)
    if trace.word.is_identity and trace.kind == "ray":
        i = trace.ray_index
        t = x[1] if i == 1 else x[0]
        return ClassifyReport(quadratic_cell(nxt(i)), ExtRat.infinity(), gamma,
                              None, i, False, Word(), t)
    if trace.word.is_identity:
        return ClassifyReport(trace.cell, None, gamma, None, None, True, Word(), None)
    i = trace.word.first_applied  # the reflection of the quadratic cell holding x
    u1, u2 = u_coords(i, x)
    m = u2 / u1
    delta = index_shift_cf(m)
    ray = _mod3(i + delta - 1)
    return ClassifyReport(quadratic_cell(i), ExtRat(m), gamma, delta, ray,
                          gamma < -_threshold(params, ray), trace.word, None)


# -- punctured-torus specialisations ---------------------------------------------


def _punctured_d(d) -> Fraction:
    """The parameter d of (inf, inf, inf, d), which must be negative."""
    d = Fraction(d)
    if d >= 0:
        raise DomainError("punctured-torus parameters require d < 0")
    return d


def punctured_torus_in_U(d, x: Point3) -> bool:
    """For parameters (inf, inf, inf, d) with d < 0: x is in U iff the gcd of
    its difference coordinates is below |d|/2."""
    d = _punctured_d(d)
    return gamma_of(x) < abs(d) / 2


def _coprime_pairs(height: int):
    for p in range(height + 1):
        for q in range(height + 1):
            if gcd(p, q) == 1:
                yield p, q


# Largest height exception_rays_punctured accepts; it lists about 1.8 h^2
# generators, about 120k (6 s) at 256.
HEIGHT_BOUND = 256


def exception_rays_punctured(d, height: int) -> list[Point3]:
    """Primitive generators (d/2)(q,p,p+q) and cyclic patterns over coprime
    pairs with max(p,q) <= height, deduplicated and sorted.  A height beyond
    HEIGHT_BOUND raises ResourceError."""
    d = _punctured_d(d)
    if height < 0:
        raise UsageError(f"height must be nonnegative, got {height}")
    if height > HEIGHT_BOUND:
        raise ResourceError(f"height {height} exceeds the configured bound {HEIGHT_BOUND}")
    half = d / 2
    seen: set[Point3] = set()
    for p, q in _coprime_pairs(height):
        for pattern in ((q, p, p + q), (p + q, q, p), (p, p + q, q)):
            seen.add(tuple(half * c for c in pattern))
    return sorted(seen)


def matches_exception_ray(d, x: Point3) -> bool:
    """Whether x lies on some ray R>=1 * (d/2) * pattern of the exception set."""
    d = _punctured_d(d)
    if all(c == 0 for c in x):
        return False
    half = abs(d) / 2
    # In each pattern one coordinate is the sum of the other two.
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        if x[k] != x[i] + x[j]:
            continue
        g = thomae_gcd(x[i], x[j])
        if g < half:
            continue
        if (abs(x[i]) / g).denominator == 1 and (abs(x[j]) / g).denominator == 1:
            return True
    return False


# -- Farey triples and orbit triangles --------------------------------------------


@value_class
class FareyTriple:
    """Coprime pairs (left, mid, right) with mid the mediant and unimodular ends."""

    left: tuple[int, int]
    mid: tuple[int, int]
    right: tuple[int, int]

    def __post_init__(self):
        for pair in (self.left, self.mid, self.right):
            if min(pair) < 0 or gcd(pair[0], pair[1]) != 1:
                raise DomainError(f"{pair} is not a coprime pair of nonnegative integers")
        (al, be), (p, q), (ga, de) = self.left, self.mid, self.right
        if (p, q) != (al + ga, be + de):
            raise DomainError(f"{self.mid} is not the mediant of {self.left} and {self.right}")
        if al * de - be * ga != -1:
            raise DomainError(f"pairs {self.left}, {self.right} are not unimodular neighbours")


FAREY_ROOT = FareyTriple((0, 1), (1, 1), (1, 0))


def farey_enumerate(depth: int) -> list[FareyTriple]:
    """All triples reachable from ((0,1),(1,1),(1,0)) by at most ``depth``
    mediant subdivisions, in breadth-first order; 2^(depth+1) - 1 in total.
    They are the tessellation triangles on the arc 0 -> 1 -> inf, each new
    point the mediant of its older neighbours.  A depth beyond DEPTH_BOUND
    raises ResourceError."""
    # hyperbolic loads here, not at import: classify never reads it.
    from .hyperbolic import _tessellation_triangles

    # Triples read off the cycle are valid by construction: skip FareyTriple's checks.
    triangles = [t for t in _tessellation_triangles(depth) if t[1][0] >= 0]
    triples = [object.__new__(FareyTriple) for _ in triangles]
    for k, slot in enumerate((FareyTriple.left, FareyTriple.mid, FareyTriple.right)):
        for triple, t in zip(triples, triangles):
            slot.__set__(triple, t[k])
    return triples


def _mat_vec(a: Matrix2, v) -> tuple:
    return (a[0][0] * v[0] + a[0][1] * v[1], a[1][0] * v[0] + a[1][1] * v[1])


def _factor_in_v_monoid(m: Matrix2) -> list[int]:
    """Signs (leftmost factor first) with m = V_{e_k} ... V_{e_1}; m must be a
    nonnegative integer matrix of determinant one."""
    (a, b), (c, d) = m
    if a * d - b * c != 1 or min(a, b, c, d) < 0:
        raise DomainError(f"matrix {m} is not in the V-monoid")
    signs: list[int] = []
    while (a, b, c, d) != (1, 0, 0, 1):
        if a >= c and b >= d:
            signs.append(1)
            a, b = a - c, b - d
        elif c >= a and d >= b:
            signs.append(-1)
            c, d = c - a, d - b
        else:
            raise DomainError(f"matrix {m} is not in the V-monoid")
    return signs


def farey_triangle(triple: FareyTriple, i: int, d) -> tuple[Word, tuple[UVec, UVec, UVec]]:
    """Word whose image of the D cell is the u^i-triangle with vertices
    |d|/2 * (left, mid, right), together with those vertices."""
    d = _punctured_d(d)
    if i not in (1, 2, 3):
        raise UsageError(f"cell index must be 1, 2 or 3, got {i}")
    (al, be), (p, q), (ga, de) = triple.left, triple.mid, triple.right
    q_mat: Matrix2 = ((ga, al), (de, be))
    eta = _factor_in_v_monoid(q_mat)  # leftmost factor first
    m = len(eta)
    # Applied-order step signs: eps_j = (-1)^(m-j) * eta_j, eta_j = eta[m-j].
    eps = [_sign_pow(m - j) * eta[m - j] for j in range(1, m + 1)]
    j0 = _mod3(i - sum(eps))
    letters_applied = [j0]
    cell = j0
    for e in eps:
        cell = _mod3(cell + e)
        letters_applied.append(cell)
    assert cell == i
    word = Word(tuple(reversed(letters_applied)))
    scale = abs(d) / 2
    vertices = (
        (scale * al, scale * be),
        (scale * p, scale * q),
        (scale * ga, scale * de),
    )
    return word, vertices


_BASE_TRIANGLE = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
                  (Fraction(1), Fraction(1)))


def table_orbit_triangles(d, depth: int) -> dict[int, list[tuple[Word, tuple[UVec, UVec, UVec]]]]:
    """Images of the D-cell triangle under words of length <= depth, reported
    per quadratic cell in the u-coordinates of the cell containing each image.
    A depth beyond DEPTH_BOUND raises ResourceError."""
    from .hyperbolic import _check_depth

    d = _punctured_d(d)
    _check_depth(depth)
    scale = abs(d) / 2
    out: dict[int, list] = {1: [], 2: [], 3: []}
    identity: Matrix2 = ((1, 0), (0, 1))
    frontier = [(j, identity, (j,)) for j in (1, 2, 3)]
    for _ in range(depth):
        nxt_frontier = []
        for cell, mat, applied in frontier:
            verts = tuple(
                tuple(scale * c for c in _mat_vec(mat, b)) for b in _BASE_TRIANGLE
            )
            out[cell].append((Word(tuple(reversed(applied))), verts))
            for delta in (1, -1):
                nxt_frontier.append(
                    (_mod3(cell + delta), mat_mul(transit_matrix(delta), mat),
                     applied + (_mod3(cell + delta),))
                )
        frontier = nxt_frontier
    return out
