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
from itertools import groupby
from math import gcd

from .errors import DomainError, ResourceError, UsageError
from .scalars import ExtRat, continued_fraction, value_class
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
    Run,
    UVec,
    Word,
    gamma_of,
    greedy_path,
    u_slope,
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
    return 1 + parity + sum(-1 if k % 2 else 1 for k in aprime[:-1])


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
    m = u_slope(i, x)
    delta = index_shift_cf(m)
    ray = _mod3(i + delta - 1)
    return ClassifyReport(quadratic_cell(i), m, gamma, delta, ray,
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


# Largest height exception_rays_punctured accepts; it lists about 1.8 h^2
# generators, about 120k at 256 in 0.2 s (0.5 s for the `rays` command), on a
# shared 2-vCPU VM with Python 3.11.
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
    # Sorting the integer patterns in reverse sorts their images, as d/2 < 0.
    seen = {pattern for p in range(height + 1) for q in range(height + 1) if gcd(p, q) == 1
            for pattern in ((q, p, p + q), (p + q, q, p), (p, p + q, q))}
    scaled = [d / 2 * c for c in range(2 * height + 1)]  # no coordinate passes 2 * height
    return [(scaled[a], scaled[b], scaled[c]) for a, b, c in sorted(seen, reverse=True)]


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
    They are the tessellation triangles on the arc 0 -> 1 -> inf, read off
    ``depth`` rounds of mediant refinement of that line.  A depth beyond
    DEPTH_BOUND raises ResourceError."""
    # hyperbolic loads here, not at import: classify never reads it.
    from .hyperbolic import _check_depth, _refine, _triangles

    _check_depth(depth)
    triangles = _triangles(list(zip(_refine([0, 1, 1], depth), _refine([1, 1, 0], depth))), depth)
    triples = [object.__new__(FareyTriple) for _ in triangles]  # valid: skip the checks
    for k, slot in enumerate((FareyTriple.left, FareyTriple.mid, FareyTriple.right)):
        for triple, t in zip(triples, triangles):
            slot.__set__(triple, t[k])
    return triples


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
    scale = abs(d) / 2
    return _farey_word(_farey_runs(triple), i), tuple((scale * a, scale * b) for a, b in
                                                      (triple.left, triple.mid, triple.right))


def _farey_runs(triple: FareyTriple) -> tuple[Run, ...]:
    """The display-order runs of the cell-1 word of `farey_triangle`, cut as `Word`
    cuts them.  Read left to right, the word starts at 1 and steps by -(-1)^t eta_t
    mod 3 for Q = V_{eta_0} V_{eta_1} ... = ((ga, al), (de, be)), so n equal factors
    make a stretch of n + 1 alternating letters, sharing its ends with its neighbours."""
    (al, be), (ga, de) = triple.left, triple.right
    stretches = [(1, 0, 0)]  # (prev, first, n); the letter 1 alone first
    prev, t = 1, 0
    for sign, factors in groupby(_factor_in_v_monoid(((ga, al), (de, be)))):
        n = len(list(factors))
        first = _mod3(prev + (sign if t % 2 else -sign))
        stretches.append((prev, first, n))
        prev, t = first if n % 2 else prev, t + n
    runs: list[Run] = []
    avail = stretches[-1][2] + 1  # the letters of stretch k no run took, from its left
    for k in range(len(stretches) - 1, 0, -1):
        if avail > 1:
            runs.append((*stretches[k][:2], avail))
            avail = stretches[k - 1][2]  # its last letter is in this run
        else:  # the lone letter left ends stretch k - 1, which one run then takes whole
            avail = stretches[k - 1][2] + 1
    return (((1, 0, 1),) if avail else ()) + tuple(reversed(runs))


def _farey_word(runs: tuple[Run, ...], i: int) -> Word:
    """The cell-i word of `farey_triangle` from `_farey_runs`: every letter
    shifted by i - 1 mod 3, which keeps the runs maximal."""
    return Word._of_runs(tuple((_mod3(a + i - 1), b and _mod3(b + i - 1), n) for a, b, n in runs))


def table_orbit_triangles(d, depth: int) -> dict[int, list[tuple[Word, tuple[UVec, UVec, UVec]]]]:
    """Images of the D-cell triangle under words of length <= depth, reported
    per quadratic cell in the u-coordinates of the cell containing each image:
    the words of length <= D ending in cell i are the `farey_triangle` words of
    the depth-(D - 1) triples.  A depth beyond DEPTH_BOUND raises ResourceError."""
    from .hyperbolic import _check_depth

    d = _punctured_d(d)
    _check_depth(depth)
    triples = farey_enumerate(depth - 1) if depth else []
    return {i: [farey_triangle(t, i, d) for t in triples] for i in (1, 2, 3)}
