"""The (inf,inf,inf) reflection group on the boundary circle, and the finite
comparison with the degenerate skeleton's circle of directions.

Boundary points are projective coprime integer pairs (p, q) standing for
p/q in Q union {inf}; the three reflections act by

    r1: p/q -> (2q-p)/q,   r2: p/q -> p/(2p-q),   r3: p/q -> -p/q.

The nets 0, inf, 1 (for r1, r2, r3 respectively) generate the full rational
boundary under the group, by strict height descent.  On the skeleton side the
nets are the three boundary-ray directions of the fully degenerate skeleton,
normalised to coordinate sum -1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable

from .errors import DomainError, ResourceError, UsageError
from .dynamics import Word, trop_vieta
from .surface import Params, Point3

BPoint = tuple[int, int]
SK_INF = Params.make("inf", "inf", "inf", "inf")

DEPTH_BOUND = 16


def bpoint(p: int, q: int) -> BPoint:
    """Normalised projective pair: coprime, q >= 0, and (1, 0) for infinity."""
    if p == 0 and q == 0:
        raise UsageError("(0, 0) is not a projective point")
    g = math.gcd(abs(p), abs(q))
    p, q = p // g, q // g
    if q < 0 or (q == 0 and p < 0):
        p, q = -p, -q
    return (p, q)


def bpoint_from_rational(value: Fraction | int | str) -> BPoint:
    if isinstance(value, str) and value.strip().lower() == "inf":
        return (1, 0)
    f = Fraction(value)
    return bpoint(f.numerator, f.denominator)


def reflect_boundary(i: int, x: BPoint) -> BPoint:
    p, q = x
    if i == 1:
        return bpoint(2 * q - p, q)
    if i == 2:
        return bpoint(p, 2 * p - q)
    if i == 3:
        return bpoint(-p, q)
    raise UsageError(f"reflection index must be 1, 2 or 3, got {i}")


def apply_reflection_word(word: Word, x: BPoint) -> BPoint:
    for i in word.applied_order():
        x = reflect_boundary(i, x)
    return x


BOUNDARY_NETS: dict[int, BPoint] = {1: (0, 1), 2: (1, 0), 3: (1, 1)}


def height(x: BPoint) -> int:
    return max(abs(x[0]), abs(x[1]))


def reduce_to_nets(x: BPoint) -> tuple[Word, BPoint]:
    """Word w and net n with w applied to n giving x, by strict height descent.

    The displayed word lists the reflections in the order they were applied
    to x (leftmost first), which is the reverse of their action order on n.
    """
    x = bpoint(*x)
    moves: list[int] = []
    cur = x

    def push(*letters: int):
        nonlocal cur
        for i in letters:
            cur = reflect_boundary(i, cur)
            moves.append(i)

    while True:
        p, q = cur
        if q == 0 or (p, q) in ((0, 1), (1, 1)):
            break
        if (p, q) == (-1, 1):
            push(3)
            break
        if abs(p) > q:
            if p > 0:
                push(1, 3)  # z -> z - 2
            else:
                push(3, 1)  # z -> z + 2
        elif p < 0:
            push(3, 2)  # z -> z / (2z + 1), lowering the height
        else:
            push(2, 3)  # z -> z / (2z - 1) then negate, lowering the height
    word = Word.reduce(moves)
    stab = {i for i in (1, 2, 3) if reflect_boundary(i, cur) == cur}
    letters = word.letters
    while letters and letters[-1] in stab:
        letters = letters[:-1]  # the first letter applied to the net acts trivially
    return Word(letters), cur


# -- partial orbits ----------------------------------------------------------------


def _tower(nets: dict[int, object], act: Callable, n: int) -> list:
    """Orbit points of the labels of length <= n, in label order.

    A label is a net i and a word applied to it, reduced modulo the net's
    stabiliser (the two other reflections): the word is empty or starts with
    i, and no letter repeats the one before it.  Labels are listed by length,
    then by net and letters, so the first 3 * 2^k points are the labels of
    length <= k and two towers list the same label at the same position.
    Each point costs one ``act`` on its parent's point.
    """
    frontier = [((i,), nets[i]) for i in (1, 2, 3)]  # (next letters, point)
    points = [x for _, x in frontier]
    for _ in range(n):
        frontier = [(tuple(h for h in (1, 2, 3) if h != g), act(g, x))
                    for letters, x in frontier for g in letters]
        points.extend(x for _, x in frontier)
    return points


def _check_depth(n: int, bound: int):
    if n < 0:
        raise UsageError("orbit depth must be nonnegative")
    if n > bound:
        raise ResourceError(f"orbit depth {n} exceeds the configured bound {bound}")


def _boundary_cyclic_key(x: BPoint):
    p, q = x
    if q == 0:
        return (1, Fraction(0))
    return (0, Fraction(p, q))


def partial_orbit_boundary(n: int, bound: int = DEPTH_BOUND) -> list[BPoint]:
    """The 3 * 2^n distinct orbit points of the nets under words of length <= n,
    in circular order on the boundary circle."""
    _check_depth(n, bound)
    return sorted(set(_tower(BOUNDARY_NETS, reflect_boundary, n)), key=_boundary_cyclic_key)


CirclePointS = tuple[Fraction, Fraction, Fraction]


def _normalise_direction(x: Point3) -> CirclePointS:
    s = x[0] + x[1] + x[2]
    if s >= 0:
        raise DomainError(f"{x} does not generate a skeleton direction")
    return (x[0] / (-s), x[1] / (-s), x[2] / (-s))


SKELETON_NETS: dict[int, CirclePointS] = {
    1: (Fraction(0), Fraction(-1, 2), Fraction(-1, 2)),
    2: (Fraction(-1, 2), Fraction(0), Fraction(-1, 2)),
    3: (Fraction(-1, 2), Fraction(-1, 2), Fraction(0)),
}


def skeleton_direction_act(i: int, x: CirclePointS) -> CirclePointS:
    return _normalise_direction(trop_vieta(SK_INF, i, x))


def _plane_xy(x: CirclePointS) -> tuple[Fraction, Fraction]:
    third = Fraction(-1, 3)
    e = (x[0] - third, x[1] - third, x[2] - third)
    return (e[0] - e[1], e[0] + e[1] - 2 * e[2])


def _skeleton_key(x: CirclePointS):
    """Exact angle order of the plane image (p, q): half-plane [0, pi) first,
    then the point on the p-axis, then decreasing cotangent p/q."""
    p, q = _plane_xy(x)
    return (0 if q > 0 or (q == 0 and p > 0) else 1, q != 0, -p / q if q else 0)


def _skeleton_sorted(points: Iterable[CirclePointS]) -> list[CirclePointS]:
    return sorted(points, key=_skeleton_key)


def partial_orbit_skeleton(n: int, bound: int = DEPTH_BOUND) -> list[CirclePointS]:
    """Orbit of the ray directions on the circle of directions of the fully
    degenerate skeleton, in circular order."""
    _check_depth(n, bound)
    return _skeleton_sorted(set(_tower(SKELETON_NETS, skeleton_direction_act, n)))


# -- arc statistics -----------------------------------------------------------------


def boundary_angle(x: BPoint) -> float:
    """Angle of the inverse stereographic image of p/q on the unit circle."""
    return 2.0 * math.atan2(x[0], x[1])


def skeleton_angle(x: CirclePointS) -> float:
    p, q = _plane_xy(x)
    return math.atan2(float(q), float(p))


def _gap_lengths(angles: list[float]) -> list[float]:
    angles = sorted(angles)
    gaps = [b - a for a, b in zip(angles, angles[1:])]
    gaps.append(2.0 * math.pi - (angles[-1] - angles[0]))
    return gaps


def partition_table(n: int, side: str,
                    bound: int = DEPTH_BOUND) -> list[tuple[int, float, float]]:
    """Rows (count, min, max) of the arc lengths between adjacent orbit points
    at depths k = 0..n, all read from one depth-n tower."""
    if side == "boundary":
        nets, act, angle = BOUNDARY_NETS, reflect_boundary, boundary_angle
    elif side == "skeleton":
        nets, act, angle = SKELETON_NETS, skeleton_direction_act, skeleton_angle
    else:
        raise UsageError(f"side must be 'boundary' or 'skeleton', got {side!r}")
    _check_depth(n, bound)
    angles = [angle(x) for x in _tower(nets, act, n)]
    rows = []
    for k in range(n + 1):
        gaps = _gap_lengths(angles[:3 << k])  # the depth-k orbit
        rows.append((3 << k, min(gaps), max(gaps)))
    return rows


def partition_stats(n: int, side: str, bound: int = DEPTH_BOUND) -> tuple[float, float]:
    """(min, max) arc length between adjacent orbit points at depth n."""
    return partition_table(n, side, bound)[-1][1:]


# -- order comparison ----------------------------------------------------------------


def _cyclic_match(seq_a: list, seq_b: list) -> bool:
    if len(seq_a) != len(seq_b):
        return False
    if not seq_a:
        return True
    doubled = seq_a + seq_a
    for candidate in (seq_b, seq_b[::-1]):
        first = candidate[0]
        for k in range(len(seq_a)):
            if doubled[k] == first and doubled[k:k + len(candidate)] == candidate:
                return True
    return False


def order_isomorphism_check(n: int, net_order: tuple[int, int, int] = (1, 2, 3),
                            bound: int = DEPTH_BOUND) -> bool:
    """Whether the label bijection between the two depth-n orbits is a
    cyclic-order isomorphism.  ``net_order`` permutes which skeleton net each
    boundary net is matched with; the identity is the faithful pairing."""
    _check_depth(n, bound)
    skel_nets = {i: SKELETON_NETS[net_order[i - 1]] for i in (1, 2, 3)}
    # Both towers list the labels in one order, so a position is a label.
    bnd = _tower(BOUNDARY_NETS, reflect_boundary, n)
    skl = _tower(skel_nets, skeleton_direction_act, n)
    if len(set(bnd)) != len(bnd) or len(set(skl)) != len(skl):
        return False
    seq_b = sorted(range(len(bnd)), key=lambda k: _boundary_cyclic_key(bnd[k]))
    seq_s = sorted(range(len(skl)), key=lambda k: _skeleton_key(skl[k]))
    return _cyclic_match(seq_b, seq_s)
