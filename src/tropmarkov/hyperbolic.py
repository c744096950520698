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
from functools import cmp_to_key
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


def _orbit_levels(nets: dict[int, object], act: Callable, n: int) -> list[set]:
    """Level sets of the partial orbits: new points reached at each word length."""
    seen = set(nets.values())
    levels = [set(nets.values())]
    for _ in range(n):
        fresh = set()
        for x in levels[-1]:
            for i in (1, 2, 3):
                y = act(i, x)
                if y not in seen:
                    fresh.add(y)
                    seen.add(y)
        levels.append(fresh)
    return levels


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
    levels = _orbit_levels(BOUNDARY_NETS, reflect_boundary, n)
    points = [x for level in levels for x in level]
    return sorted(points, key=_boundary_cyclic_key)


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


def _angular_cmp(u, v) -> int:
    up, uq = u
    vp, vq = v
    uh = 0 if (uq > 0 or (uq == 0 and up > 0)) else 1
    vh = 0 if (vq > 0 or (vq == 0 and vp > 0)) else 1
    if uh != vh:
        return -1 if uh < vh else 1
    cross = up * vq - uq * vp
    return 0 if cross == 0 else (-1 if cross > 0 else 1)


def _skeleton_sorted(points: Iterable[CirclePointS]) -> list[CirclePointS]:
    return sorted(points, key=cmp_to_key(lambda a, b: _angular_cmp(_plane_xy(a), _plane_xy(b))))


def partial_orbit_skeleton(n: int, bound: int = DEPTH_BOUND) -> list[CirclePointS]:
    """Orbit of the ray directions on the circle of directions of the fully
    degenerate skeleton, in circular order."""
    _check_depth(n, bound)
    levels = _orbit_levels(SKELETON_NETS, skeleton_direction_act, n)
    return _skeleton_sorted(x for level in levels for x in level)


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


def partition_stats(n: int, side: str, bound: int = DEPTH_BOUND) -> tuple[float, float]:
    """(min, max) arc length between adjacent orbit points at depth n."""
    if side == "boundary":
        angles = [boundary_angle(x) for x in partial_orbit_boundary(n, bound)]
    elif side == "skeleton":
        angles = [skeleton_angle(x) for x in partial_orbit_skeleton(n, bound)]
    else:
        raise UsageError(f"side must be 'boundary' or 'skeleton', got {side!r}")
    gaps = _gap_lengths(angles)
    return (min(gaps), max(gaps))


# -- order comparison ----------------------------------------------------------------


Label = tuple[int, tuple[int, ...]]


def _labels(n: int) -> list[Label]:
    """Canonical labels (net index, word in applied order) of the depth-n orbit.

    Words are reduced modulo the net's stabiliser: empty, or starting with the
    net's own reflection index.
    """
    out: list[Label] = [(i, ()) for i in (1, 2, 3)]
    frontier = out[:]
    for _ in range(n):
        fresh = []
        for i, word in frontier:
            last = word[-1] if word else None
            for g in (1, 2, 3):
                if word == () and g != i:
                    continue  # stabiliser letters act trivially on the net
                if g == last:
                    continue
                fresh.append((i, word + (g,)))
        out.extend(fresh)
        frontier = fresh
    return out


def _realise(label: Label, nets: dict[int, object], act: Callable):
    i, word = label
    x = nets[i]
    for g in word:
        x = act(g, x)
    return x


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
    labels = _labels(n)
    skel_nets = {i: SKELETON_NETS[net_order[i - 1]] for i in (1, 2, 3)}
    bnd = {lab: _realise(lab, BOUNDARY_NETS, reflect_boundary) for lab in labels}
    skl = {lab: _realise(lab, skel_nets, skeleton_direction_act) for lab in labels}
    if len(set(bnd.values())) != len(labels) or len(set(skl.values())) != len(labels):
        return False
    seq_b = sorted(labels, key=lambda lab: _boundary_cyclic_key(bnd[lab]))
    order_s = {pt: k for k, pt in enumerate(_skeleton_sorted(skl.values()))}
    seq_s = sorted(labels, key=lambda lab: order_s[skl[lab]])
    return _cyclic_match(seq_b, seq_s)
