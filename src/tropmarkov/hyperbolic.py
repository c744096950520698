"""The (inf,inf,inf) reflection group on the boundary circle, and the finite
comparison with the degenerate skeleton's circle of directions.

Boundary points are projective coprime integer pairs (p, q) standing for
p/q in Q union {inf}; the three reflections act by

    r1: p/q -> (2q-p)/q,   r2: p/q -> p/(2p-q),   r3: p/q -> -p/q.

The nets 0, inf, 1 (for r1, r2, r3 respectively) generate the full rational
boundary under the group, by strict height descent.  Each r_i has determinant
-1, so the orbit stays coprime with no gcd (`_boundary_act`); `bpoint` works
only at the API edges.  Each orbit level puts the mediant (p + r)/(q + s) in
each gap p/q, r/s, so `_orbit_cycle` is mediant refinement of integer columns;
the parity colour (p mod 2, q mod 2), which every r_i keeps, names a point's net
(`_colour`).  The skeleton orbit, of the fully degenerate skeleton's boundary-ray
directions, is the image of the boundary orbit under `_phi`;
`partial_orbit_skeleton` and `skeleton_direction_act` alone return Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, neg, sub

from .errors import DomainError, ResourceError, UsageError
from .dynamics import Matrix2, Word, mat_mul, trop_vieta
from .scalars import INF
from .surface import Params

BPoint = tuple[int, int]

DEPTH_BOUND = 16


def bpoint(p: int, q: int) -> BPoint:
    """Normalised projective pair: coprime, q >= 0, and (1, 0) for infinity."""
    if p == 0 and q == 0:
        raise UsageError("(0, 0) is not a projective point")
    g = math.gcd(abs(p), abs(q))
    return _signed(p // g, q // g)


def _signed(p: int, q: int) -> BPoint:
    """The sign of a nonzero pair fixed: q > 0, or (1, 0) for infinity."""
    return (p, q) if q > 0 or (q == 0 and p > 0) else (-p, -q)


# r1, r2, r3 as integer matrices on the column (p, q).  A product of two of
# them has trace +-2 and determinant 1, so it is +-(I + N) with N^2 = 0, and
# its k-th power is +-(I + kN).
_REFLECTION_MATRICES: dict[int, Matrix2] = {
    1: ((-1, 2), (0, 1)), 2: ((1, 0), (2, -1)), 3: ((-1, 0), (0, 1))}


def _boundary_act(i: int, x: BPoint) -> BPoint:
    """r_i (i in 1, 2, 3) on a normalised pair by its matrix, with no gcd: r_i has
    determinant -1, so the image stays coprime and needs at most a sign fix."""
    (r00, r01), (r10, r11) = _REFLECTION_MATRICES[i]
    p, q = x
    return _signed(r00 * p + r01 * q, r10 * p + r11 * q)


def reflect_boundary(i: int, x: BPoint) -> BPoint:
    """r_i on any projective pair, normalised; the index is checked."""
    if i not in (1, 2, 3):
        raise UsageError(f"reflection index must be 1, 2 or 3, got {i}")
    return _boundary_act(i, bpoint(*x))


def _pair_nilpotent(a: int, b: int) -> Matrix2:
    """N with r_b r_a (r_a acting first) equal to +-(I + N)."""
    (m00, m01), (m10, m11) = mat_mul(_REFLECTION_MATRICES[b], _REFLECTION_MATRICES[a])
    s = 1 if m00 + m11 == 2 else -1
    return ((s * m00 - 1, s * m01), (s * m10, s * m11 - 1))


_PAIR_NILPOTENTS = {(a, b): _pair_nilpotent(a, b)
                    for a in (1, 2, 3) for b in (1, 2, 3) if a != b}


def apply_reflection_word(word: Word, x: BPoint) -> BPoint:
    """The word applied to a projective pair, normalised, one step per run.

    A run applies r_a, r_b, r_a, ...: its k pairs act as I + kN and an odd
    run ends with one more r_a.  The signs the pairs drop leave the
    projective point unchanged and are fixed once, at the end.
    """
    p, q = bpoint(*x)
    for i, j, n in reversed(word.runs):
        a, b = (i, j) if n % 2 else (j, i)  # r_a acts first
        k = n // 2
        if k:
            (n00, n01), (n10, n11) = _PAIR_NILPOTENTS[a, b]
            p, q = p + k * (n00 * p + n01 * q), q + k * (n10 * p + n11 * q)
        if n % 2:
            (r00, r01), (r10, r11) = _REFLECTION_MATRICES[a]
            p, q = r00 * p + r01 * q, r10 * p + r11 * q
    return _signed(p, q)


def height(x: BPoint) -> int:
    return max(abs(x[0]), abs(x[1]))


def reduce_to_nets(x: BPoint) -> tuple[Word, BPoint]:
    """Word w and net n with w applied to n giving x, by strict height descent.

    The displayed word lists the reflections in the order they were applied
    to x (leftmost first), which is the reverse of their action order on n.
    Each run of one move, z -> z - 2 or z + 2 in the chart z or 1/z (one
    partial quotient of x), is taken in one jump, so the cost grows with
    the number of partial quotients, not with the height.
    """
    cur = bpoint(*x)
    runs: list[list[int]] = []  # display order, [a, b, n] the letters a, b, a, ...
    while cur[1] != 0 and cur not in ((0, 1), (1, 1)):
        p, q = cur
        if cur == (-1, 1):
            move, cur = [3, 0, 1], (1, 1)  # -1 -> 1, a net
        elif abs(p) > q:
            # z -> z - 2 (r1 then r3) or z + 2 (r3 then r1) while |z| > 1
            k = (abs(p) + q - 1) // (2 * q)
            move = [1, 3, 2 * k] if p > 0 else [3, 1, 2 * k]
            cur = (p - 2 * k * q if p > 0 else p + 2 * k * q, q)
        else:
            # 1/z -> 1/z - 2 (r2 then r3) or 1/z + 2 (r3 then r2) while |z| < 1
            k = (q + abs(p) - 1) // (2 * abs(p))
            move = [2, 3, 2 * k] if p > 0 else [3, 2, 2 * k]
            cur = _signed(p, q - 2 * k * abs(p))
        while runs and move[2] and _last_letter(runs) == move[0]:
            _drop_last(runs)  # s_i s_i cancels
            move = [move[1], move[0], move[2] - 1]
        if move[2]:
            runs.append(move)
    stab = {i for i in (1, 2, 3) if reflect_boundary(i, cur) == cur}
    while runs and _last_letter(runs) in stab:
        _drop_last(runs)  # the first letter applied to the net acts trivially
    return Word.from_runs(runs), cur


def _last_letter(runs: list[list[int]]) -> int:
    a, b, n = runs[-1]
    return a if n % 2 else b


def _drop_last(runs: list[list[int]]) -> None:
    runs[-1][2] -= 1
    if not runs[-1][2]:
        runs.pop()


# -- partial orbits ----------------------------------------------------------------


def _refine(column: list[int], n: int) -> list[int]:
    """n rounds of mediant refinement of a column: each puts neighbour sums between."""
    for _ in range(n):
        refined = column + column[1:]
        refined[::2], refined[1::2] = column, map(add, column, column[1:])
        column = refined
    return column


def _orbit_cycle(n: int) -> tuple[list[int], list[int]]:
    """Boundary orbit points of the labels of length <= n (a net and a reduced
    word modulo the net's stabiliser) in cyclic order from 0, as the columns of
    numerators and denominators.  Each level puts one point in each gap
    (criterion 7), the mediant of its older neighbours, so the cycle is n rounds
    of mediant refinement of the lines 0/1, 1/1, 1/0 and -1/0, 0/1.  Only one
    column is refined: z -> 1/z reverses the first line, and z -> -z maps every
    other point of it onto the second.  The slice with step 2^(n-k) is the
    depth-k cycle.  The depth is checked against DEPTH_BOUND first."""
    _check_depth(n)
    p = _refine([0, 1, 1], n)
    q = p[::-1]
    return p + list(map(neg, p[-3:1:-2])), q + q[-3:1:-2]  # inf back to 0, ends left out


def _check_depth(n: int):
    if n < 0:
        raise UsageError("orbit depth must be nonnegative")
    if n > DEPTH_BOUND:
        raise ResourceError(f"orbit depth {n} exceeds the configured bound {DEPTH_BOUND}")


def partial_orbit_boundary(n: int) -> list[BPoint]:
    """The 3 * 2^n distinct orbit points of the nets under words of length <= n,
    in circular order on the boundary circle, ending with inf."""
    cycle = list(zip(*_orbit_cycle(n)))
    cut = (2 << n) + 1  # just after inf, the third net
    return cycle[cut:] + cycle[:cut]


def _triangles(line: list[BPoint], n: int) -> list[tuple[BPoint, BPoint, BPoint]]:
    """The root (positions 0, 2^n, 2^(n+1)) of a depth-n refined line, then level
    by level each new point with its two older neighbours, (older, new, older)."""
    triangles = [tuple(line[:(2 << n) + 1:1 << n])]
    for k in range(n - 1, -1, -1):
        step = 2 << k  # the new points of this level sit halfway between
        triangles += zip(line[::step], line[step >> 1::step], line[step::step])
    return triangles


CirclePointS = tuple[Fraction, Fraction, Fraction]
Direction = tuple[int, int, int]  # an integer vector on the ray; primitive in the orbit


# The fully degenerate parameters, whose skeleton's circle of directions this is.
_DEGENERATE = Params(INF, INF, INF, INF)


def _direction_act(i: int, n: Direction) -> Direction:
    """r_i on an integer direction: `trop_vieta` at (inf, inf, inf, inf), where n_i
    becomes 2 min(n_j, n_k) - n_i, an integer involution of determinant -1 on
    each piece, so no gcd is needed."""
    m = trop_vieta(_DEGENERATE, i, n)
    if sum(m) >= 0:
        raise DomainError(f"{m} does not generate a skeleton direction")
    return m


def _circle_point(n: Direction) -> CirclePointS:
    s = -(n[0] + n[1] + n[2])
    return (Fraction(n[0], s), Fraction(n[1], s), Fraction(n[2], s))


def _skeleton_text(n: Direction) -> tuple[str, str, str]:
    """The coordinates of _circle_point(n) as str prints them, for n = _phi(x) of a coprime
    pair: the sum is -2M, M = max |n_i|, and any other n_i is prime to M, so no gcd."""
    m = -min(n)
    return tuple(["0" if not c else "-1/2" if c == -m else f"{c // 2}/{m}" if c % 2 == 0
                  else f"{c}/{2 * m}" for c in n])


SKELETON_DIRECTIONS: dict[int, Direction] = {1: (0, -1, -1), 2: (-1, 0, -1), 3: (-1, -1, 0)}
SKELETON_NETS = {i: _circle_point(n) for i, n in SKELETON_DIRECTIONS.items()}


def _phi(x: BPoint) -> Direction:
    """The conjugacy -(|p|, q, |p - q|): coordinate i is -|det(b_i, x)| for the net b_i,
    which every r_j but r_i fixes, so r_i changes coordinate i alone, as on the skeleton."""
    p, q = x
    return (-abs(p), -q, -abs(p - q))


def skeleton_direction_act(i: int, x: CirclePointS) -> CirclePointS:
    """r_i on any rational triple, scaled to an integer one (r_i is positively homogeneous)."""
    d = math.lcm(*(c.denominator for c in x))
    return _circle_point(_direction_act(i, tuple(c.numerator * (d // c.denominator) for c in x)))


def _plane_xy(x: CirclePointS | Direction) -> tuple:
    return (x[0] - x[1], x[0] + x[1] - 2 * x[2])


def _plane_vector(n: Direction) -> tuple[bool, int, int]:
    """Whether the plane image of n has its angle in [0, pi), and that image."""
    p, q = _plane_xy(n)
    return (q > 0 or (q == 0 and p > 0), p, q)


def _skeleton_cycle(n: int) -> list[Direction]:
    """The depth-n skeleton orbit as integer directions, in circular order from
    angle 0: _phi reverses the boundary cycle, read back from 1/3 (0 at n <= 1)."""
    cycle = list(zip(*_orbit_cycle(n)))
    cut = (1 << n) >> 2
    return [_phi(x) for x in cycle[cut::-1] + cycle[:cut:-1]]


def partial_orbit_skeleton(n: int) -> list[CirclePointS]:
    """Orbit of the ray directions on the circle of directions of the fully
    degenerate skeleton, in circular order from angle 0."""
    cycle = _skeleton_cycle(n)
    for k, x in enumerate(cycle):
        cycle[k] = _circle_point(x)  # frees each integer direction as it goes
    return cycle


# -- arc statistics -----------------------------------------------------------------


def skeleton_angle(x: CirclePointS | Direction) -> float:
    """Angle of the plane image; one rounding, so a direction and its circle point agree."""
    s = -(x[0] + x[1] + x[2])
    p, q = _plane_xy(x)
    return math.atan2(q / s, p / s)


def partition_table(n: int, side: str) -> list[tuple[int, float, float]]:
    """Rows (count, min, max) of the arc lengths between adjacent orbit points
    at depths k = 0..n, all read from one depth-n orbit cycle."""
    if side == "boundary":  # p/q at angle 2 atan2(p, q), its inverse stereographic image
        angles = [2.0 * a for a in map(math.atan2, *_orbit_cycle(n))]
    elif side == "skeleton":
        angles = [skeleton_angle(_phi(x)) for x in zip(*_orbit_cycle(n))]
    else:
        raise UsageError(f"side must be 'boundary' or 'skeleton', got {side!r}")
    rows = []
    for k in range(n + 1):
        level = sorted(angles[::1 << (n - k)])  # the depth-k orbit
        gaps = list(map(sub, level[1:], level))
        gaps.append(2.0 * math.pi - (level[-1] - level[0]))
        rows.append((3 << k, min(gaps), max(gaps)))
    return rows


def partition_stats(n: int, side: str) -> tuple[float, float]:
    """(min, max) arc length between adjacent orbit points at depth n."""
    return partition_table(n, side)[-1][1:]


# -- order comparison ----------------------------------------------------------------


def _angle_step(u: tuple[bool, int, int], v: tuple[bool, int, int]) -> int:
    """A number with the sign of angle(v) - angle(u), angles taken in [0, 2pi)."""
    if u[0] != v[0]:
        return u[0] - v[0]
    return u[1] * v[2] - u[2] * v[1]


def order_isomorphism_check(n: int, net_order: tuple[int, int, int] = (1, 2, 3)) -> bool:
    """Whether the label bijection between the two depth-n orbits is a
    cyclic-order isomorphism.  ``net_order`` permutes which skeleton net each
    boundary net is matched with; the identity is the faithful pairing, and a
    repeated net is allowed (it repeats points, so the check fails)."""
    net_order = tuple(net_order)
    if len(net_order) != 3 or not set(net_order) <= {1, 2, 3}:
        raise UsageError(f"net_order must be three net indices from 1, 2, 3, got {net_order}")
    # The boundary cycle ascends; at label (i, w) sits w s_j = _phi(w b_j), j = net_order[i].
    cycle = list(zip(*_orbit_cycle(n)))
    moved = cycle if net_order == (1, 2, 3) else _relabel(cycle, n, net_order)
    skl = [_plane_vector(_phi(x)) for x in moved]
    # Strict cyclic order: exactly one step is not an ascent (or, reversed, not a
    # descent); ties count both ways, so a repeated point fails.
    steps_s = [_angle_step(u, v) for u, v in zip(skl, skl[1:] + skl[:1])]
    return 1 in (sum(t <= 0 for t in steps_s), sum(t >= 0 for t in steps_s))


def _colour(x: BPoint) -> int:
    """The net i of the parity colour of x: (0, 1), (1, 0), (1, 1) give 1, 2, 3."""
    return 2 * (x[0] & 1) + (x[1] & 1)


def _relabel(cycle: list[BPoint], n: int, net_order) -> list[BPoint]:
    """w b_j, j = net_order[i], at the position of each label (i, w): w carries
    (0, 1, inf) onto the point's creation triangle, the point and its two older
    neighbours (the root for a net), so w b_j is that triangle's vertex coloured j."""
    closed, top, moved = cycle + cycle[:1], 1 << n, []
    for j, x in enumerate(cycle):
        s = j & -j if j % top else 0  # the point is new at depth n - log2(s)
        triangle = (closed[j - s], x, closed[j + s]) if s else cycle[::top]
        moved.append(next(y for y in triangle if _colour(y) == net_order[_colour(x) - 1]))
    return moved
