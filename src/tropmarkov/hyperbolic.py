"""The (inf,inf,inf) reflection group on the boundary circle, and the finite
comparison with the degenerate skeleton's circle of directions.

Boundary points are projective coprime integer pairs (p, q) standing for
p/q in Q union {inf}; the three reflections act by

    r1: p/q -> (2q-p)/q,   r2: p/q -> p/(2p-q),   r3: p/q -> -p/q.

The nets 0, inf, 1 (for r1, r2, r3 respectively) generate the full rational
boundary under the group: the label of p/q is read off its continued fraction
along the Stern-Brocot path (`_colour_runs`, one run per partial quotient at any
height, which labels the Farey triangles too; a whole Farey listing, `_farey_listing`,
makes its word texts by refinement instead, one letter per triangle, each already in
the cell asked).  Each r_i has determinant -1, so the orbit stays coprime with no gcd
(`reflect_boundary`); `bpoint` works only at the API edges.  Each orbit level puts the
mediant (p + r)/(q + s) in each gap p/q, r/s, so `_orbit_cycle` is mediant refinement
of integer columns, and its half 0/1 .. 1/0 (`_orbit_half`) is the Farey line
(`_farey_line`).  The skeleton orbit, of the fully degenerate skeleton's boundary-ray
directions, is the image of the boundary orbit under `_phi`; `partial_orbit_skeleton`
and `skeleton_direction_act` alone return Fractions.

Two symmetries of the group fix the depth-n listings.  On the boundary circle,
r3 carries the even interior points of the half 0/1 .. 1/0 of the cycle (its
depth n-1 points) onto the rest of it.  On the skeleton circle, the cyclic
shift of coordinates (x1, x2, x3) -> (x3, x1, x2), which permutes the
generators, carries each third of the orbit onto the next.  So the listings
format one half, or one third, and print the rest from that text, and the
boundary arc table and angles take atan2 on the half alone (`_half_angles`):
the r3 images' angles are their negations, and their arcs the half's, mirrored.
The arc tables read each level in cycle order: _phi reverses the orientation,
so the skeleton angles negated ascend round the cycle, as the boundary angles do.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from fractions import Fraction
from itertools import chain, islice, repeat
from operator import add, neg, sub

from .errors import DomainError, UsageError, check_size
from .dynamics import Matrix2, Word, _cut_runs, mat_mul, trop_vieta
from .scalars import INF, _quotients
from .surface import Params, check_index

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


def reflect_boundary(i: int, x: BPoint) -> BPoint:
    """r_i on any projective pair, normalised; the index is checked.  x is normalised
    once and r_i has determinant -1, so its matrix image needs no gcd, only a sign fix."""
    check_index(i, "reflection")
    (r00, r01), (r10, r11) = _REFLECTION_MATRICES[i]
    p, q = bpoint(*x)
    return _signed(r00 * p + r01 * q, r10 * p + r11 * q)


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


def reduce_to_nets(x: BPoint) -> tuple[Word, BPoint]:
    """Word w and net n with w applied to n giving x, read off the continued fraction.

    The displayed word lists the reflections in the order they were applied
    to x (leftmost first), which is the reverse of their action order on n.
    0 and inf are nets; -p/q is r3 of p/q, and p/q > 0 is reached from the net of
    its parity colour along the colour path (`_colour_runs`), one run per partial
    quotient, so the cost grows with the number of partial quotients, not with the
    height, at every cusp.
    """
    p, q = bpoint(*x)
    if p == 0 or q == 0:
        return Word(), (p, q)
    runs = _colour_runs(abs(p), q)
    return Word._unchecked(_cut_runs([(3, 0, 1), *runs] if p < 0 else runs)), (p & 1, q & 1)


def _colour_runs(p: int, q: int) -> list[list[int]]:
    """The display-order runs [a, b, n], not maximal, of the label of p/q > 0: the
    Stern-Brocot path from 1/1 to p/q, one run per partial quotient t, the last taken
    minus one.  The path's triangles (lo, lo + hi, hi) start at (0/1, 1/1, 1/0); a step
    crosses one edge, read as the parity colour c(a, b) = 2(a & 1) + (b & 1) (a net's
    index: 0/1, 1/0 and 1/1 are 1, 2 and 3) of the vertex it leaves.  So t steps right
    give the colours of lo, lo + hi, lo + 2 hi, ..., and lo += t hi; t steps left are
    the mirror image, with lo and hi exchanged.  As c(lo + hi) = c(lo) ^ c(hi), only
    the colours of the bound that moves and of the other are kept."""
    terms = _quotients(p, q)
    terms[-1] -= 1
    runs = []
    moving, other = 1, 2  # lo, then hi: the quotients alternate right and left
    for t in terms:
        if t:
            runs.append([moving, moving ^ other, t])
        moving, other = other, moving ^ other if t & 1 else moving
    return runs


def _farey_runs(mid: BPoint) -> tuple[tuple[int, int, int], ...]:
    """The maximal display-order runs of the cell-1 word of the Farey triangle with this
    mediant (`classifier.farey_triangle`): s1, then the mediant's colour path with the
    letters 1 and 3 exchanged; tests check it against the V-monoid factorisation."""
    return _cut_runs([[1, 0, 1], *([4 - a, 4 - b, n] for a, b, n in _colour_runs(*mid))])


# -- partial orbits ----------------------------------------------------------------


def _orbit_half(n: int) -> list[int]:
    """The numerators of the depth-n cycle's line 0/1 .. 1/0: n rounds of mediant
    refinement of the column 0, 1, 1, each putting neighbour sums between.  Its
    denominators are the same column reversed.  The depth is checked first."""
    check_size(n, "orbit depth", 0, DEPTH_BOUND)
    column = [0, 1, 1]
    for _ in range(n):
        refined = column + column[1:]
        refined[::2], refined[1::2] = column, map(add, column, column[1:])
        column = refined
    return column


def _orbit_cycle(n: int) -> tuple[list[int], list[int]]:
    """Boundary orbit points of the labels of length <= n (a net and a reduced word
    modulo its stabiliser) in cyclic order from 0, as columns of numerators and
    denominators: the half 0/1 .. 1/0 (`_orbit_half`), then -p/q for its even
    interior points p/q, from inf back to 0 (criterion 7: each level puts one point
    in each gap).  The slice with step 2^(n-k) is the depth-k cycle."""
    p = _orbit_half(n)
    q = p[::-1]
    return p + list(map(neg, p[-3:1:-2])), q + q[-3:1:-2]  # inf back to 0, ends left out


def partial_orbit_boundary(n: int) -> list[BPoint]:
    """The 3 * 2^n distinct orbit points of the nets under words of length <= n,
    in circular order on the boundary circle, ending with inf: the r3 images -p/q
    of the even interior points of the half 0/1 .. 1/0, in reverse, then the half."""
    half = _farey_line(n)
    return [(-a, b) for a, b in half[-3:1:-2]] + half


def _farey_line(n: int) -> list[BPoint]:
    """The pairs of the half 0/1 .. 1/0 of the depth-n cycle, in order: n rounds of
    mediant refinement of the line (0, 1), (1, 1), (1, 0).  The depth is checked first."""
    p = _orbit_half(n)
    return list(zip(p, reversed(p)))


def _boundary_lines(n: int) -> Iterator[str]:
    """The listing lines "p,q\n" of `partial_orbit_boundary`, from the half 0/1 .. 1/0
    alone: its lines are p over the reversed p, each int made a string once, and the
    r3 images -p/q that open the listing are its even interior lines, in reverse,
    behind "-".  The depth is checked when this is called."""
    texts = [*map(str, _orbit_half(n))]
    half = [f"{p},{q}\n" for p, q in zip(texts, reversed(texts))]
    return chain(map("-".__add__, half[-3:1:-2]), half)


def _half_angles(n: int) -> list[float]:
    """atan2(p, q) of each point p/q of the half 0/1 .. 1/0 of the depth-n cycle, from
    0 up to pi/2.  The depth is checked first."""
    p = _orbit_half(n)
    return [*map(math.atan2, p, reversed(p))]


def _boundary_angles(n: int) -> list[float]:
    """The angle 2 atan2(p, q) of each point p/q of the depth-n cycle (`_orbit_cycle`),
    that of its inverse stereographic image on the unit circle: the half's, then for
    the r3 images -p/q their negations, as atan2 is odd in its first argument."""
    half = _half_angles(n)
    return [2.0 * a for a in chain(half, map(neg, half[-3:1:-2]))]


def _triangles(line: Sequence, n: int) -> Iterator[tuple]:
    """The root (positions 0, 2^n, 2^(n+1)) of a depth-n refined line, then level
    by level each new point with its two older neighbours, (older, new, older),
    made one at a time."""
    yield tuple(line[:(2 << n) + 1:1 << n])
    for k in range(n - 1, -1, -1):
        step = 2 << k  # the new points of this level sit halfway between
        yield from zip(line[::step], line[step >> 1::step], line[step::step])


def _farey_listing(n: int, cell: int) -> tuple[list[int], Iterator[tuple[tuple, tuple, str]]]:
    """The numerator column `_orbit_half(n)` of the depth-n Farey line (the denominators
    are it reversed), and its `_triangles` one at a time: numerators, denominators and the
    text of the cell-``cell`` word (`_farey_runs`, each letter g shifted to (g + cell - 2)
    % 3 + 1).  Triangle j of a level extends the text of triangle j >> 1 of the level
    before by one letter, from its new point's parity colour c = 2 (p & 1) + (q & 1):
    s(4 - c) in cell 1.  The depth is checked first."""
    p = _orbit_half(n)
    q = p[::-1]
    letter = [None, *(f" s{(cell - c + 2) % 3 + 1}" for c in (1, 2, 3))]  # by colour c

    def texts() -> Iterator[str]:
        words = [f"s{cell}"]
        for k in range(n - 1, -1, -1):
            yield from words
            pairs = zip(chain.from_iterable(zip(words, words)), p[1 << k::2 << k],
                        q[1 << k::2 << k])
            words = (w + letter[2 * (a & 1) + (b & 1)] for w, a, b in pairs)
            if k:  # a parent level is held; the deepest is made one text at a time
                words = list(words)
        yield from words
    return p, zip(_triangles(p, n), _triangles(q, n), texts())


CirclePointS = tuple[Fraction, Fraction, Fraction]
Direction = tuple[int, int, int]  # an integer vector on the ray; primitive in the orbit


# The fully degenerate parameters, whose skeleton's circle of directions this is.
_DEGENERATE = Params(INF, INF, INF, INF)


def _circle_point(n: Direction) -> CirclePointS:
    s = -(n[0] + n[1] + n[2])
    return (Fraction(n[0], s), Fraction(n[1], s), Fraction(n[2], s))


SKELETON_DIRECTIONS: dict[int, Direction] = {1: (0, -1, -1), 2: (-1, 0, -1), 3: (-1, -1, 0)}
SKELETON_NETS = {i: _circle_point(n) for i, n in SKELETON_DIRECTIONS.items()}


def _phi(x: BPoint) -> Direction:
    """The conjugacy -(|p|, q, |p - q|): coordinate i is -|det(b_i, x)| for the net b_i,
    which every r_j but r_i fixes, so r_i changes coordinate i alone, as on the skeleton."""
    p, q = x
    return (-abs(p), -q, -abs(p - q))


def skeleton_direction_act(i: int, x: CirclePointS) -> CirclePointS:
    """r_i on any rational triple, scaled to an integer one n (r_i is positively
    homogeneous), by `trop_vieta` at (inf, inf, inf, inf): n_i becomes 2 min(n_j, n_k)
    - n_i, an integer involution of determinant -1 on each piece, so no gcd is needed."""
    d = math.lcm(*(c.denominator for c in x))
    m = trop_vieta(_DEGENERATE, i, tuple(c.numerator * (d // c.denominator) for c in x))
    if sum(m) >= 0:
        raise DomainError(f"{m} does not generate a skeleton direction")
    return _circle_point(m)


def _skeleton_columns(n: int) -> tuple[list[int], list[int]]:
    """The boundary pairs whose _phi images are the depth-n skeleton orbit from angle 0,
    as columns: _phi reverses the boundary cycle, read back from 1/3 (0 at n <= 1)."""
    p, q = _orbit_cycle(n)
    cut = (1 << n) >> 2
    return p[cut::-1] + p[:cut:-1], q[cut::-1] + q[:cut:-1]


def _skeleton_text(p: int, q: int) -> str:
    """The listing text "x1,x2,x3" of _circle_point(_phi((p, q))) for a coprime pair:
    -(a, q, c) / 2m with a = |p|, c = |p - q|, m their largest, and any other prime
    to m, so each is 0, -1/2, -(x/2)/m or -x/2m with no gcd; no abs or max calls."""
    a = -p if p < 0 else p
    c = q - p if p < q else p - q
    m = a if a > q else q
    if c > m:
        m = c
    x1 = "0" if not a else "-1/2" if a == m else f"-{a >> 1}/{m}" if a & 1 == 0 else f"-{a}/{2 * m}"
    x2 = "0" if not q else "-1/2" if q == m else f"-{q >> 1}/{m}" if q & 1 == 0 else f"-{q}/{2 * m}"
    x3 = "0" if not c else "-1/2" if c == m else f"-{c >> 1}/{m}" if c & 1 == 0 else f"-{c}/{2 * m}"
    return f"{x1},{x2},{x3}"


def _skeleton_lines(n: int) -> Iterator[str]:
    """The listing lines "x1,x2,x3\n" of `partial_orbit_skeleton`, from its first third.
    The shift (x1, x2, x3) -> (x3, x1, x2) permutes the nets, so it carries each third
    of the orbit onto the next: the first third's texts are made once, and the other
    two print them with the last field, then the last two, moved to the front.  The
    depth is checked when this is called."""
    p, q = (column[:1 << n] for column in _skeleton_columns(n))
    first = [*map(_skeleton_text, p, q)]
    return chain((f"{x}\n" for x in first),
                 (f"{x3},{x12}\n" for x12, _, x3 in map(str.rpartition, first, repeat(","))),
                 (f"{x23},{x1}\n" for x1, _, x23 in map(str.partition, first, repeat(","))))


def partial_orbit_skeleton(n: int) -> list[CirclePointS]:
    """Orbit of the ray directions on the circle of directions of the fully
    degenerate skeleton, in circular order from angle 0."""
    return [_circle_point(_phi(x)) for x in zip(*_skeleton_columns(n))]


# -- arc statistics -----------------------------------------------------------------


def _skeleton_plane(p: int, q: int) -> tuple[int, int, int]:
    """The plane image (x1 - x2, x1 + x2 - 2 x3) of the direction _phi((p, q)), and
    the sum s of its negated coordinates: with a = |p| and c = |p - q|, the image
    is (q - a, 2c - a - q) and s = a + q + c.  Its angle atan2(y / s, x / s) takes
    one rounding per quotient, so it is that of the circle point too."""
    a = -p if p < 0 else p
    c = q - p if p < q else p - q
    return q - a, 2 * c - a - q, a + q + c


def partition_table(n: int, side: str) -> list[tuple[int, float, float]]:
    """Rows (count, min, max) of the arc lengths between adjacent orbit points at
    depths k = 0..n, from one depth-n build, each level read in cycle order: the
    boundary angles, and the skeleton ones negated, ascend round it save one step
    down, the seam, whose arc is that step plus 2 pi; on the skeleton it is the
    least step.  On the boundary it is the step on from 1/0, and r3 gives the other
    arcs from the half 0/1 .. 1/0 (`_half_angles`, atan2, so each row is doubled at
    the end): the level-k half's, and the level-(k - 1) half's but its last,
    mirrored, carried from the level before.  They are the whole cycle's, bit for
    bit: atan2 is odd in its first argument, negation and doubling are exact."""
    if side == "boundary":
        half = _half_angles(n)
        rows = []
        before = (math.inf, -math.inf)  # least and largest arc but the last, of the half before
        for k in range(n + 1):
            level = half[::1 << (n - k)] if k < n else half  # the level-k half
            arcs = list(map(sub, islice(level, 1, None), level))
            last = arcs.pop()
            least, most = min(arcs), max(arcs)
            # The seam: 1/0 on to the r3 image of the point before it in the level
            # before's half (0/1 at k = 0), plus 2 pi.
            seam = 2.0 * (-half[-1 - (2 << (n - k))] - half[-1]) + 2.0 * math.pi
            rows.append((3 << k, min(2.0 * min(least, last, before[0]), seam),
                         max(2.0 * max(most, last, before[1]), seam)))
            before = least, most
        return rows
    if side != "skeleton":
        raise UsageError(f"side must be 'boundary' or 'skeleton', got {side!r}")
    angles = [-math.atan2(y / s, x / s) for x, y, s in map(_skeleton_plane, *_orbit_cycle(n))]
    rows = []
    for k in range(n + 1):
        level = angles[::1 << (n - k)] if k < n else angles  # the depth-k cycle
        gaps = list(map(sub, islice(level, 1, None), level))
        gaps.append(level[0] - level[-1])
        gaps[gaps.index(min(gaps))] += 2.0 * math.pi
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


def order_isomorphism_check(n: int) -> bool:
    """Whether the label bijection between the two depth-n orbits, each boundary
    net matched with the skeleton net of its index, is a cyclic-order isomorphism."""
    # The boundary cycle ascends; at label (i, w) sits w s_i = _phi(w b_i).  Each
    # plane image (x, y) is led by whether its angle lies in [0, pi).
    skl = [(y > 0 or (y == 0 and x > 0), x, y)
           for x, y, _ in map(_skeleton_plane, *_orbit_cycle(n))]
    # Strict cyclic order: exactly one step is not an ascent (or, reversed, not a
    # descent); ties count both ways, so a repeated point fails.
    steps_s = [_angle_step(u, v) for u, v in zip(skl, skl[1:] + skl[:1])]
    return 1 in (sum(t <= 0 for t in steps_s), sum(t >= 0 for t in steps_s))
