"""Tropicalized Vieta involutions and the greedy reduction.

Generators s1, s2, s3 act on R^3 by

    trop(s1)(x) = (min(2x2, 2x3, b+x2, c+x3, d) - x1, x2, x3)

and cyclic variants.  Words apply right-to-left: "s1 s2 s3" applies s3 first.
On a quadratic cell C(X_i^2) the difference coordinates
u^i = (x_{i+1} - x_i, x_{i-1} - x_i) turn the dynamics into the subtractive
Euclidean step euc on the first quadrant.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction

from .errors import DomainError, ResourceError, UsageError, bound_error
from .scalars import ExtRat, thomae_gcd, value_class
from .surface import (
    CELL_ORDER,
    CellId,
    Params,
    Point3,
    _cell_slots,
    _finite_values,
    _monomials,
    _on_lattice,
    check_index,
    check_size,
    nxt,
    point_text,
    prv,
)

UVec = tuple[Fraction, Fraction]
Matrix2 = tuple[tuple[int, int], tuple[int, int]]
Run = tuple[int, int, int]

# Most reflections greedy_path applies; it raises ResourceError before the
# next one.  A rational point's itinerary ends within the sum of the
# continued-fraction terms of its slope, at most numerator + denominator, and
# the word it returns is that long.
STEP_BOUND = 2**20


def _extend(runs: list[list[int]], a: int, b: int, t: int, check: bool = True) -> None:
    """Append the t >= 1 letters a, b, a, ... (b read only if t > 1) to ``runs``, a word
    in applied order as maximal alternating runs [a, b, n], each the n letters a, b,
    a, ... in the order they act, cut greedily from the first letter applied.  A letter
    extends the last run when it repeats the letter two back, and a lone letter
    [g, 0, 1] takes any next letter.  If a extends the last run, all t letters do when
    b is then two back; the rest open one run.  O(1), whatever t.  With ``check`` (off
    for the library's own letters), a and b must be letters and the word stay reduced."""
    x, y, n = run = runs[-1] if runs else [0, 0, 0]  # no run: no letter to follow
    last, before = (x, y) if n % 2 else (y, x)
    if check:
        check_index(a)
        if t > 1:
            check_index(b)
        if a == last or t > 1 and b == a:
            raise UsageError(f"word is not reduced: s{a} follows s{a}")
    if n == 1 or a == before:
        if n == 1:
            run[1] = a
        if t == 1 or b == last:
            run[2] = n + t
            return
        run[2] = n + 1
        a, b, t = b, a, t - 1
    runs.append([a, b, t] if t > 1 else [a, 0, 1])


def _display(runs: list[list[int]]) -> tuple[Run, ...]:
    """Applied-order runs as display-order runs: the last run first, each reversed."""
    return tuple((a, b, n) if n % 2 else (b, a, n) for a, b, n in reversed(runs))


def _cut_runs(runs: Sequence[Run], check: bool = False) -> tuple[Run, ...]:
    """The maximal runs of display-order runs (i, j, n): one `_extend` each, checked if asked."""
    applied: list[list[int]] = []
    for i, j, n in reversed(runs):
        _extend(applied, i if n % 2 else j, j if n % 2 else i, n, check)
    return _display(applied)


@value_class
class Word:
    """A reduced word over s1, s2, s3, applied right-to-left.

    Display order puts the letter that acts last on the left: "s3 s2 s1"
    applies s1 first.  The word is stored as its maximal alternating runs:
    ``runs`` lists (i, j, n) in display order, each the n letters i, j, i, ...
    read left to right, cut greedily from the rightmost letter.  So two
    Words with the same letters have the same runs, and only the leftmost
    run can be a lone letter, written (i, 0, 1).  Length and the first-applied
    letter take one step per run; ``letters`` and printing expand at most
    STEP_BOUND letters.
    """

    runs: tuple[Run, ...]

    def __init__(self, letters: Iterable[int] = ()):
        object.__setattr__(self, "runs", _cut_runs([(g, 0, 1) for g in letters], check=True))

    @classmethod
    def from_runs(cls, runs: Iterable[Run]) -> "Word":
        """The word of the display-order runs (i, j, n), each the n >= 1
        letters i, j, i, ...; the runs need not be maximal, and j of a lone
        letter may be 0.  One step per run: each is checked, then `_cut_runs` with its checks."""
        runs = tuple(runs)
        for i, j, n in runs:
            if not (type(n) is int and n >= 1 and j != i and j in (0, 1, 2, 3)):
                raise UsageError(f"run {(i, j, n)} is not n >= 1 alternating letters i, j")
        return cls._unchecked(_cut_runs(runs, check=True))

    @classmethod
    def reduce(cls, letters: Iterable[int]) -> "Word":
        """Build a word, cancelling adjacent equal letters (each s_i is an involution)."""
        stack: list[int] = []
        for g in letters:
            check_index(g)
            if stack and stack[-1] == g:
                stack.pop()
            else:
                stack.append(g)
        return cls(tuple(stack))

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Whitespace-separated generators, each 1, 2 or 3 after at most one
        s or r prefix (any case): "s1 S2 r3 1"."""
        letters = []
        for token in text.split():
            tok = token.lower()
            if tok[:1] in ("s", "r"):
                tok = tok[1:]
            if tok not in ("1", "2", "3"):
                raise UsageError(f"cannot parse generator {token!r}")
            letters.append(int(tok))
        return cls.reduce(letters)

    @property
    def letters(self) -> tuple[int, ...]:
        """Generator indices in display order, one per reflection."""
        out: list[int] = []
        for i, j, n in self._expandable():
            out += (i, j) * (n // 2) + (i,) * (n % 2)
        return tuple(out)

    @property
    def is_identity(self) -> bool:
        return not self.runs

    @property
    def first_applied(self) -> int:
        """The rightmost letter, which acts first."""
        if not self.runs:
            raise UsageError("the identity word applies no generator")
        i, j, n = self.runs[-1]
        return i if n % 2 else j

    def applied_order(self) -> Iterator[int]:
        """Generator indices in the order they act (rightmost first)."""
        return reversed(self.letters)

    @property
    def length(self) -> int:
        """The number of letters, with no 2^63 limit."""
        return sum(n for _, _, n in self.runs)

    def _expandable(self) -> tuple[Run, ...]:
        """The runs; past STEP_BOUND letters, the longest greedy word, ResourceError."""
        if self.length > STEP_BOUND:
            raise bound_error("word length", self.length, STEP_BOUND)
        return self.runs

    def __len__(self):
        """The number of letters; ResourceError past sys.maxsize, which len() cannot return."""
        n = self.length
        if n > sys.maxsize:
            raise bound_error("word length", n, sys.maxsize)
        return n

    def __str__(self):
        return _runs_text(self._expandable())


def _runs_text(runs: Iterable[Run]) -> str:
    """The text "s1 s2 ..." of display-order runs, maximal or not: one repetition per run."""
    return "".join(f"s{i} s{j} " * (n // 2) + (f"s{i} " if n % 2 else "") for i, j, n in runs)[:-1]


def _reflect(values: list, coeffs, i: int, x: Point3) -> tuple[Point3, list]:
    """The image y of x under s_i and the seven `_monomials` at y, from the seven
    ``values`` at x; coeffs are `_finite_values(params)`.  y_i is the min of the
    slots free of x_i (all but i - 1 and i + 2) minus x_i, and only those two
    slots change: 2 y_i, and the parameter's monomial (None where it is +inf)."""
    y = min([v for k, v in enumerate(values) if v is not None and k != i - 1 and k != i + 2]
            ) - x[i - 1]
    e = coeffs[i - 1]
    values = values.copy()
    values[i - 1], values[i + 2] = 2 * y, e if e is None else e + y
    return (*x[:i - 1], y, *x[i:]), values


def trop_vieta(params: Params, i: int, x: Point3) -> Point3:
    """Apply the i-th tropicalized involution.  Total on R^3; involutive.

    One `_monomials` evaluation at x, then `_reflect`.  `greedy_path` and
    `apply_word` carry the monomials from point to point, so they never call this.
    """
    check_index(i)
    finite = _finite_values(params)
    return _reflect(_monomials(finite, x), finite, i, x)[0]


def apply_word(params: Params, word: Word, x: Point3) -> Point3:
    """One reflection per letter; past STEP_BOUND letters ResourceError, before the first."""
    finite = _finite_values(params)
    values = _monomials(finite, x)
    for g in word.applied_order():
        x, values = _reflect(values, finite, g, x)
    return x


# -- difference coordinates on quadratic cells ----------------------------------


def u_coords(i: int, x: Point3) -> UVec:
    """u^i = (x_{i+1} - x_i, x_{i-1} - x_i); defined on the cell C(X_i^2)."""
    check_index(i)
    xi = x[i - 1]
    u1, u2 = x[nxt(i) - 1] - xi, x[prv(i) - 1] - xi
    if u1 < 0 or u2 < 0:
        raise DomainError(
            f"point {point_text(x)} is outside the quadratic cell {i}: u = ({u1},{u2})")
    return (u1, u2)


def u_inverse(i: int, u: UVec) -> Point3:
    """Inverse of u_coords on C(X_i^2); e.g. for i=3 this is (-u2, -u1, -u1-u2)."""
    check_index(i)
    u1, u2 = Fraction(u[0]), Fraction(u[1])
    if u1 < 0 or u2 < 0:
        raise DomainError(f"u-coordinates must be nonnegative, got ({u1},{u2})")
    out = [Fraction(0)] * 3
    out[i - 1] = -u1 - u2
    out[nxt(i) - 1] = -u2
    out[prv(i) - 1] = -u1
    return (out[0], out[1], out[2])


def euc(u: UVec) -> UVec:
    """One subtractive Euclidean step on the first quadrant."""
    u1, u2 = Fraction(u[0]), Fraction(u[1])
    if u1 < 0 or u2 < 0:
        raise DomainError(f"euc requires a first-quadrant input, got ({u1},{u2})")
    if u1 > u2:
        return (u2, u1 - u2)
    return (u2 - u1, u1)


def sk_norm(x: Point3) -> Fraction:
    """One-norm |x1|+|x2|+|x3|; on the skeleton this equals -(x1+x2+x3)."""
    return abs(x[0]) + abs(x[1]) + abs(x[2])


def transit_matrix(delta: int) -> Matrix2:
    """u-coordinate transition of a step to the next (+1) or previous (-1) cell."""
    if delta == 1:
        return ((1, 1), (1, 0))
    if delta == -1:
        return ((0, 1), (1, 1))
    raise UsageError(f"delta must be +1 or -1, got {delta}")


def mat_mul(a: Matrix2, b: Matrix2) -> Matrix2:
    """Product a*b of 2x2 integer matrices."""
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


# -- greedy reduction ------------------------------------------------------------


@value_class
class GreedyTrace:
    """Outcome of the greedy reflection itinerary started at ``start``.

    kind is "subquadratic" (stopped inside a subquadratic cell), "ray"
    (stopped on a quadratic-quadratic intersection) or "exhausted" (an
    explicit step budget ran out).  ``word`` applied to ``start`` reproduces
    ``terminal``.
    """

    start: Point3
    word: Word
    terminal: Point3
    kind: str
    cell: CellId | None = None
    ray_index: int | None = None
    steps: int = 0


def _run_point(x: Point3, i: int, j: int, t: int) -> Point3:
    """The point t steps into the alternating run i, j, i, ... from x.

    The third coordinate x_l stays fixed and each reflection adds -2 x_l to
    the coordinate it reflects: x_i gains ceil(t/2) such steps, x_j floor(t/2).
    """
    delta = -2 * x[5 - i - j]
    y = list(x)
    y[i - 1] += delta * ((t + 1) // 2)
    y[j - 1] += delta * (t // 2)
    return (y[0], y[1], y[2])


def _run_length(coeffs: list[int | None], scale: int, x: Point3, i: int, j: int, cap: int) -> int:
    """Number of reflections i, j, i, ... the step loop takes from x, at most cap.

    x is interior to the quadratic cell i and on (1/L)Z^3, L = ``scale``, which
    reflections (double, add a parameter, take a min, subtract) and runs never
    leave; coeffs are the parameters times L.  The loop reflects at the t-th
    run point exactly while it is interior to its expected cell (i for even t,
    j for odd t), landing on the next one if that is interior too.  Within a
    parity class each monomial is affine in t, with the same growth per two
    steps in both, so the integer tables at t = 0, 1, 2 and one floor division
    per monomial give the first t that fails; the conditions are strict and
    affine, so no t before it fails.  `greedy_path` asks with j the letter
    applied last, so t = 1 is checked first.  It does not ask at run point t of
    a call that returned t >= 1: run point t + 1 leaves its cell, so the answer
    there is 0.
    """
    x = [v.numerator * (scale // v.denominator) for v in x]
    odd = _monomials(coeffs, _run_point(x, i, j, 1))
    if any(v is not None and v <= odd[j - 1] for v in odd[:j - 1] + odd[j:]):
        return 0
    even = _monomials(coeffs, x)
    later = _monomials(coeffs, _run_point(x, i, j, 2))
    growth = [v if v is None else w - v for v, w in zip(even, later)]
    first_out = []
    for t0, base, cell in ((0, even, i - 1), (1, odd, j - 1)):
        last = cap  # the largest s with t0 + 2s' interior for every s' <= s
        for value, g in zip(base, growth):
            if value is not None and g < growth[cell]:
                last = min(last, -((value - base[cell]) // (g - growth[cell])) - 1)
        first_out.append(t0 + 2 * last + 2)
    return min(min(first_out) - 1, cap)


def greedy_path(params: Params, x: Point3, max_steps: int | None = None) -> GreedyTrace:
    """Follow the greedy itinerary: reflect by the unique containing quadratic
    cell until a subquadratic cell or a quadratic-quadratic intersection stops it.

    `_run_length` sizes the run i, j, i, ... from its first letter i, j the
    letter applied last, so each run of alternating reflections (one partial
    quotient of the slope) is one exact jump.  It is not asked where such a run
    ends, or at the start: there the greedy takes one reflection.  A single
    reflection carries the seven monomials to its image (`_reflect`); a jump
    evaluates them afresh where it lands.  Either way the cell test, with its
    skeleton check, runs at every point visited.  ``max_steps`` caps the
    reflections and gives kind "exhausted"; past STEP_BOUND reflections
    ResourceError is raised.
    """
    if max_steps is not None:
        check_size(max_steps, "max_steps")
        if max_steps < 0:
            # The first cell test below is the skeleton check; it must run.
            raise UsageError(f"max_steps must be nonnegative, got {max_steps}")
    room = STEP_BOUND + 1 if max_steps is None else min(max_steps, STEP_BOUND + 1)
    finite = _finite_values(params)
    scale, coeffs = _on_lattice(params, *(v.denominator for v in x))
    runs: list[list[int]] = []  # the word so far, as maximal runs in applied order
    cur = x
    values = _monomials(finite, cur)  # the seven monomials at cur, carried by each reflection
    j = 0  # the letter applied last; 0 where the next point takes one reflection
    step = 0
    while True:
        slots = _cell_slots(params, values, cur)  # ascending: quadratic 0-2 first
        # Ray has priority: junction points of subquadratic cells and rays
        # count as ray terminals.  The ray R_i lies on the cells X_{i+1}^2 and X_{i-1}^2.
        if len(slots) > 1 and slots[1] < 3:
            ray = next(i for i in (1, 2, 3) if i % 3 in slots and (i + 1) % 3 in slots)
            return GreedyTrace(x, Word._unchecked(_display(runs)), cur, "ray", None, ray, step)
        if slots[-1] >= 3:
            return GreedyTrace(x, Word._unchecked(_display(runs)), cur, "subquadratic",
                               CELL_ORDER[next(k for k in slots if k >= 3)], None, step)
        i = slots[0] + 1
        if step == max_steps:
            return GreedyTrace(x, Word._unchecked(_display(runs)), cur, "exhausted",
                               None, None, step)
        t = _run_length(coeffs, scale, cur, i, j, room - step) if j else 0
        if step + max(t, 1) > STEP_BOUND:
            raise ResourceError(
                f"greedy itinerary exceeds the configured bound of {STEP_BOUND} reflections")
        _extend(runs, i, j, max(t, 1), check=False)  # the greedy's own letters
        if t > 1:
            cur = _run_point(cur, i, j, t)
            values = _monomials(finite, cur)
        else:
            cur, values = _reflect(values, finite, i, cur)
        # After a run of t >= 1, run point t + 1 leaves its cell: the point
        # reached takes one reflection.
        j = 0 if t else i
        step += max(t, 1)


def u_slope(i: int, x: Point3) -> ExtRat:
    """Slope u^i_2 / u^i_1 of a point of C(X_i^2), with vertical slope infinity."""
    u1, u2 = u_coords(i, x)
    if u1 == 0:
        return ExtRat.infinity()
    return ExtRat(Fraction(u2, u1))  # exact for int coordinates too


def gamma_of(x: Point3) -> Fraction:
    """Thomae gcd of the difference coordinates; the same in every u^i chart."""
    return thomae_gcd(x[0] - x[2], x[1] - x[2])
