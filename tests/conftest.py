"""Shared exact test oracles.

These deliberately re-derive results along routes independent of the library
functions they are used to check.
"""

import csv
import functools
import io
import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import strategies as st

from tropmarkov.arithmetic import (
    ZP_BOX_BOUND,
    LiftReport,
    LiftStep,
    SurfacePointL,
    ZpPoint,
)
from tropmarkov.classifier import (
    FAREY_ROOT,
    ClassifyReport,
    FareyTriple,
    exception_rays_punctured,
    farey_enumerate,
)
from tropmarkov.scalars import CF
from tropmarkov.errors import DomainError, ResourceError, UsageError
from tropmarkov.hyperbolic import (
    SKELETON_DIRECTIONS,
    SKELETON_NETS,
    _orbit_cycle,
    _skeleton_columns,
    _skeleton_plane,
    bpoint,
    partial_orbit_boundary,
    partition_table,
    reflect_boundary,
)
from tropmarkov.scalars import ExtRat, ext_min, is_prime, p_adic_valuation, thomae_gcd
from tropmarkov.surface import (
    CELL_ORDER,
    CellId,
    Params,
    QUADRATIC_CELLS,
    SUBQUADRATIC_CELLS,
    _grid_lifts,
    cells_of,
    check_index,
    on_boundary_ray,
    plane_point,
    point_text,
    quadratic_cell,
)
from tropmarkov.svgout import _CELL_COLORS, _MIXED_COLOR, _fmt
from tropmarkov.dynamics import (
    GreedyTrace,
    Word,
    _run_point,
    euc,
    mat_mul,
    transit_matrix,
    trop_vieta,
    u_coords,
)


# -- the value classes as dataclasses --------------------------------------------


def _dataclass_twin(cls, **defaults):
    """``@dataclass(frozen=True, slots=True)`` over the fields of a value class,
    with the same name, defaults and ``__post_init__``; a class with its own
    ``__init__`` (Word) gets the generated one over its fields instead."""
    body = {"__annotations__": dict(cls.__annotations__), "__qualname__": cls.__qualname__,
            "__module__": __name__, **defaults}
    if "__post_init__" in cls.__dict__:
        body["__post_init__"] = cls.__post_init__
    return dataclass(frozen=True, slots=True)(type(cls.__name__, (), body))


# Each value class, and its twin, with the class-level defaults written out
# (a slotted class keeps no default as a class attribute).
VALUE_TWINS = {
    cls: _dataclass_twin(cls, **defaults)
    for cls, defaults in (
        (CF, {}), (Params, {}), (Word, {}),
        (GreedyTrace, {"cell": None, "ray_index": None, "steps": 0}),
        (ClassifyReport, {"ray_parameter": None}), (FareyTriple, {}), (SurfacePointL, {}),
        (LiftStep, {}), (LiftReport, {}), (ZpPoint, {}),
    )
}


# -- words one letter per reflection, as the library stored them before runs -----


@dataclass(frozen=True)
class OracleWord:
    """A reduced word as a tuple of letters in display order, checked and
    printed letter by letter."""

    letters: tuple[int, ...] = ()

    def __post_init__(self):
        for g in self.letters:
            if g not in (1, 2, 3):
                raise UsageError(f"generator index must be 1, 2 or 3, got {g}")
        for left, right in zip(self.letters, self.letters[1:]):
            if left == right:
                raise UsageError(f"word {self.letters} is not reduced")

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        return " ".join(f"s{g}" for g in self.letters)


def oracle_push(runs: list, g: int) -> None:
    """Append the letter g, applied after the others, to applied-order maximal
    runs [a, b, n], as the library appended letters before its runs took t
    letters in one step: a letter extends the last run when it repeats the
    letter two back; a lone letter [g, 0, 1] takes any next letter."""
    check_index(g)
    if not runs:
        runs.append([g, 0, 1])
        return
    run = runs[-1]
    a, b, n = run
    last, before = (a, b) if n % 2 else (b, a)
    if g == last:
        raise UsageError(f"word is not reduced: s{g} follows s{g}")
    if n == 1:
        run[1:] = [g, 2]
    elif g == before:
        run[2] = n + 1
    else:
        runs.append([g, 0, 1])


def oracle_extend(runs: list, a: int, b: int, t: int) -> None:
    """The t letters a, b, a, ... appended one by one with `oracle_push`."""
    for k in range(t):
        oracle_push(runs, b if k % 2 else a)


# -- the tropical Markov polynomial over ExtRat, monomial by monomial ------------


def oracle_monomials(params, x) -> dict:
    """All seven non-cubic monomials as ExtRat, +infinity included."""
    x1, x2, x3 = x
    return {
        CellId.X1SQ: ExtRat(2 * x1),
        CellId.X2SQ: ExtRat(2 * x2),
        CellId.X3SQ: ExtRat(2 * x3),
        CellId.AX1: params.a + x1,
        CellId.BX2: params.b + x2,
        CellId.CX3: params.c + x3,
        CellId.D: params.d,
    }


def oracle_monomial_values(params, x) -> dict:
    """The finite non-cubic monomials as Fractions, keyed by the cell each one
    ties (the library's dict route before the CELL_ORDER slots)."""
    x1, x2, x3 = x
    values = {CellId.X1SQ: 2 * x1, CellId.X2SQ: 2 * x2, CellId.X3SQ: 2 * x3}
    for cell, coeff, xi in ((CellId.AX1, params.a, x1), (CellId.BX2, params.b, x2),
                            (CellId.CX3, params.c, x3), (CellId.D, params.d, 0)):
        if not coeff.is_infinite:
            values[cell] = coeff.finite + xi
    return values


def oracle_lift_from_plane(params, w, v):
    """The level-set lift through ExtRat: alpha is the ext_min of all seven
    candidates, an infinite parameter's candidate being +infinity."""
    w = Fraction(w)
    v1, v2, v3 = plane_point(*v)
    a, b, c, d = params.a, params.b, params.c, params.d
    alpha = ext_min((
        ExtRat(2 * v1 - w), ExtRat(2 * v2 - w), ExtRat(2 * v3 - w),
        (a + (v1 - w)) / 2, (b + (v2 - w)) / 2, (c + (v3 - w)) / 2, (d - w) / 3,
    )).finite
    return (alpha + v1, alpha + v2, alpha + v3)


def oracle_thresholds(params) -> tuple:
    a, b, c, d = params.a, params.b, params.c, params.d
    zero = ExtRat(0)
    return (
        ext_min((zero, a / 2, b, c, d / 2)),
        ext_min((zero, a, b / 2, c, d / 2)),
        ext_min((zero, a, b, c / 2, d / 2)),
    )


def oracle_is_meromorphic(params) -> bool:
    return ext_min((params.a, params.b, params.c, params.d)) < 0


def oracle_trop_poly_f(params, x) -> ExtRat:
    return ext_min([*oracle_monomials(params, x).values(), ExtRat(sum(x))])


def oracle_f0(params, x) -> ExtRat:
    return ext_min(oracle_monomials(params, x).values()) - sum(x)


def oracle_in_tropicalization(params, x) -> bool:
    values = [*oracle_monomials(params, x).values(), ExtRat(sum(x))]
    m = ext_min(values)
    return sum(1 for v in values if v == m) >= 2


def oracle_cells_of(params, x) -> set:
    if oracle_f0(params, x) != 0:
        raise DomainError(f"point {point_text(x)} is not on the skeleton of {params}")
    s = sum(x)
    return {cell for cell, v in oracle_monomials(params, x).items() if v == s}


def oracle_trop_vieta(params, i, x):
    """trop(s_i) with the five monomials free of x_i written out per generator."""
    x1, x2, x3 = x
    a, b, c, d = params.a, params.b, params.c, params.d
    if i == 1:
        m = ext_min((ExtRat(2 * x2), ExtRat(2 * x3), b + x2, c + x3, d)).finite
        return (m - x1, x2, x3)
    if i == 2:
        m = ext_min((ExtRat(2 * x1), ExtRat(2 * x3), a + x1, c + x3, d)).finite
        return (x1, m - x2, x3)
    if i == 3:
        m = ext_min((ExtRat(2 * x1), ExtRat(2 * x2), a + x1, b + x2, d)).finite
        return (x1, x2, m - x3)
    raise UsageError(f"generator index must be 1, 2 or 3, got {i}")


# -- the run length over Fractions, as the library sized jumps before the lattice --


# -- parameter formulas over ExtRat, as the library wrote them before None ------


def assert_same_outcome(route, oracle, *args):
    """route(*args) returns what oracle(*args) returns, or raises the exception
    of the same type with the same text."""
    try:
        expected = oracle(*args)
    except Exception as exc:
        with pytest.raises(type(exc)) as info:
            route(*args)
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
        return
    assert route(*args) == expected


WALL_FRACTIONS = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def params_on_walls(draw):
    """(a, b, c, d), each drawn independently as +inf or finite.  A finite entry
    may sit on a wall: 0, d/2 (2e = d) or an earlier entry (e = e')."""
    d = draw(st.one_of(st.none(), st.just(Fraction(0)), WALL_FRACTIONS))
    abc: list = []
    for _ in range(3):
        options = [st.none(), st.just(Fraction(0)), WALL_FRACTIONS]
        if d is not None:
            options.append(st.just(d / 2))
        if any(e is not None for e in abc):
            options.append(st.sampled_from([e for e in abc if e is not None]))
        abc.append(draw(st.one_of(*options)))
    entries = [*draw(st.permutations(abc)), d]
    return Params(*(ExtRat("inf") if e is None else ExtRat(e) for e in entries))


def _oracle_min0(e):
    return ext_min((ExtRat(0), e))


def oracle_cell_has_interior(params, cell) -> bool:
    """The interior test in ExtRat arithmetic: an infinite parameter's min(0, .)
    term is min(0, +inf) = 0."""
    a, b, c, d = params.a, params.b, params.c, params.d
    if cell in QUADRATIC_CELLS:
        return True
    if cell is CellId.D:
        if d.is_infinite:
            return False
        rhs = _oracle_min0(2 * a - d) + _oracle_min0(2 * b - d) + _oracle_min0(2 * c - d)
        return d < rhs
    coeffs = {CellId.AX1: (a, b, c), CellId.BX2: (b, a, c), CellId.CX3: (c, a, b)}
    own, other1, other2 = coeffs[cell]
    if own.is_infinite:
        return False
    return own < _oracle_min0(other1 - own) + _oracle_min0(other2 - own) and 2 * own < d


def _oracle_fixed_point_base(params, w, u):
    """Fixed point of the first involution on {f0 = w} with x2 - x3 = u."""
    a, b, c, d = params.a, params.b, params.c, params.d
    vt = ext_min((ExtRat(u - 2 * w), ExtRat(-u - 2 * w), (2 * b + (u - 4 * w)) / 3,
                  (2 * c + (-u - 4 * w)) / 3, d / 2 - w, a - w)).finite
    x2 = (vt + u) / 2
    x3 = (vt - u) / 2
    x1 = ext_min((ExtRat(x2), ExtRat(x3), (b + x2) / 2, (c + x3) / 2, d / 2)).finite
    return (x1, x2, x3)


def oracle_fixed_set_point(params, i, w, u):
    """The fixed point stated for i = 1; i = 2, 3 go through the cyclic
    relabeling (a, b, c) -> (b, c, a) that conjugates the involutions."""
    w, u = Fraction(w), Fraction(u)
    cycled = Params(params.b, params.c, params.a, params.d)
    if i == 1:
        return _oracle_fixed_point_base(params, w, u)
    if i == 2:
        y = _oracle_fixed_point_base(cycled, w, u)
        return (y[2], y[0], y[1])
    if i == 3:
        y = _oracle_fixed_point_base(Params(cycled.b, cycled.c, cycled.a, cycled.d), w, u)
        return (y[1], y[2], y[0])
    raise UsageError(f"generator index must be 1, 2 or 3, got {i}")


def oracle_fatou_witness(params):
    """The D-cell witness by interval elimination in ExtRat arithmetic."""
    if not oracle_cell_has_interior(params, CellId.D):
        raise DomainError(f"parameters {params} do not satisfy the Fatou condition")
    a, b, c, d = params.a, params.b, params.c, params.d
    dv = d.finite
    symmetric = (dv / 3, dv / 3, dv / 3)
    if oracle_f0(params, symmetric) == 0 and oracle_cells_of(params, symmetric) == {CellId.D}:
        return symmetric
    lo2 = dv / 2 if b.is_infinite else max(dv / 2, dv - b.finite)
    hi2 = ext_min((ExtRat(0), c - dv / 2, a - dv / 2, a + c - dv)).finite
    x2 = (lo2 + hi2) / 2
    lo1 = dv / 2 if a.is_infinite else max(dv / 2, dv - a.finite)
    hi1 = ext_min((ExtRat(dv / 2 - x2), c - x2)).finite
    x1 = (lo1 + hi1) / 2
    x = (x1, x2, dv - x1 - x2)
    if oracle_cells_of(params, x) != {CellId.D}:
        raise DomainError(f"no interior witness found for {params}")
    return x


def oracle_on_boundary_ray(params, i, x) -> bool:
    """Membership in R_i, one branch per ray, against the ExtRat thresholds."""
    x1, x2, x3 = x
    if i == 1:
        return x1 == 0 and x2 == x3 and oracle_thresholds(params)[0] >= x2
    if i == 2:
        return x2 == 0 and x1 == x3 and oracle_thresholds(params)[1] >= x1
    if i == 3:
        return x3 == 0 and x1 == x2 and oracle_thresholds(params)[2] >= x1
    raise UsageError(f"ray index must be 1, 2 or 3, got {i}")


def oracle_run_length(params, x, i, j, cap) -> int:
    """Number of reflections i, j, i, ... the step loop takes from x, at most
    cap, from CellId-keyed Fraction monomials at t = 0, 1, 2 and one Fraction
    floor division per monomial (see `dynamics._run_length`)."""
    cell_i, cell_j = quadratic_cell(i), quadratic_cell(j)
    odd = oracle_monomial_values(params, _run_point(x, i, j, 1))
    if any(v <= odd[cell_j] for c, v in odd.items() if c is not cell_j):
        return 0
    even = oracle_monomial_values(params, x)
    later = oracle_monomial_values(params, _run_point(x, i, j, 2))
    growth = {c: later[c] - v for c, v in even.items()}
    first_out = []
    for t0, base, cell in ((0, even, cell_i), (1, odd, cell_j)):
        last = cap  # the largest s with t0 + 2s' interior for every s' <= s
        for c, value in base.items():
            slope = growth[c] - growth[cell]
            if slope < 0:
                last = min(last, -((value - base[cell]) // slope) - 1)
        first_out.append(t0 + 2 * last + 2)
    return min(min(first_out) - 1, cap)


# -- the greedy itinerary, one cells_of and one trop_vieta per reflection ----------


def _oracle_default_step_budget(i, x) -> int:
    """Budget for a start point in the quadratic cell i alone."""
    u1, u2 = u_coords(i, x)
    if u1 == 0 or u2 == 0:
        return 16
    m = u2 / u1
    # Subtractive Euclid takes up to numerator+denominator steps on the slope.
    return 4 * (m.numerator + m.denominator) + 16


def oracle_ray_index_of(quads: set) -> int:
    """The ray R_i whose two quadratic cells X_{i+1}^2, X_{i-1}^2 are in quads."""
    for i in (1, 2, 3):
        pair = {quadratic_cell(i % 3 + 1), quadratic_cell((i + 1) % 3 + 1)}
        if pair <= quads:
            return i
    raise DomainError(f"no ray matches the quadratic cells {quads}")


def oracle_greedy_path(params, x, max_steps=None) -> GreedyTrace:
    """The greedy itinerary taken one reflection at a time, as the library
    took it before runs were jumped."""
    if max_steps is not None and max_steps < 0:
        # The first cells_of call below is the skeleton check; it must run.
        raise UsageError(f"max_steps must be nonnegative, got {max_steps}")
    applied: list[int] = []
    cur = x
    step = 0
    while True:
        cells = cells_of(params, cur)
        quads = {c for c in cells if c in QUADRATIC_CELLS}
        # Ray has priority: junction points of subquadratic cells and rays
        # count as ray terminals.
        if len(quads) >= 2:
            return GreedyTrace(x, Word(tuple(reversed(applied))), cur, "ray",
                               ray_index=oracle_ray_index_of(quads), steps=step)
        sub = [c for c in CELL_ORDER if c in cells and c in SUBQUADRATIC_CELLS]
        if sub:
            return GreedyTrace(x, Word(tuple(reversed(applied))), cur, "subquadratic",
                               cell=sub[0], steps=step)
        i = QUADRATIC_CELLS.index(next(iter(quads))) + 1
        if max_steps is None:
            max_steps = _oracle_default_step_budget(i, x)
        if step == max_steps:
            return GreedyTrace(x, Word(tuple(reversed(applied))), cur, "exhausted", steps=step)
        applied.append(i)
        cur = trop_vieta(params, i, cur)
        step += 1


# -- the surface identity and the rational involution, written out by hand -------


def oracle_on_surface(point) -> bool:
    """X1^2 + X2^2 + X3^2 + X1X2X3 == A X1 + B X2 + C X3 + D, recomputed."""
    X1, X2, X3 = point.X1, point.X2, point.X3
    lhs = X1 * X1 + X2 * X2 + X3 * X3 + X1 * X2 * X3
    return lhs == point.A * X1 + point.B * X2 + point.C * X3 + point.D


def oracle_rational_vieta(i: int, x) -> tuple:
    """s_i on a rational point of S(0, 0, 0, D), one branch per index."""
    x1, x2, x3 = (Fraction(c) for c in x)
    if i == 1:
        return (-x1 - x2 * x3, x2, x3)
    if i == 2:
        return (x1, -x2 - x1 * x3, x3)
    return (x1, x2, -x3 - x1 * x2)


def sparse_seed(n: int) -> list:
    """X1 = t + t^2 + ... + t^n, and X2, X3 the same with every exponent times
    (n + 1) and (n + 1)^2: the product X1 X2 X3 has n^3 distinct terms."""
    return [" + ".join(f"t^{k * (n + 1) ** j}" for k in range(1, n + 1)) for j in range(3)]


# -- orbit labels and circle order, as the seed built them ------------------------


BOUNDARY_NETS = {1: (0, 1), 2: (1, 0), 3: (1, 1)}  # the nets 0, inf, 1 of r1, r2, r3


def bpoint_from_rational(value):
    """The normalised pair of a rational or of "inf"."""
    if isinstance(value, str) and value.strip().lower() == "inf":
        return (1, 0)
    f = Fraction(value)
    return bpoint(f.numerator, f.denominator)


def oracle_reflect_boundary(i, x):
    """r_i on a projective pair by its formula, normalised by bpoint's gcd."""
    p, q = x
    if i == 1:
        return bpoint(2 * q - p, q)
    if i == 2:
        return bpoint(p, 2 * p - q)
    if i == 3:
        return bpoint(-p, q)
    raise UsageError(f"reflection index must be 1, 2 or 3, got {i}")


def oracle_apply_reflection_word(word, x):
    """A word replayed one reflection per letter, then normalised."""
    for i in word.applied_order():
        x = reflect_boundary(i, x)
    return bpoint(*x)


def oracle_reduce_to_nets(x):
    """Height reduction to a net one move at a time, two reflections per
    unit of height, as the library took it before runs were jumped."""
    cur = bpoint(*x)
    moves: list[int] = []
    while cur[1] != 0 and cur not in ((0, 1), (1, 1)):
        p, q = cur
        if cur == (-1, 1):
            step = (3,)  # -1 -> 1, a net
        elif abs(p) > q:
            step = (1, 3) if p > 0 else (3, 1)  # z -> z - 2, or z -> z + 2
        elif p < 0:
            step = (3, 2)  # z -> z / (2z + 1), lowering the height
        else:
            step = (2, 3)  # z -> z / (2z - 1) then negate, lowering the height
        for i in step:
            cur = reflect_boundary(i, cur)
        moves += step
    letters = Word.reduce(moves).letters
    stab = {i for i in (1, 2, 3) if reflect_boundary(i, cur) == cur}
    while letters and letters[-1] in stab:
        letters = letters[:-1]  # the first letter applied to the net acts trivially
    return Word(letters), cur


def height(x) -> int:
    return max(abs(x[0]), abs(x[1]))


# The reflections that fix each net: all but r_i fix the net of r_i.
_NET_STABILISERS = {(0, 1): (2, 3), (1, 0): (1, 3), (1, 1): (1, 2)}
_INTERNED: dict = {}  # each distinct run and net once, shared by the memoised descents


@functools.cache
def oracle_descent(p: int, q: int):
    """The display-order runs (a, b, n) of the label of the normalised pair (p, q), cut
    where moves meet (not maximal), and its net, by strict height descent with each run
    of one move jumped, as the library took it before the colour path.  Near z = +-1 the
    moves switch chart at every step, so it is linear in the height there.  Memoised for
    the session, so the depth-16 Farey and cycle tests descend each pair once; the runs
    and the net are tuples, since every caller shares them."""
    runs: list[list[int]] = []
    while q != 0 and (p, q) not in ((0, 1), (1, 1)):
        if (p, q) == (-1, 1):
            move, p = [3, 0, 1], 1  # -1 -> 1, a net
        elif abs(p) > q:
            # z -> z - 2 (r1 then r3) or z + 2 (r3 then r1) while |z| > 1
            k = (abs(p) + q - 1) // (2 * q)
            move = [1, 3, 2 * k] if p > 0 else [3, 1, 2 * k]
            p = p - 2 * k * q if p > 0 else p + 2 * k * q
        else:
            # 1/z -> 1/z - 2 (r2 then r3) or 1/z + 2 (r3 then r2) while |z| < 1
            k = (q + abs(p) - 1) // (2 * abs(p))
            move = [2, 3, 2 * k] if p > 0 else [3, 2, 2 * k]
            p, q = bpoint(p, q - 2 * k * abs(p))
        while runs and move[2] and _last_letter(runs) == move[0]:
            _drop_last(runs)  # s_i s_i cancels
            move = [move[1], move[0], move[2] - 1]
        if move[2]:
            runs.append(move)
    stab = _NET_STABILISERS[p, q]
    while runs and _last_letter(runs) in stab:
        _drop_last(runs)  # the first letter applied to the net acts trivially
    runs, net = list(map(tuple, runs)), (p, q)
    return tuple(map(_INTERNED.setdefault, runs, runs)), _INTERNED.setdefault(net, net)


def _last_letter(runs: list) -> int:
    a, b, n = runs[-1]
    return a if n % 2 else b


def _drop_last(runs: list) -> None:
    runs[-1][2] -= 1
    if not runs[-1][2]:
        runs.pop()


def oracle_descent_label(x):
    """The label of `reduce_to_nets` by the height descent."""
    runs, net = oracle_descent(*bpoint(*x))
    return Word.from_runs(runs), net


def oracle_descent_farey_word(mid):
    """The cell-1 word of the Farey triangle with this mediant by the height descent:
    s1, then the mediant's descent with the letters 1 and 3 exchanged."""
    runs, _ = oracle_descent(*mid)
    return Word.from_runs([(1, 0, 1), *((4 - a, b and 4 - b, n) for a, b, n in runs)])


def oracle_direction_act(i, n):
    """r_i on a direction by its formula, one branch per generator: n_i becomes
    2 min(n_j, n_k) - n_i."""
    n1, n2, n3 = n
    if i == 1:
        n1 = 2 * (n2 if n2 < n3 else n3) - n1
    elif i == 2:
        n2 = 2 * (n1 if n1 < n3 else n3) - n2
    elif i == 3:
        n3 = 2 * (n1 if n1 < n2 else n2) - n3
    else:
        raise UsageError(f"generator index must be 1, 2 or 3, got {i}")
    if n1 + n2 + n3 >= 0:
        raise DomainError(f"{(n1, n2, n3)} does not generate a skeleton direction")
    return (n1, n2, n3)


def oracle_skeleton_direction_act(i, x):
    """r_i on the circle of directions by `oracle_direction_act` on the rational
    triple, then an exact rescaling to coordinate sum -1."""
    y = oracle_direction_act(i, x)
    s = -(y[0] + y[1] + y[2])
    return (y[0] / s, y[1] / s, y[2] / s)


def oracle_angular_cmp(u, v) -> int:
    """Three-way angle comparison of plane vectors, counterclockwise from the
    positive first axis, by half-plane and then the sign of the cross product."""
    up, uq = u
    vp, vq = v
    uh = 0 if (uq > 0 or (uq == 0 and up > 0)) else 1
    vh = 0 if (vq > 0 or (vq == 0 and vp > 0)) else 1
    if uh != vh:
        return -1 if uh < vh else 1
    cross = up * vq - uq * vp
    return 0 if cross == 0 else (-1 if cross > 0 else 1)


def oracle_labels(n: int) -> list:
    """Labels (net i, word in applied order) of length <= n: the word is empty
    or starts with i, and no letter repeats the one before it; listed by
    length, then net, then letters."""
    return [(i, word) for k in range(n + 1) for i in (1, 2, 3)
            for word in product((1, 2, 3), repeat=k)
            if (not word or word[0] == i) and all(a != b for a, b in zip(word, word[1:]))]


def oracle_realise(label, nets: dict, act):
    """Replay a label's word from its net, one act per letter."""
    i, word = label
    x = nets[i]
    for g in word:
        x = act(g, x)
    return x


def oracle_tower(nets: dict, act, n: int) -> list:
    """Orbit points of the labels of length <= n in ``oracle_labels`` order,
    each one ``act`` on its parent's point, by breadth-first search."""
    frontier = [((i,), nets[i]) for i in (1, 2, 3)]  # (next letters, point)
    points = [x for _, x in frontier]
    for _ in range(n):
        frontier = [(tuple(h for h in (1, 2, 3) if h != g), act(g, x))
                    for letters, x in frontier for g in letters]
        points.extend(x for _, x in frontier)
    return points


def oracle_boundary_angle(x) -> float:
    """Angle of the inverse stereographic image of p/q on the unit circle."""
    return 2.0 * math.atan2(x[0], x[1])


def oracle_boundary_key(x):
    """Sort key of the boundary circle cut just after inf: p/q, then inf."""
    p, q = x
    if q == 0:
        return (1, Fraction(0))
    return (0, Fraction(p, q))


def oracle_plane_xy(x) -> tuple:
    """The plane image (x1 - x2, x1 + x2 - 2 x3) of a skeleton direction or circle point."""
    return (x[0] - x[1], x[0] + x[1] - 2 * x[2])


def oracle_skeleton_angle(x) -> float:
    """Angle of the plane image, scaled by the sum s of the negated coordinates."""
    s = -(x[0] + x[1] + x[2])
    p, q = oracle_plane_xy(x)
    return math.atan2(q / s, p / s)


def oracle_plane_vector(n) -> tuple:
    """Whether the plane image of n has its angle in [0, pi), and that image."""
    p, q = oracle_plane_xy(n)
    return (q > 0 or (q == 0 and p > 0), p, q)


def oracle_skeleton_key(x):
    """Exact angle order of the plane image (p, q): half-plane [0, pi) first,
    then the point on the p-axis, then decreasing cotangent p/q."""
    p, q = oracle_plane_xy(x)
    return (0 if q > 0 or (q == 0 and p > 0) else 1, q != 0, -p / q if q else 0)


def oracle_skeleton_sorted(points) -> list:
    return sorted(points, key=oracle_skeleton_key)


def oracle_cyclic_match(seq_a: list, seq_b: list) -> bool:
    """Whether seq_b is a rotation of seq_a or of its reversal."""
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


def oracle_order_isomorphism_check(n: int, net_order=(1, 2, 3)) -> bool:
    """Both towers list the labels in one order, so a position is a label:
    sort the positions by each circle's key and match the two cycles."""
    skel_nets = {i: SKELETON_NETS[net_order[i - 1]] for i in (1, 2, 3)}
    bnd = oracle_tower(BOUNDARY_NETS, oracle_reflect_boundary, n)
    skl = oracle_tower(skel_nets, oracle_skeleton_direction_act, n)
    if len(set(bnd)) != len(bnd) or len(set(skl)) != len(skl):
        return False
    seq_b = sorted(range(len(bnd)), key=lambda k: oracle_boundary_key(bnd[k]))
    seq_s = sorted(range(len(skl)), key=lambda k: oracle_skeleton_key(skl[k]))
    return oracle_cyclic_match(seq_b, seq_s)


# -- both orbits built arc by arc by reflections, as the library built them before --


ORACLE_SKELETON_CCW = (1, 2, 3)  # the skeleton nets at 45, 135 and 270 degrees
BOUNDARY_CCW = (1, 3, 2)  # the boundary nets 0, 1, inf counterclockwise


def oracle_orbit_cycle(nets: dict, act, ccw: tuple, n: int) -> list:
    """Orbit points of the labels of length <= n in cyclic order, for any nets
    and act: with the nets a, b, c in the order ``ccw`` the circle reads a,
    arc c, b, arc a, c, arc b, and each level's new points of arc g are the
    r_g images of the last level's new points beside net g, reversed."""
    a, b, c = ccw
    sides = {a: (b, c), b: (c, a), c: (a, b)}
    arcs = {g: [] for g in ccw}
    sources = {g: [nets[g]] for g in ccw}
    for _ in range(n):
        fresh = {g: [act(g, x) for x in sources[g]] for g in ccw}
        for g in ccw:
            arc = [None] * (2 * len(fresh[g]) - 1)
            arc[::2], arc[1::2] = fresh[g], arcs[g]
            arcs[g] = arc
        sources = {g: (fresh[h] + fresh[k])[::-1] for g, (h, k) in sides.items()}
    return [nets[a], *arcs[c], nets[b], *arcs[a], nets[c], *arcs[b]]


def oracle_skeleton_cycle(n: int) -> list:
    """The skeleton orbit built by the integer direction act in its own
    counterclockwise layout, cut at angle 0 by bisection: angle 0 lies in
    arc 2, the last one, which runs from 270 to 45 degrees."""
    cycle = oracle_orbit_cycle(SKELETON_DIRECTIONS, oracle_direction_act, ORACLE_SKELETON_CCW, n)
    p_q = [oracle_plane_xy(x) for x in cycle]
    upper = [q > 0 or (q == 0 and p > 0) for p, q in p_q]
    cut = bisect_left(upper, True, (2 << n) + 1)
    return cycle[cut:] + cycle[:cut]


def oracle_partition_table(n: int, side: str) -> list:
    """`partition_table` by the whole depth-n cycle: an angle for every cycle point
    (2 atan2(p, q) on the boundary, the plane angle negated on the skeleton) and
    every arc of every level, the one step down (on from 1/0 on the boundary, the
    least on the skeleton) plus 2 pi."""
    p, q = _orbit_cycle(n)
    if side == "boundary":
        angles = [2.0 * math.atan2(a, b) for a, b in zip(p, q)]
    else:
        angles = [-math.atan2(y / s, x / s) for x, y, s in map(_skeleton_plane, p, q)]
    rows = []
    for k in range(n + 1):
        level = angles[::2**(n - k)]  # the depth-k cycle
        gaps = [b - a for a, b in zip(level, level[1:])] + [level[0] - level[-1]]
        gaps[2 * 2**k if side == "boundary" else gaps.index(min(gaps))] += 2.0 * math.pi
        rows.append((3 * 2**k, min(gaps), max(gaps)))
    return rows


# -- the Farey tessellation by breadth-first search, as the library built it ------


def oracle_tessellation_triangles(n: int) -> set:
    """Vertex-sorted ideal triangles reached from (0, 1, inf) by at most n
    reflections: reflect the newest triangles and drop the repeats."""
    base = tuple(sorted(BOUNDARY_NETS.values()))
    triangles = {base}
    frontier = [base]
    for _ in range(n):
        fresh = []
        for tri in frontier:
            for i in (1, 2, 3):
                img = tuple(sorted(oracle_reflect_boundary(i, v) for v in tri))
                if img not in triangles:
                    triangles.add(img)
                    fresh.append(img)
        frontier = fresh
    return triangles


def _oracle_disk_xy(theta: float, radius: float, center: float) -> tuple[float, float]:
    return (center + radius * math.cos(theta), center - radius * math.sin(theta))


def oracle_geodesic_points(th1: float, th2: float, radius: float,
                           center: float) -> list[tuple[float, float]]:
    """The geodesic between the boundary angles th1 and th2 as the library drew
    it: 25 points along the circle orthogonal to the boundary, from th1 to th2,
    in page coordinates (y down); its two ends for a diameter."""
    segments = 24  # polyline pieces per circular arc
    gap = math.remainder(th2 - th1, 2 * math.pi)
    if abs(abs(gap) - math.pi) < 1e-12:
        return [_oracle_disk_xy(th1, radius, center), _oracle_disk_xy(th2, radius, center)]
    mid = th1 + gap / 2
    half = abs(gap) / 2
    dist = 1.0 / math.cos(half)
    cx, cy = dist * math.cos(mid), dist * math.sin(mid)
    arc_r = abs(math.tan(half))
    p1 = (math.cos(th1), math.sin(th1))
    p2 = (math.cos(th2), math.sin(th2))
    a1 = math.atan2(p1[1] - cy, p1[0] - cx)
    a2 = math.atan2(p2[1] - cy, p2[0] - cx)
    sweep = math.remainder(a2 - a1, 2 * math.pi)
    out = []
    for k in range(segments + 1):
        a = a1 + sweep * k / segments
        x, y = cx + arc_r * math.cos(a), cy + arc_r * math.sin(a)
        out.append((center + radius * x, center - radius * y))
    return out


# -- the orbit triangles of the D cell by breadth-first search over matrices -----


_BASE_TRIANGLE = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
                  (Fraction(1), Fraction(1)))


def _oracle_mat_vec(a, v) -> tuple:
    return (a[0][0] * v[0] + a[0][1] * v[1], a[1][0] * v[0] + a[1][1] * v[1])


def oracle_table_orbit_triangles(d, depth: int) -> dict:
    """Images of the D-cell triangle under words of length <= depth, per cell,
    as the library built them: a breadth-first search that multiplies the
    transit matrix of each step onto the word's matrix."""
    scale = abs(Fraction(d)) / 2
    out = {1: [], 2: [], 3: []}
    identity = ((1, 0), (0, 1))
    frontier = [(j, identity, (j,)) for j in (1, 2, 3)]
    for _ in range(depth):
        nxt_frontier = []
        for cell, mat, applied in frontier:
            verts = tuple(
                tuple(scale * c for c in _oracle_mat_vec(mat, b)) for b in _BASE_TRIANGLE
            )
            out[cell].append((Word(tuple(reversed(applied))), verts))
            for delta in (1, -1):
                cell2 = (cell + delta - 1) % 3 + 1
                nxt_frontier.append((cell2, mat_mul(transit_matrix(delta), mat),
                                     applied + (cell2,)))
        frontier = nxt_frontier
    return out


def oracle_farey_word(triple, i: int):
    """The word of `farey_triangle` as the library built it: the V-monoid
    factorisation of the triple once per cell, then the letters one by one."""
    (al, be), (ga, de) = triple.left, triple.right
    # The signs eta (leftmost factor first) with ((ga, al), (de, be)) = V_eta1 V_eta2 ...:
    # peel the row that is at least the other entrywise.
    a, b, c, d = ga, al, de, be
    eta: list[int] = []
    while (a, b, c, d) != (1, 0, 0, 1):
        if a >= c and b >= d:
            eta.append(1)
            a, b = a - c, b - d
        elif c >= a and d >= b:
            eta.append(-1)
            c, d = c - a, d - b
        else:
            raise DomainError(f"{triple} has no V-monoid factorisation")
    m = len(eta)
    # Applied-order step signs: eps_j = (-1)^(m-j) * eta_j, eta_j = eta[m-j].
    eps = [(-1) ** (m - j) * eta[m - j] for j in range(1, m + 1)]
    cell = (i - sum(eps) - 1) % 3 + 1
    letters_applied = [cell]
    for e in eps:
        cell = (cell + e - 1) % 3 + 1
        letters_applied.append(cell)
    assert cell == i
    return Word(tuple(reversed(letters_applied)))


def oracle_exception_rays_punctured(d, height: int) -> list:
    """The exception-ray generators as the library listed them: every pattern
    scaled by d/2 as Fractions, deduplicated and sorted."""
    half = Fraction(d) / 2
    seen = set()
    for p in range(height + 1):
        for q in range(height + 1):
            if math.gcd(p, q) == 1:
                for pattern in ((q, p, p + q), (p + q, q, p), (p, p + q, q)):
                    seen.add(tuple(half * c for c in pattern))
    return sorted(seen)


def oracle_matches_exception_ray(d, x) -> bool:
    """Whether x lies on some ray R>=1 * (d/2) * pattern of the exception set:
    one coordinate is the sum of the other two, each an integer multiple of
    their Thomae gcd, which is at least |d|/2."""
    d = Fraction(d)
    if d >= 0:
        raise DomainError("punctured-torus parameters require d < 0")
    if all(c == 0 for c in x):
        return False
    half = abs(d) / 2
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


def _oracle_farey_children(t):
    ls = tuple(a + b for a, b in zip(t.left, t.mid))
    rs = tuple(a + b for a, b in zip(t.mid, t.right))
    return (FareyTriple(t.left, ls, t.mid), FareyTriple(t.mid, rs, t.right))


def oracle_farey_triples(depth: int) -> list:
    """Triples from the root by at most ``depth`` mediant subdivisions,
    breadth first, each triple's left child before its right."""
    out = [FAREY_ROOT]
    level = [FAREY_ROOT]
    for _ in range(depth):
        level = [child for t in level for child in _oracle_farey_children(t)]
        out.extend(level)
    return out


def oracle_euc_limit(u) -> Fraction:
    """Limit of the euc iteration, reached exactly for rational inputs:
    iterate until the orbit oscillates between (g,0) and (0,g)."""
    u1, u2 = Fraction(u[0]), Fraction(u[1])
    if u1 == 0 and u2 == 0:
        return Fraction(0)
    scale = u1.denominator * u2.denominator
    budget = int(u1 * scale + u2 * scale) + 4
    cur = (u1, u2)
    for _ in range(budget):
        if 0 in cur:
            return max(cur)
        cur = euc(cur)
    raise DomainError(f"euc iteration did not settle within {budget} steps for ({u1},{u2})")


def orbit_reaches_ray(params, x, budget=4000) -> bool:
    """Whether the reflection itinerary of x reaches a boundary ray.

    Follows the unique quadratic cell's generator, stepping through junction
    points where a subquadratic cell meets a single quadratic cell (the plain
    greedy rules stop there, one step short of the ray endpoint's image).
    Terminates on: a ray point (True); a point with no quadratic cell, a
    fixed point, or a revisit (False, the itinerary stays in the table orbit).
    """
    cur = x
    seen = set()
    for _ in range(budget):
        if any(on_boundary_ray(params, i, cur) for i in (1, 2, 3)):
            return True
        if cur in seen:
            return False
        seen.add(cur)
        quads = [c for c in cells_of(params, cur) if c in QUADRATIC_CELLS]
        if len(quads) != 1:
            return False
        i = QUADRATIC_CELLS.index(quads[0]) + 1
        nxt = trop_vieta(params, i, cur)
        if nxt == cur:
            return False
        cur = nxt
    raise RuntimeError("ray-search budget exhausted")


def zp_cases(max_nmax):
    """Every (p, D = m/p^K) with p in {2, 3, 5, 7}, p not dividing m, D < 1/3
    and enumeration box half-width nmax = isqrt(3 m p^K - 1) at most max_nmax."""
    cases = []
    for p in (2, 3, 5, 7):
        pk = p
        while 3 * pk <= (max_nmax + 1) ** 2:
            cases += [(p, Fraction(m, pk)) for m in range(1, pk)
                      if m % p and 3 * m < pk and math.isqrt(3 * m * pk - 1) <= max_nmax]
            pk *= p
    return cases


def brute_force_zp_points(p: int, D: Fraction) -> list:
    """Grid search over X_i = n / p^K with |X_i| <= 1, keeping exact surface
    points inside the ball of squared radius 3D whose coordinate valuations
    lie in [v_p(D), -1]."""
    nu_d = int(p_adic_valuation(D, p).finite)
    K = max(2, -nu_d)
    den = p**K
    radius_sq = 3 * D
    grid = [Fraction(n, den) for n in range(-den, den + 1)]
    squares = [x * x for x in grid]
    out = []
    for x1, sq1 in zip(grid, squares):
        for x2, sq2 in zip(grid, squares):
            s12 = sq1 + sq2
            if s12 >= radius_sq:
                continue
            x12 = x1 * x2
            for x3, sq3 in zip(grid, squares):
                s123 = s12 + sq3
                if s123 >= radius_sq:
                    continue
                if s123 + x12 * x3 != D:
                    continue
                vals = [p_adic_valuation(c, p) for c in (x1, x2, x3)]
                if any(v.is_infinite for v in vals):
                    continue
                if all(nu_d <= int(v.finite) <= -1 for v in vals):
                    out.append(((x1, x2, x3), tuple(int(v.finite) for v in vals)))
    return sorted(out)


def oracle_zp_points_cubic(p: int, D) -> list:
    """The Z[1/p] enumerator as the library ran it before the quadratic in n3
    was solved: the whole integer box, one n3 at a time."""
    if not is_prime(p):
        raise UsageError(f"{p} is not prime")
    D = Fraction(D)
    den = D.denominator
    while den % p == 0:
        den //= p
    if den != 1:
        raise DomainError(f"{D} is not in Z[1/{p}]")
    if not 0 < D < Fraction(1, 3):
        raise DomainError(f"enumeration requires 0 < D < 1/3, got {D}")
    K = -int(p_adic_valuation(D, p).finite)
    pk = p ** K
    rhs = int(D * pk ** 3)
    ball = 3 * int(D * pk) * pk  # n1^2+n2^2+n3^2 < 3 D p^(2K)
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
        for n2 in allowed:
            s2 = s1 + n2 * n2
            if s2 >= ball:
                continue
            n12 = n1 * n2
            for n3 in allowed:
                if s2 + n3 * n3 >= ball:
                    continue
                if pk * (s2 + n3 * n3) + n12 * n3 == rhs:
                    coords = (Fraction(n1, pk), Fraction(n2, pk), Fraction(n3, pk))
                    exps = tuple(int(p_adic_valuation(c, p).finite) for c in coords)
                    out.append(ZpPoint(coords, exps))
    return sorted(out, key=lambda z: z.coords)


def oracle_zp_numerators_ball(p: int, D: Fraction) -> tuple:
    """`arithmetic.zp_numerators` as it ran before its rows were cut to
    n1^2 < m p^K: every row n1 of the box around the ball n1^2+n2^2+n3^2 <
    3 D p^(2K).  Takes a prime p and a D = m/p^K the enumerator accepts."""
    pk = D.denominator
    K = 0
    while p ** K < pk:
        K += 1
    rhs = D.numerator * pk * pk  # D p^(3K)
    ball = 3 * D.numerator * pk  # n1^2+n2^2+n3^2 < 3 D p^(2K)
    nmax = math.isqrt(ball)
    if nmax * nmax >= ball:
        nmax -= 1
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
                out.append((n1, n2, n3))
    out.sort()
    return out, pk, K


def oracle_zp_numerators_rows(p: int, D: Fraction) -> tuple:
    """`arithmetic.zp_numerators` as it ran before it took each point with its
    mirror (-n1, -n2, n3): every row n1^2 < m p^K, each stopped at the last n2
    whose quadratic in n3 has real roots.  Takes a prime p and a D = m/p^K the
    enumerator accepts."""
    m, pk = D.numerator, D.denominator
    K = 0
    while p ** K < pk:
        K += 1
    rhs = m * pk * pk  # D p^(3K)
    ball = 3 * m * pk  # n1^2+n2^2+n3^2 < 3 D p^(2K)
    nmax = math.isqrt(ball)
    if nmax * nmax >= ball:
        nmax -= 1
    allowed = [n for n in range(-nmax, nmax + 1) if n != 0 and n % pk != 0]
    r1 = math.isqrt(m * pk - 1)
    q = 4 * pk * pk
    out = []
    for n1 in allowed[bisect_left(allowed, -r1):bisect_right(allowed, r1)]:
        s1 = n1 * n1
        r2 = math.isqrt(q * (m * pk - s1) // (q - s1))
        for n2 in allowed[bisect_left(allowed, -r2):bisect_right(allowed, r2)]:
            s2 = s1 + n2 * n2
            b = n1 * n2
            disc = b * b - 4 * pk * (pk * s2 - rhs)
            r = math.isqrt(disc)
            if r * r != disc:
                continue
            for num in {-b + r, -b - r}:
                n3, rem = divmod(num, 2 * pk)
                if rem or n3 % pk == 0 or s2 + n3 * n3 >= ball:
                    continue
                out.append((n1, n2, n3))
    out.sort()
    return out, pk, K


# -- CLI text through the standard library's writers ---------------------------


def oracle_json_text(value) -> str:
    """The CLI's JSON text as json.dumps writes it, newline-terminated."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def oracle_csv_text(header, rows) -> str:
    """The CLI's CSV text as csv.writer writes it, newline-terminated."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# -- the CLI's CSV and SVG texts built whole, as the library built them -------------
#
# Each command's lines (or elements) built first, then joined into one string;
# the CLI now streams the same bytes in chunks from the integer data.


def oracle_csv_join(header, rows) -> str:
    """A CSV text with one line per tuple, every field through %s, joined once."""
    line = ",".join(["%s"] * len(header)) + "\n"
    return "".join([line % row for row in [header, *rows]])


def oracle_skeleton_text(n) -> tuple:
    """The coordinates of the circle point of the direction n = _phi(x) of a coprime
    pair, as str prints them: the sum is -2M, M = max |n_i|, and any other n_i is
    prime to M, so no gcd."""
    m = -min(n)
    return tuple(["0" if not c else "-1/2" if c == -m else f"{c // 2}/{m}" if c % 2 == 0
                  else f"{c}/{2 * m}" for c in n])


def oracle_boundary_lines(n: int) -> list:
    """The boundary listing's lines, one per point of the whole cycle from just after inf."""
    p, q = _orbit_cycle(n)
    cut = (2 << n) + 1  # just after inf, the third net
    return [f"{a},{b}\n" for a, b in zip(p[cut:] + p[:cut], q[cut:] + q[:cut])]


def oracle_skeleton_row(p: int, q: int) -> str:
    """The listing line "x1,x2,x3\n" of _circle_point(_phi((p, q))) for a coprime pair:
    -(a, q, c) / 2m with a = |p|, c = |p - q|, m their largest, and any other prime
    to m, so each is 0, -1/2, -(x/2)/m or -x/2m with no gcd."""
    a, c = abs(p), abs(p - q)
    m = max(a, q, c)
    fields = ["0" if not x else "-1/2" if x == m else f"-{x >> 1}/{m}" if x & 1 == 0
              else f"-{x}/{2 * m}" for x in (a, q, c)]
    return ",".join(fields) + "\n"


def oracle_skeleton_lines(n: int) -> list:
    """The skeleton listing's lines, one formula call per point of the whole orbit."""
    return [*map(oracle_skeleton_row, *_skeleton_columns(n))]


def oracle_pingpong_text(depth: int, side: str, stats: bool) -> str:
    if stats:
        rows = [(n, count, f"{delta:.12f}", f"{big_delta:.12f}")
                for n, (count, delta, big_delta) in enumerate(partition_table(depth, side))]
        return oracle_csv_join(("n", "count", "delta", "Delta"), rows)
    if side == "boundary":
        return oracle_csv_join(("p", "q"), partial_orbit_boundary(depth))
    rows = map(oracle_skeleton_text, oracle_skeleton_cycle(depth))
    return oracle_csv_join(("x1", "x2", "x3"), rows)


def oracle_rays_text(d, height: int) -> str:
    return oracle_csv_join(("g1", "g2", "g3"), exception_rays_punctured(d, height))


def oracle_grid_samples(params, grid: int, span) -> list:
    """(v1, v2, point, sorted cell names) per node of the plane grid, v2 outer, the
    point a Fraction lift."""
    values, den, lifts = _grid_lifts(params, grid, span)
    return [(v1, v2, tuple(Fraction(c, den) for c in y), sorted(c.value for c in cells))
            for (v2, v1), (y, cells) in zip(product(values, values), lifts)]


def oracle_skeleton_sample_text(params, grid: int, span, fmt: str) -> str:
    rows = oracle_grid_samples(params, grid, span)
    if fmt == "json":
        return oracle_json_text({
            "schema_version": 1, "command": "skeleton-sample", "params": str(params),
            "rows": [{"v1": str(v1), "v2": str(v2), "point": [str(c) for c in x], "cells": cells}
                     for v1, v2, x, cells in rows]})
    return oracle_csv_join(("v1", "v2", "x1", "x2", "x3", "cells"),
                           [(v1, v2, *x, "|".join(cells)) for v1, v2, x, cells in rows])


def oracle_svg_document(width: float, height: float, body: list) -> str:
    head = (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    )
    return "\n".join([head, *body, "</svg>", ""])


def oracle_skeleton_svg(params, grid: int, span) -> str:
    _, _, lifts = _grid_lifts(params, grid, span)
    size = 480.0
    cell_px = size / grid
    body = [f'<rect width="{_fmt(size)}" height="{_fmt(size)}" fill="#ffffff"/>']
    for k, (_, cells) in enumerate(lifts):
        color = _CELL_COLORS[cells[0]] if len(cells) == 1 else _MIXED_COLOR
        k2, k1 = divmod(k, grid)
        px = k1 / (grid - 1) * (size - cell_px)
        py = (grid - 1 - k2) / (grid - 1) * (size - cell_px)
        body.append(
            f'<rect x="{_fmt(px)}" y="{_fmt(py)}" width="{_fmt(cell_px)}" '
            f'height="{_fmt(cell_px)}" fill="{color}"/>'
        )
    return oracle_svg_document(size, size, body)


def oracle_farey_svg(d, depth: int) -> str:
    """The three panels built side by side, each triple's word made per cell."""
    scale = abs(Fraction(d)) / 2
    triples = farey_enumerate(depth - 1) if depth else []
    panel = 260.0
    margin = 30.0
    amax = max((c for t in triples for pair in (t.left, t.mid, t.right) for c in pair), default=1)
    num, den = (scale / max(scale * amax, Fraction(1, 10**9))).as_integer_ratio()
    inner = panel - 2 * margin
    oy = panel - margin
    origins = {cell: (cell - 1) * panel + margin for cell in (1, 2, 3)}
    panels = {cell: [
        f'<line x1="{_fmt(ox)}" y1="{_fmt(oy)}" x2="{_fmt(ox + panel - 2 * margin)}" '
        f'y2="{_fmt(oy)}" stroke="#000000" stroke-width="1"/>',
        f'<line x1="{_fmt(ox)}" y1="{_fmt(oy)}" x2="{_fmt(ox)}" '
        f'y2="{_fmt(margin)}" stroke="#000000" stroke-width="1"/>',
        f'<text x="{_fmt(ox)}" y="{_fmt(margin - 8)}" font-size="12">cell {cell}</text>',
    ] for cell, ox in origins.items()}
    for t in triples:
        for cell, ox in origins.items():
            pts = " ".join(
                f"{_fmt(ox + a * num / den * inner)},{_fmt(oy - b * num / den * inner)}"
                for a, b in (t.left, t.mid, t.right)
            )
            panels[cell].append(
                f'<polygon points="{pts}" fill="none" stroke="#08519c" '
                f'stroke-width="1"><title>{oracle_farey_word(t, cell)}</title></polygon>'
            )
    body = [f'<rect width="{_fmt(3 * panel)}" height="{_fmt(panel)}" fill="#ffffff"/>',
            *panels[1], *panels[2], *panels[3]]
    return oracle_svg_document(3 * panel, panel, body)


def oracle_tessellation_svg(depth: int) -> str:
    size = 480.0
    center = size / 2
    radius = size / 2 - 10
    body = [
        f'<rect width="{_fmt(size)}" height="{_fmt(size)}" fill="#ffffff"/>',
        f'<circle cx="{_fmt(center)}" cy="{_fmt(center)}" r="{_fmt(radius)}" '
        'fill="none" stroke="#000000" stroke-width="1"/>',
    ]
    angles = [2.0 * a for a in map(math.atan2, *_orbit_cycle(depth))]
    ends = [f"{_fmt(center + radius * math.cos(t))},{_fmt(center - radius * math.sin(t))}"
            for t in angles]

    def edge(a: int, b: int) -> str:
        gap = math.remainder(angles[b] - angles[a], 2 * math.pi)
        if abs(abs(gap) - math.pi) < 1e-12:
            path = f"M {ends[a]} L {ends[b]}"
        else:
            r = f"{radius * abs(math.tan(gap / 2)):.6f}"
            path = f"M {ends[a]} A {r},{r} 0 0,{1 if gap > 0 else 0} {ends[b]}"
        return f'<path d="{path}" fill="none" stroke="#08519c" stroke-width="0.8"/>'

    third = len(angles) // 3
    body += [edge(0, third), edge(third, 2 * third), edge(2 * third, 0)]
    for k in range(1, depth + 1):
        step = 1 << (depth - k)
        for j in range(step, len(angles), 2 * step):
            body += (edge(j - step, j), edge(j, (j + step) % len(angles)))
    return oracle_svg_document(size, size, body)
