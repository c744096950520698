import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from tropmarkov.errors import DomainError, UsageError
from tropmarkov.sampling import random_params, random_skeleton_point
from tropmarkov.scalars import ExtRat
from tropmarkov.surface import (
    CELL_ORDER,
    CellId,
    Params,
    QUADRATIC_CELLS,
    SUBQUADRATIC_CELLS,
    cell_has_interior,
    cells_of,
    f0,
    fixed_set_point,
    in_tropicalization,
    is_meromorphic,
    level_set_shift,
    lift_from_plane,
    nxt,
    on_boundary_ray,
    on_skeleton,
    plane_grid,
    plane_point,
    project_to_plane,
    prv,
    quadratic_cell,
    ray_point,
    thresholds,
    trop_poly_f,
    _grid_lifts,
    _lift_on_lattice,
    _threshold,
)
from tropmarkov.dynamics import trop_vieta

from conftest import (
    WALL_FRACTIONS,
    assert_same_outcome,
    oracle_cell_has_interior,
    oracle_cells_of,
    oracle_f0,
    oracle_in_tropicalization,
    oracle_is_meromorphic,
    oracle_lift_from_plane,
    oracle_fixed_set_point,
    oracle_monomial_values,
    oracle_on_boundary_ray,
    oracle_thresholds,
    oracle_trop_poly_f,
    oracle_trop_vieta,
    params_on_walls,
)

F = Fraction
PT = Params.parse("inf,inf,inf,-2")  # punctured-torus style parameters


def pt(*coords):
    return tuple(F(c) for c in coords)


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=40)
params_with_inf = st.lists(st.one_of(st.just("inf"), rationals), min_size=4, max_size=4).map(
    lambda entries: Params.make(*entries))


class TestTropPolynomial:
    def test_trop_poly_examples(self):
        assert trop_poly_f(PT, pt(-1, -1, 0)) == -2
        assert trop_poly_f(Params.parse("0,0,0,0"), pt(0, 0, 0)) == 0
        assert trop_poly_f(Params.parse("inf,inf,-3/2,-2"), pt(0, 0, 0)) == -2

    def test_f0_examples(self):
        assert f0(PT, pt(-1, -1, 0)) == 0
        assert f0(Params.parse("0,0,0,0"), pt(0, 0, 0)) == 0
        assert f0(PT, pt(-2, -3, -5)) == 0
        assert f0(PT, pt(-1, -1, -1)) == 1

    def test_membership_examples(self):
        assert on_skeleton(PT, pt(-1, -1, 0))
        assert not on_skeleton(PT, pt(1, 1, 1))
        assert not on_skeleton(PT, pt(-1, -1, -1))

    def test_fin_points_are_tropical_but_not_skeletal(self):
        # (x, t, t) with x >= 0 sits on the tropicalization fins.
        x = pt(1, -1, -1)
        assert in_tropicalization(PT, x)
        assert not on_skeleton(PT, x)
        assert not in_tropicalization(PT, pt(1, 1, 1))


class TestAgainstExtRatOracle:
    """The finite-monomial evaluators against the seven-ExtRat-monomial oracle.

    The involution law alone cannot catch a dropped or extra monomial: any
    x_i -> m - x_i with m free of x_i is an involution.
    """

    small = st.fractions(min_value=-6, max_value=6, max_denominator=4)

    @given(st.integers(min_value=0, max_value=2**16), small, small, small)
    @settings(max_examples=200)
    def test_evaluators_on_r3(self, seed, x1, x2, x3):
        params = random_params(random.Random(seed))
        x = (x1, x2, x3)
        level, poly = f0(params, x), trop_poly_f(params, x)
        assert type(level) is Fraction and level == oracle_f0(params, x)
        assert type(poly) is Fraction and poly == oracle_trop_poly_f(params, x)
        assert in_tropicalization(params, x) == oracle_in_tropicalization(params, x)
        assert on_skeleton(params, x) == (oracle_f0(params, x) == 0)
        for i in (1, 2, 3):
            assert trop_vieta(params, i, x) == oracle_trop_vieta(params, i, x)

    @given(st.integers(min_value=0, max_value=2**16), small, small)
    @settings(max_examples=200)
    def test_cells_on_skeleton(self, seed, v1, v2):
        params = random_params(random.Random(seed))
        x = lift_from_plane(params, 0, plane_point(v1, v2))
        assert cells_of(params, x) == oracle_cells_of(params, x)


class TestAgainstDictOracle:
    """The CELL_ORDER-slot evaluators against the CellId-keyed Fraction monomials
    they replace (conftest), on coarse lattices where cells tie: lifts of plane
    points, points of the rays R_i and points of R^3 off the skeleton."""

    coarse = st.fractions(min_value=-6, max_value=6, max_denominator=2)
    coarse_params = st.lists(st.one_of(st.just("inf"), coarse), min_size=4, max_size=4).map(
        lambda entries: Params.make(*entries))

    @given(coarse_params, coarse, coarse, coarse, st.sampled_from(("lift", "ray", "r3")),
           st.sampled_from((1, 2, 3)))
    @settings(max_examples=300)
    @example(Params.parse("inf,inf,inf,inf"), F(0), F(0), F(0), "lift", 1)  # X1^2, X2^2, X3^2
    @example(PT, F(0), F(0), F(0), "ray", 3)  # (-1, -1, 0): X1^2, X2^2 and D
    @example(Params.parse("-4,inf,inf,-2"), F(0), F(0), F(0), "lift", 1)
    @example(Params.parse("1,-2,inf,3"), F(-3, 2), F(1, 2), F(0), "lift", 2)
    @example(Params.parse("-1,-1,-1,-2"), F(0), F(0), F(0), "lift", 1)
    def test_slots_match_dict_route(self, params, v1, v2, v3, kind, i):
        if kind == "lift":
            x = lift_from_plane(params, 0, plane_point(v1, v2))
        elif kind == "ray":
            x = ray_point(i, _threshold(params, i) - abs(v1))
        else:
            x = (v1, v2, v3)
        values, s = oracle_monomial_values(params, x), sum(x)
        least = min(values.values())
        eight = [*values.values(), s]
        assert f0(params, x) == least - s and on_skeleton(params, x) == (least == s)
        assert trop_poly_f(params, x) == min(eight)
        assert in_tropicalization(params, x) == (eight.count(min(eight)) >= 2)
        if least == s:
            assert cells_of(params, x) == {c for c, v in values.items() if v == s}
        else:
            with pytest.raises(DomainError, match="is not on the skeleton of"):
                cells_of(params, x)
        for g in (1, 2, 3):
            own = (quadratic_cell(g), SUBQUADRATIC_CELLS[g - 1])
            y = list(x)
            y[g - 1] = min(v for c, v in values.items() if c not in own) - x[g - 1]
            assert trop_vieta(params, g, x) == tuple(y)


class TestCells:
    def test_cells_examples(self):
        assert cells_of(PT, pt(-2, -3, -5)) == {CellId.X3SQ}
        assert cells_of(Params.parse("inf,inf,inf,-3"), pt(-1, -1, -1)) == {CellId.D}
        # The ray endpoint (0,-1,-1) also ties the D monomial (d = sum = -2).
        assert cells_of(PT, pt(0, -1, -1)) == {CellId.X2SQ, CellId.X3SQ, CellId.D}

    def test_cells_off_skeleton_rejected(self):
        with pytest.raises(DomainError):
            cells_of(PT, pt(1, 1, 1))

    def test_interior_examples(self):
        assert cell_has_interior(PT, CellId.D)
        assert not cell_has_interior(Params.parse("0,0,0,0"), CellId.D)
        assert cell_has_interior(Params.parse("0,0,0,0"), CellId.X1SQ)
        assert cell_has_interior(Params.parse("-4,inf,inf,-2"), CellId.AX1)
        assert not cell_has_interior(PT, CellId.AX1)

    def test_quadratic_plane_law_and_subquadratic_bound(self):
        rng = random.Random(7)
        for _ in range(200):
            params = random_params(rng)
            x = random_skeleton_point(rng, params)
            cells = cells_of(params, x)
            assert cells
            s = sum(x)
            for i, cell in enumerate(QUADRATIC_CELLS, start=1):
                if cell in cells:
                    assert 2 * x[i - 1] == s
            lowbar = min(
                2 * params.a, 2 * params.b, 2 * params.c, params.d,
                key=lambda e: (e.is_infinite, e.finite if not e.is_infinite else 0),
            )
            if ExtRat(s) < lowbar:
                assert cells <= set(QUADRATIC_CELLS)

    def test_interior_iff_singleton_by_perturbation(self):
        # Perturbing inside the cell's plane must keep a singleton cell
        # unchanged, and must break at least one tie of a boundary point.
        rng = random.Random(11)
        eps = F(1, 2**20)
        plane_dirs = {
            CellId.X1SQ: ((1, 1, 0), (1, 0, 1)),
            CellId.X2SQ: ((1, 1, 0), (0, 1, 1)),
            CellId.X3SQ: ((1, 0, 1), (0, 1, 1)),
            CellId.AX1: ((1, 0, 0), (0, 1, -1)),
            CellId.BX2: ((0, 1, 0), (1, 0, -1)),
            CellId.CX3: ((0, 0, 1), (1, -1, 0)),
            CellId.D: ((1, -1, 0), (0, 1, -1)),
        }
        checked_interior = 0
        for _ in range(300):
            params = random_params(rng)
            x = random_skeleton_point(rng, params, span=4, max_den=6)
            cells = cells_of(params, x)
            if len(cells) != 1:
                continue
            cell = next(iter(cells))
            for direction in plane_dirs[cell]:
                for sign in (1, -1):
                    y = tuple(c + sign * eps * d for c, d in zip(x, direction))
                    assert on_skeleton(params, y)
                    assert cells_of(params, y) == cells
            checked_interior += 1
        assert checked_interior > 50

    def test_interior_criteria_match_feasibility_oracle(self):
        rng = random.Random(23)
        for _ in range(200):
            params = random_params(rng, span=3, max_den=3)
            assert cell_has_interior(params, CellId.D) == _d_cell_feasible(params)


def _d_cell_feasible(params) -> bool:
    """Interval-elimination feasibility for the six strict inequalities of the
    D cell on the plane x1+x2+x3 = d; independent of the closed-form test."""
    a, b, c, d = params.a, params.b, params.c, params.d
    if d.is_infinite:
        return False
    dv = d.finite
    # Constraints on x2 after eliminating x1 (x3 = d - x1 - x2):
    lo2 = [dv / 2]
    if not b.is_infinite:
        lo2.append(dv - b.finite)
    hi2 = [F(0)]
    for bound in (c - dv / 2, a - dv / 2, a + c - dv):
        if not bound.is_infinite:
            hi2.append(bound.finite)
    if max(lo2) >= min(hi2):
        return False
    x2 = (max(lo2) + min(hi2)) / 2
    lo1 = [dv / 2]
    if not a.is_infinite:
        lo1.append(dv - a.finite)
    hi1 = [dv / 2 - x2]
    if not c.is_infinite:
        hi1.append(c.finite - x2)
    if max(lo1) >= min(hi1):
        return False
    x1 = (max(lo1) + min(hi1)) / 2
    x3 = dv - x1 - x2
    # Final direct verification of all six strict inequalities.
    checks = [2 * x1 > dv, 2 * x2 > dv, 2 * x3 > dv]
    for coeff, xi in ((a, x1), (b, x2), (c, x3)):
        checks.append(coeff.is_infinite or coeff.finite + xi > dv)
    return all(checks)


class TestThresholdsAndRays:
    def test_threshold_examples(self):
        assert thresholds(PT) == (ExtRat(-1), ExtRat(-1), ExtRat(-1))
        assert thresholds(Params.parse("0,0,0,0")) == (ExtRat(0),) * 3
        assert thresholds(Params.parse("-4,inf,inf,-2")) == (
            ExtRat(-2), ExtRat(-4), ExtRat(-4))

    def test_ray_examples(self):
        assert on_boundary_ray(PT, 1, pt(0, -1, -1))
        assert not on_boundary_ray(PT, 1, pt(0, F(-1, 2), F(-1, 2)))
        params = Params.parse("-4,inf,1/2,-2")
        t = thresholds(params)[2].finite - 1
        assert on_boundary_ray(params, 3, pt(t, t, 0))

    @given(st.integers(min_value=0, max_value=2**16), st.sampled_from((1, 2, 3)),
           st.fractions(min_value=0, max_value=6, max_denominator=4))
    @settings(max_examples=200)
    def test_ray_iff_both_other_squares(self, seed, i, below):
        # classify reads ray membership off the cells through greedy_path.
        rng = random.Random(seed)
        params = random_params(rng)
        t = thresholds(params)[i - 1].finite - below
        for x in (ray_point(i, t), random_skeleton_point(rng, params)):
            cells = cells_of(params, x)
            for j in (1, 2, 3):
                pair = {quadratic_cell(nxt(j)), quadratic_cell(prv(j))}
                assert on_boundary_ray(params, j, x) == (pair <= cells)

    def test_ray_points_lie_on_skeleton(self):
        rng = random.Random(3)
        for _ in range(100):
            params = random_params(rng)
            i = rng.choice((1, 2, 3))
            t = thresholds(params)[i - 1].finite - F(rng.randint(0, 12), rng.randint(1, 5))
            from tropmarkov.surface import ray_point

            x = ray_point(i, t)
            assert on_boundary_ray(params, i, x)
            assert on_skeleton(params, x)


class TestFoliation:
    def test_lift_examples(self):
        assert lift_from_plane(PT, 0, plane_point(0, 0)) == pt(F(-2, 3), F(-2, 3), F(-2, 3))
        assert lift_from_plane(Params.parse("0,0,0,0"), 0, plane_point(0, 0)) == pt(0, 0, 0)

    def test_project_examples(self):
        assert project_to_plane(pt(-1, -1, -1)) == pt(0, 0, 0)
        assert project_to_plane(pt(-2, -3, -5)) == (F(4, 3), F(1, 3), F(-5, 3))
        assert project_to_plane(pt(0, -1, -1)) == (F(2, 3), F(-1, 3), F(-1, 3))

    @given(
        st.fractions(min_value=-8, max_value=8, max_denominator=12),
        st.fractions(min_value=-8, max_value=8, max_denominator=12),
        st.fractions(min_value=-4, max_value=4, max_denominator=8),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=120)
    def test_round_trip(self, v1, v2, w, seed):
        params = random_params(random.Random(seed))
        v = plane_point(v1, v2)
        x = lift_from_plane(params, w, v)
        assert f0(params, x) == w
        assert project_to_plane(x) == v

    def test_skeleton_sample_round_trip(self):
        rng = random.Random(5)
        for _ in range(50):
            params = random_params(rng)
            x = random_skeleton_point(rng, params)
            assert lift_from_plane(params, 0, project_to_plane(x)) == x

    def test_nonpositivity(self):
        rng = random.Random(13)
        for _ in range(200):
            params = random_params(rng)
            w = F(rng.randint(0, 8), rng.randint(1, 4))
            v = plane_point(
                F(rng.randint(-20, 20), 4), F(rng.randint(-20, 20), 4))
            x = lift_from_plane(params, w, v)
            x1, x2, x3 = x
            assert w + x1 <= -abs(x2 - x3)
            assert w + x2 <= -abs(x3 - x1)
            assert w + x3 <= -abs(x1 - x2)
            assert all(c <= 0 for c in x)


class TestLatticeLift:
    """The integer lift, the one-threshold helper and is_meromorphic against
    the ExtRat formulas they replace (conftest)."""

    @given(params_with_inf, rationals, rationals, rationals)
    @settings(max_examples=200)
    @example(PT, F(0), F(0), F(0))
    @example(Params.parse("inf,inf,inf,inf"), F(1, 3), F(-2, 7), F(5, 2))
    def test_lift_matches_extrat_formula(self, params, v1, v2, w):
        v = plane_point(v1, v2)
        x = lift_from_plane(params, w, v)
        assert x == oracle_lift_from_plane(params, w, v)
        assert all(type(c) is Fraction for c in x)

    @given(params_with_inf, rationals, rationals, rationals,
           st.integers(1, 12), st.integers(1, 12), st.integers(1, 12))
    @settings(max_examples=200)
    @example(Params.parse("inf,inf,inf,inf"), F(1, 3), F(-2, 7), F(0), 1, 1, 1)
    @example(Params.parse("1/2,-5/3,inf,-7/4"), F(-3, 4), F(5, 6), F(-1, 2), 4, 6, 3)
    def test_lattice_core_matches_validated_lift(self, params, v1, v2, w, k1, k2, kw):
        # The core on pairs scaled by k (not in lowest terms) lifts to the
        # same point as lift_from_plane on the reduced Fractions.
        x = _lift_on_lattice(params, kw * w.numerator, kw * w.denominator,
                             k1 * v1.numerator, k1 * v1.denominator,
                             k2 * v2.numerator, k2 * v2.denominator)
        assert x == lift_from_plane(params, w, (v1, v2, -v1 - v2))
        assert all(type(c) is Fraction for c in x)
        assert f0(params, x) == w

    @given(params_with_inf, st.integers(2, 6), rationals.filter(lambda r: r != 0))
    @settings(max_examples=100)
    @example(Params.parse("1/7,-5/3,inf,-7/4"), 5, F(5, 3))
    @example(Params.parse(f"1/{10**40 + 1},-2,inf,3"), 4, F(10**40))
    def test_grid_samples_match_lift_and_cells_of(self, params, grid, span):
        # The grid lifted on one lattice, cells by int comparison, against one
        # validated lift and one Fraction cells_of per node.
        values = plane_grid(grid, span)
        expected = [(v1, v2, x, [c for c in CELL_ORDER if c in cells_of(params, x)])
                    for v2 in values for v1 in values
                    for x in [lift_from_plane(params, 0, (v1, v2, -v1 - v2))]]
        values, den, lifts = _grid_lifts(params, grid, span)
        assert [(v1, v2, tuple(F(c, den) for c in y), cells) for (v2, v1), (y, cells)
                in zip(product(values, values), lifts)] == expected

    @given(params_with_inf)
    @settings(max_examples=150)
    @example(Params.parse("inf,inf,inf,inf"))
    @example(Params.parse("0,inf,inf,inf"))
    def test_threshold_and_mode_match_extrat_formulas(self, params):
        assert thresholds(params) == oracle_thresholds(params)
        assert [_threshold(params, i) for i in (1, 2, 3)] == [
            t.finite for t in oracle_thresholds(params)]
        assert is_meromorphic(params) == oracle_is_meromorphic(params)

    def test_bad_input_raises_usage_error(self):
        with pytest.raises(UsageError):
            lift_from_plane(PT, 0, (F(1), F(1), F(1)))
        with pytest.raises(UsageError):
            on_boundary_ray(PT, 4, pt(0, -1, -1))


class TestFixedSets:
    def test_example_point(self):
        x = fixed_set_point(PT, 1, 0, 0)
        assert trop_vieta(PT, 1, x) == x
        assert f0(PT, x) == 0
        assert x[1] - x[2] == 0

    def test_transverse_coordinate_and_level(self):
        rng = random.Random(17)
        for _ in range(150):
            params = random_params(rng)
            i = rng.choice((1, 2, 3))
            w = F(rng.randint(-6, 6), rng.randint(1, 4))
            u = F(rng.randint(-12, 12), rng.randint(1, 4))
            x = fixed_set_point(params, i, w, u)
            assert trop_vieta(params, i, x) == x
            assert f0(params, x) == w
            assert x[i % 3] - x[(i + 1) % 3] == u


class TestParameterFormulasAgainstExtRat:
    """The formulas on Fraction-or-None parameters against their ExtRat forms,
    with a, b, c, d each +inf or finite and on the walls of the inequalities."""

    @given(params_on_walls())
    @example(Params.parse("0,0,0,0"))
    @example(Params.parse("-1,-1,inf,-2"))
    @example(Params.parse("inf,inf,inf,inf"))
    def test_cell_has_interior(self, params):
        for cell in CELL_ORDER:
            assert cell_has_interior(params, cell) == oracle_cell_has_interior(params, cell)

    @given(params_on_walls(), WALL_FRACTIONS, WALL_FRACTIONS)
    @example(Params.parse("inf,inf,inf,inf"), F(0), F(0))
    def test_fixed_set_point(self, params, w, u):
        for i in (0, 1, 2, 3, 4):
            assert_same_outcome(fixed_set_point, oracle_fixed_set_point, params, i, w, u)
        for i in (1, 2, 3):
            assert all(type(c) is F for c in fixed_set_point(params, i, w, u))

    @given(params_on_walls(), st.integers(min_value=0, max_value=4),
           st.sampled_from(("on", "below", "above", "off")), WALL_FRACTIONS)
    def test_on_boundary_ray(self, params, i, where, v):
        # x is R_j's point at the threshold (on the wall), below or above it,
        # or a point of the ray's line with one coordinate moved off it.
        j = i if i in (1, 2, 3) else 1
        t = oracle_thresholds(params)[j - 1].finite
        t += {"on": 0, "below": -abs(v) - 1, "above": abs(v) + 1, "off": v}[where]
        x = [t, t, t]
        x[j - 1] = F(0)
        if where == "off":
            x[j % 3] += 1
        assert_same_outcome(on_boundary_ray, oracle_on_boundary_ray, params, i, tuple(x))


class TestModesAndShifts:
    def test_examples(self):
        assert is_meromorphic(PT)
        assert not is_meromorphic(Params.parse("0,0,0,0"))
        shifted = level_set_shift(PT, 1)
        assert shifted == Params.make("inf", "inf", "inf", 0)

    def test_shift_matches_level_sets(self):
        rng = random.Random(29)
        for _ in range(50):
            params = random_params(rng)
            w = F(rng.randint(-4, 4), rng.randint(1, 3))
            v = plane_point(F(rng.randint(-8, 8), 2), F(rng.randint(-8, 8), 2))
            x = lift_from_plane(params, w, v)
            shifted = tuple(c + w for c in x)
            assert on_skeleton(level_set_shift(params, w), shifted)

    def test_degenerate_translate_threshold(self):
        # {f0 = w} is a translated fully-degenerate skeleton iff
        # w >= -min(a, b, c, d/2).
        params = PT
        crit = ExtRat(1)  # -min(inf, inf, inf, -1)
        for w in (F(1), F(2)):
            shifted = level_set_shift(params, w)
            assert not is_meromorphic(shifted) if w >= crit.finite else True
        assert is_meromorphic(level_set_shift(params, F(1, 2)))
