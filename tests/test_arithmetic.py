import math
import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from tropmarkov.errors import DomainError, ResourceError
from tropmarkov.laurent import LaurentPoly
from tropmarkov.sampling import random_params, random_word
from tropmarkov.surface import CellId, Params, cell_has_interior, cells_of, on_skeleton
from tropmarkov.dynamics import Word
from tropmarkov.arithmetic import (
    LIFT_WORD_BOUND,
    SurfacePointL,
    compact_radius,
    enumerate_zp_points,
    fatou_condition,
    fatou_witness,
    lift_consistency,
    matrix_divergence,
    rational_vieta,
    surface_from_seed,
    v_partial_products,
    vieta_exact,
)

from conftest import assert_same_outcome, oracle_fatou_witness, oracle_on_surface, params_on_walls

F = Fraction
ZERO = LaurentPoly.zero()

laurent_polys = st.dictionaries(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-4, max_value=4, max_denominator=3), max_size=3,
).map(LaurentPoly)


def seed_point(*vals):
    polys = [LaurentPoly.parse(v) for v in vals]
    return surface_from_seed(polys[0], polys[1], polys[2], ZERO, ZERO, ZERO)


class TestFatou:
    def test_condition_examples(self):
        assert fatou_condition(Params.parse("0,0,0,-1"))
        assert not fatou_condition(Params.parse("0,0,0,0"))
        assert not fatou_condition(Params.parse("1,1,1,3"))

    def test_witness_examples(self):
        assert fatou_witness(Params.parse("inf,inf,inf,-3")) == (F(-1), F(-1), F(-1))
        w = fatou_witness(Params.parse("0,0,0,-1"))
        assert w == (F(-1, 3), F(-1, 3), F(-1, 3))

    def test_witness_postconditions(self):
        rng = random.Random(101)
        produced = 0
        for _ in range(300):
            params = random_params(rng)
            assert fatou_condition(params) == cell_has_interior(params, CellId.D)
            if not fatou_condition(params):
                with pytest.raises(DomainError):
                    fatou_witness(params)
                continue
            x = fatou_witness(params)
            assert sum(x) == params.d.finite
            assert on_skeleton(params, x)
            assert cells_of(params, x) == {CellId.D}
            produced += 1
        assert produced > 40

    @given(params_on_walls())
    @example(Params.parse("-2,inf,inf,-3"))
    @example(Params.parse("inf,inf,inf,0"))
    def test_witness_matches_extrat_oracle(self, params):
        assert_same_outcome(fatou_witness, oracle_fatou_witness, params)

    def test_witness_matches_extrat_oracle_on_a_grid(self):
        # Every (a, b, c) from a grid holding the walls e = d/2 and e = e',
        # where the symmetric point often ties and the interval bounds bind.
        values = ("inf", "-5", "-4", "-3", "-2", "-1/2", "0", "1")
        for d in ("-6", "-2", "0", "inf"):
            for a, b, c in product(values, repeat=3):
                params = Params.parse(f"{a},{b},{c},{d}")
                assert_same_outcome(fatou_witness, oracle_fatou_witness, params)

    def test_asymmetric_witness(self):
        params = Params.parse("-2,inf,inf,-3")
        x = fatou_witness(params)
        assert cells_of(params, x) == {CellId.D}


class TestExactVieta:
    def test_seed_examples(self):
        assert seed_point("t^-1", "t^-1", "t^-1").D == LaurentPoly.parse("3*t^-2 + t^-3")
        assert seed_point("t^-1", "t^-2", "t^-1").D == LaurentPoly.parse("2*t^-2 + 2*t^-4")
        assert seed_point("0", "0", "0").D == ZERO

    def test_involution_and_division_form(self):
        P = seed_point("t^-1", "t^-1", "t^-1")
        Q = vieta_exact(1, P)
        assert Q.X1 == LaurentPoly.parse("-t^-1 - t^-2")
        assert vieta_exact(1, Q).X1 == P.X1
        assert Q.X1 * P.X1 == (
            P.X2.square() + P.X3.square() - P.B * P.X2 - P.C * P.X3 - P.D
        )
        assert Q == SurfacePointL(Q.X1, Q.X2, Q.X3, Q.A, Q.B, Q.C, Q.D)

    @given(st.lists(laurent_polys, min_size=6, max_size=6),
           st.lists(st.sampled_from((1, 2, 3)), max_size=5))
    @settings(deadline=None)
    def test_every_prefix_stays_on_the_surface(self, polys, letters):
        # vieta_exact skips the identity check; recheck it after every letter.
        point = surface_from_seed(*polys)
        assert oracle_on_surface(point)
        for g in Word.reduce(letters).applied_order():
            point = vieta_exact(g, point)
            assert oracle_on_surface(point)

    def test_surface_invariant_enforced(self):
        with pytest.raises(DomainError):
            SurfacePointL(
                LaurentPoly.constant(1), LaurentPoly.constant(1), LaurentPoly.constant(1),
                ZERO, ZERO, ZERO, LaurentPoly.constant(7),
            )


class TestLiftConsistency:
    def test_single_step_example(self):
        P = seed_point("t^-1", "t^-1", "t^-1")
        report = lift_consistency(P, Word.parse("s1"))
        assert report.ok and report.precondition_ok
        step = report.steps[0]
        assert step.exact_valuations[0] == -2
        assert step.tropical == (F(-2), F(-1), F(-1))

    def test_length_six_word(self):
        P = seed_point("t^-1", "t^-1", "t^-1")
        report = lift_consistency(P, Word.parse("s2 s1 s3 s1 s2 s1"))
        assert report.ok
        assert all(s.match for s in report.steps)

    def test_prefixes_are_the_letters_applied_so_far(self):
        P = seed_point("t^-1", "t^-1", "t^-1")
        word = Word.parse("s2 s1 s3 s1 s3 s2 s1 s2 s1")
        report = lift_consistency(P, word)
        letters = word.letters
        assert [s.prefix for s in report.steps] == [
            Word(letters[len(letters) - k:]) for k in range(1, len(letters) + 1)]
        assert [str(s.prefix) for s in report.steps][:3] == ["s1", "s2 s1", "s1 s2 s1"]

    def test_word_length_bound(self):
        # The length is checked before any step, so even a billion-letter word
        # fails at once.  At the bound, a constant seed keeps the replay cheap.
        P = seed_point("t^-1", "t^-1", "t^-1")
        for word in (Word.from_runs([(1, 2, LIFT_WORD_BOUND + 1)]),
                     Word.from_runs([(1, 2, 10**9)])):
            with pytest.raises(ResourceError, match="exceeds the configured bound"):
                lift_consistency(P, word)
        at_bound = Word.from_runs([(1, 2, LIFT_WORD_BOUND)])
        report = lift_consistency(seed_point("1", "1", "1"), at_bound)
        assert len(report.steps) == LIFT_WORD_BOUND

    @pytest.mark.parametrize("seed, last", [
        ("9" * 4300 + "*t^-1", 6),
        ("t^-" + "6" * 4300, 7),
        ("+".join(f"t^-{k}" for k in range(1, 20)), 8),
    ], ids=["long coefficient", "long exponent", "many terms"])
    def test_step_cost_bound(self, seed, last):
        # Each step is checked before it is taken; the steps before it run.
        word = Word.parse(" ".join(f"s{1 + k % 3}" for k in range(LIFT_WORD_BOUND)))
        with pytest.raises(ResourceError, match=f"exact step {last + 1} of 12 exceeds"):
            lift_consistency(seed_point(seed, "t^-1", "t^-1"), word)
        shorter = Word(word.letters[LIFT_WORD_BOUND - last:])
        assert len(lift_consistency(seed_point(seed, "t^-1", "t^-1"), shorter).steps) == last

    def test_step_cost_bound_admits_the_bound_word(self):
        word = Word.parse(" ".join(f"s{1 + k % 3}" for k in range(LIFT_WORD_BOUND)))
        for seed in (("t^-1", "t^-1", "t^-1"), ("1/3*t^-1", "2/5*t^-2", "t^-1")):
            assert len(lift_consistency(seed_point(*seed), word).steps) == LIFT_WORD_BOUND

    def test_boundary_seed_flags_precondition(self):
        # Valuation vector (-1,-1,-2) lands on the boundary of the D cell.
        P = seed_point("t^-1", "t^-1", "t^-2")
        report = lift_consistency(P, Word.parse("s1"))
        assert not report.precondition_ok
        assert not report.ok

    def test_random_seeds(self):
        rng = random.Random(103)
        for _ in range(15):
            exps = _interior_exponents(rng)
            seeds = []
            for e in exps:
                coeffs = {e: F(rng.randint(1, 5))}
                if rng.random() < 0.7:
                    coeffs[e + rng.randint(1, 3)] = F(rng.randint(-4, 4) or 1)
                seeds.append(LaurentPoly(coeffs))
            P = surface_from_seed(*seeds, ZERO, ZERO, ZERO)
            w = random_word(rng, rng.randint(1, 8))
            report = lift_consistency(P, w)
            assert report.precondition_ok
            assert report.ok


def _interior_exponents(rng):
    while True:
        exps = tuple(rng.randint(-5, -1) for _ in range(3))
        if all(sum(exps) < 2 * e for e in exps):
            return exps


class TestMatrixDivergence:
    def test_constant_signs_stay_bounded(self):
        assert matrix_divergence([1, 1, 1]) == [0, 0, 0]
        assert matrix_divergence([-1] * 5) == [0] * 5

    def test_alternating_signs_diverge(self):
        mins = matrix_divergence([1, -1] * 6)
        assert mins == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
        assert all(b > a for a, b in zip(mins[2:], mins[3:]))

    def test_alternating_product_is_convergent_matrix(self):
        # Blocks of length 1 encode [1; 1, 1, ...]: the product carries two
        # consecutive convergents, row-swapped when the block count is even.
        convergents = [(1, 1), (2, 1), (3, 2), (5, 3), (8, 5), (13, 8)]

        def rows(ell):
            (pl, ql), (pm, qm) = convergents[ell], convergents[ell - 1]
            return ((ql, pl), (qm, pm))

        five = v_partial_products([1, -1, 1, -1, 1])[-1]
        assert five == rows(4)  # ell = 4 even: convergent rows directly
        six = v_partial_products([1, -1, 1, -1, 1, -1])[-1]
        assert six == (rows(5)[1], rows(5)[0])  # ell = 5 odd: swapped

    def test_partial_products_nonnegative_nondecreasing(self):
        rng = random.Random(107)
        for _ in range(1000):
            signs = [rng.choice((1, -1)) for _ in range(30)]
            mins = matrix_divergence(signs)
            assert all(m >= 0 for m in mins)
            assert all(b >= a for a, b in zip(mins, mins[1:]))


def _zp_cases(max_nmax):
    """Every (p, D = m/p^K) with p in {2, 3, 5, 7}, p not dividing m, D < 1/3
    and enumeration box half-width nmax = isqrt(3 m p^K - 1) at most max_nmax."""
    cases = []
    for p in (2, 3, 5, 7):
        pk = p
        while 3 * pk <= (max_nmax + 1) ** 2:
            cases += [(p, F(m, pk)) for m in range(1, pk)
                      if m % p and 3 * m < pk and math.isqrt(3 * m * pk - 1) <= max_nmax]
            pk *= p
    return cases


_SIGN_FLIPS = ((1, 1, 1), (-1, -1, 1), (-1, 1, -1), (1, -1, -1))


class TestZpEnumeration:
    def test_empty_cases(self):
        assert enumerate_zp_points(2, F(1, 4)) == []
        assert enumerate_zp_points(2, F(1, 8)) == []

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            enumerate_zp_points(2, F(1, 2))  # D >= 1/3
        with pytest.raises(DomainError):
            enumerate_zp_points(2, F(1, 3))  # not in Z[1/2]

    def test_nonempty_case_contains_symmetric_point(self):
        pts = enumerate_zp_points(2, F(11, 64))
        coords = {z.coords for z in pts}
        assert (F(-1, 4), F(-1, 4), F(-1, 4)) in coords
        for z in pts:
            assert sum(c * c for c in z.coords) < compact_radius(F(11, 64))
            x1, x2, x3 = z.coords
            assert x1 * x1 + x2 * x2 + x3 * x3 + x1 * x2 * x3 == F(11, 64)

    def test_vieta_closure_of_outputs(self):
        D = F(11, 64)
        for z in enumerate_zp_points(2, D):
            for i in (1, 2, 3):
                y = rational_vieta(i, z.coords, D)
                assert y[0] ** 2 + y[1] ** 2 + y[2] ** 2 + y[0] * y[1] * y[2] == D
                for c in y:
                    den = c.denominator
                    while den % 2 == 0:
                        den //= 2
                    assert den == 1

    def test_matches_brute_force_oracle(self):
        from conftest import brute_force_zp_points

        for p, D in ((2, F(1, 4)), (2, F(5, 16)), (2, F(11, 64)), (3, F(1, 9))):
            ours = [(z.coords, z.exponents) for z in enumerate_zp_points(p, D)]
            assert ours == brute_force_zp_points(p, D)

    @given(st.sampled_from(_zp_cases(40)))
    @settings(max_examples=100, deadline=None)
    def test_matches_cubic_box_scan(self, case):
        from conftest import oracle_zp_points_cubic

        p, D = case
        assert enumerate_zp_points(p, D) == oracle_zp_points_cubic(p, D)

    @given(st.sampled_from(_zp_cases(128)))
    @settings(max_examples=100, deadline=None)
    def test_closed_under_permutations_and_sign_pairs(self, case):
        # Both maps preserve x1^2+x2^2+x3^2, x1 x2 x3 and every |x_i|.
        p, D = case
        points = {z.coords: z.exponents for z in enumerate_zp_points(p, D)}
        for coords, exps in points.items():
            for order in permutations(range(3)):
                for signs in _SIGN_FLIPS:
                    image = tuple(s * coords[k] for s, k in zip(signs, order))
                    assert points.get(image) == tuple(exps[k] for k in order)

    def test_benchmark_anchors(self):
        from conftest import oracle_zp_points_cubic

        for p, D, count in ((7, F(2, 49), 12), (2, F(5, 256), 24)):
            pts = enumerate_zp_points(p, D)
            assert len(pts) == count
            assert pts == oracle_zp_points_cubic(p, D)

    def test_double_roots_listed_once(self):
        # At D = 79/256 the quadratic in n3 has a double root for eight pairs
        # (n1, n2): the points with 2 x3 + x1 x2 = 0, fixed by the third
        # Vieta involution.  264 is the cubic box scan's count (nmax 246).
        D = F(79, 256)
        pts = enumerate_zp_points(2, D)
        coords = [z.coords for z in pts]
        assert len(coords) == len(set(coords)) == 264
        tangent = [x for x in coords if 2 * x[2] + x[0] * x[1] == 0]
        assert len(tangent) == 8
        assert (F(-1, 2), F(-1, 4), F(-1, 16)) in tangent


class TestCompactRadius:
    def test_examples(self):
        assert compact_radius(F(1, 4)) == F(3, 4)
        assert compact_radius(F(1, 3)) == 1
        with pytest.raises(DomainError):
            compact_radius(F(5))

    def test_symmetric_slice_roots_respect_bound(self):
        # Roots of 3t^2 + t^3 = D near the origin parametrise the symmetric
        # points of the compact component; isolate them by sign changes.
        D = F(1, 4)
        roots = _isolate_roots(lambda t: 3 * t * t + t**3 - D, F(-1), F(1))
        assert len(roots) == 2
        for lo, hi in roots:
            assert 3 * max(lo * lo, hi * hi) < compact_radius(D) + F(1, 1000)


def _isolate_roots(f, lo, hi, pieces=64, depth=40):
    roots = []
    step = (hi - lo) / pieces
    for k in range(pieces):
        a, b = lo + k * step, lo + (k + 1) * step
        fa, fb = f(a), f(b)
        if fa == 0:
            roots.append((a, a))
            continue
        if fa * fb < 0:
            for _ in range(depth):
                mid = (a + b) / 2
                if f(a) * f(mid) <= 0:
                    b = mid
                else:
                    a = mid
            roots.append((a, b))
    return roots
