import math
import random
import re
import time
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from conftest import (
    _oracle_farey_children,
    oracle_descent_farey_word,
    oracle_exception_rays_punctured,
    oracle_matches_exception_ray,
    oracle_farey_triples,
    oracle_farey_word,
    oracle_reduce_to_nets,
    oracle_table_orbit_triangles,
)
from tropmarkov import classifier as classifier_module, dynamics
from tropmarkov.errors import DomainError, ResourceError, UsageError
from tropmarkov.sampling import random_params, random_skeleton_point
from tropmarkov.scalars import continued_fraction
from tropmarkov.surface import CellId, Params, on_skeleton
from tropmarkov.dynamics import Word, apply_word, u_coords
from tropmarkov.classifier import (
    _farey_word,
    _t_orbit,
    FAREY_ROOT,
    FareyTriple,
    classify,
    exception_rays_punctured,
    farey_enumerate,
    farey_triangle,
    index_shift_bruteforce,
    index_shift_cf,
    punctured_torus_in_U,
    slope_T,
    stopping_time,
    table_orbit_triangles,
)
from tropmarkov.dynamics import greedy_path
from tropmarkov.hyperbolic import _colour_runs, _farey_runs, _orbit_cycle, reduce_to_nets
from tropmarkov.svgout import farey_svg

F = Fraction
PT = Params.parse("inf,inf,inf,-2")


def pt(*coords):
    return tuple(F(c) for c in coords)


class TestSlopeTransformation:
    def test_examples(self):
        assert slope_T(F(2, 3)) == F(1, 2)
        assert slope_T(1).is_infinite
        assert slope_T(2) == 1
        assert slope_T(0).is_infinite

    def test_infinite_input_rejected(self):
        from tropmarkov.scalars import INF

        with pytest.raises(DomainError):
            slope_T(INF)

    def test_stopping_time_examples(self):
        assert stopping_time(1) == 1
        assert stopping_time(F(2, 3)) == 3
        assert stopping_time(2) == 2

    def test_stopping_time_rejects_zero(self):
        with pytest.raises(DomainError):
            stopping_time(0)

    def test_index_shift_examples(self):
        assert index_shift_bruteforce(1) == 1
        assert index_shift_bruteforce(2) == 2
        assert index_shift_bruteforce(F(2, 3)) == -1
        assert index_shift_cf(2) == 2
        assert index_shift_cf(F(1, 2)) == 0
        assert index_shift_cf(F(2, 3)) == -1
        assert index_shift_cf(1) == 1

    def test_bruteforce_step_bound(self, monkeypatch):
        # Past STEP_BOUND steps the T-orbit count raises before its first step.
        start = time.perf_counter()
        with pytest.raises(ResourceError, match="exceeds the configured bound"):
            index_shift_bruteforce(F(10**9))
        assert time.perf_counter() - start < 1
        monkeypatch.setattr(dynamics, "STEP_BOUND", 100)
        for at_bound in (F(100), F(2501, 50), F(1, 100)):  # [100], [50; 50], [0; 100]
            assert stopping_time(at_bound) == 100
            assert index_shift_bruteforce(at_bound) == index_shift_cf(at_bound)
        for past in (F(101), F(2551, 51), F(1, 101)):  # [101], [50; 51], [0; 101]
            with pytest.raises(ResourceError):
                index_shift_bruteforce(past)

    def test_formula_matches_bruteforce_spotcheck(self):
        for p in range(1, 41):
            for q in range(1, 41):
                if math.gcd(p, q) != 1:
                    continue
                m = F(p, q)
                assert index_shift_cf(m) == index_shift_bruteforce(m)
                assert stopping_time(m) == len(_t_orbit(m)) == sum(continued_fraction(m).terms)


class TestClassify:
    def test_borderline_not_in_U(self):
        report = classify(PT, pt(-2, -3, -5))
        assert report.cell is CellId.X3SQ
        assert report.slope == F(2, 3)
        assert report.gamma == 1
        assert report.delta == -1
        assert report.relevant_ray == 1
        assert not report.in_U
        assert report.certificate == Word.parse("s1 s2 s3")

    def test_scaled_point_in_U(self):
        report = classify(PT, pt(F(-1, 2), F(-3, 4), F(-5, 4)))
        assert report.in_U
        assert report.gamma == F(1, 4)
        trace = greedy_path(PT, pt(F(-1, 2), F(-3, 4), F(-5, 4)))
        assert trace.kind == "subquadratic"

    def test_ray_point(self):
        report = classify(PT, pt(0, -1, -1))
        assert not report.in_U
        assert report.relevant_ray == 1
        assert report.certificate.is_identity
        assert report.ray_parameter == -1

    def test_junction_point_is_a_ray_point(self):
        report = classify(PT, pt(-1, -1, 0))
        assert not report.in_U and report.relevant_ray == 3

    def test_subquadratic_interior_in_U(self):
        report = classify(Params.parse("inf,inf,inf,-3"), pt(-1, -1, -1))
        assert report.in_U and report.cell is CellId.D
        assert report.certificate.is_identity

    def test_holomorphic_rejected(self):
        with pytest.raises(DomainError):
            classify(Params.parse("0,0,0,0"), pt(0, 0, 0))

    def test_int_points_report_as_fraction_points(self):
        # u_slope divides exactly, so int coordinates give the Fraction report:
        # a quadratic point (slope 2/3), a ray point and a subquadratic point.
        for params, x in ((PT, (-2, -3, -5)), (PT, (0, -1, -1)),
                          (Params.parse("inf,inf,inf,-3"), (-1, -1, -1))):
            assert classify(params, x) == classify(params, pt(*x))

    def test_relevant_ray_matches_greedy_terminal(self):
        from conftest import orbit_reaches_ray

        rng = random.Random(83)
        hits = 0
        for _ in range(200):
            params = random_params(rng, meromorphic=True)
            x = random_skeleton_point(rng, params)
            report = classify(params, x)
            assert report.in_U == (not orbit_reaches_ray(params, x))
            trace = greedy_path(params, x)
            if trace.kind == "ray" and report.delta is not None:
                assert trace.ray_index == report.relevant_ray
                hits += 1
        assert hits > 20


class TestPuncturedTorus:
    def test_examples(self):
        assert not punctured_torus_in_U(F(-2), pt(-2, -3, -5))
        assert punctured_torus_in_U(F(-2), pt(F(-1, 2), F(-3, 4), F(-5, 4)))
        assert not punctured_torus_in_U(F(-2), pt(-6, -9, -15))

    def test_scaling_law(self):
        x = pt(-2, -3, -5)
        gamma = F(1)  # gcd of difference coordinates of x
        flip = F(1) / gamma  # t with t*gamma = |d|/2 = 1
        eps = F(1, 100)
        assert punctured_torus_in_U(F(-2), tuple((flip - eps) * c for c in x))
        assert not punctured_torus_in_U(F(-2), tuple(flip * c for c in x))
        assert not punctured_torus_in_U(F(-2), tuple((flip + eps) * c for c in x))

    def test_agrees_with_classify(self):
        rng = random.Random(89)
        d = F(-2)
        for _ in range(150):
            x = random_skeleton_point(rng, PT)
            assert punctured_torus_in_U(d, x) == classify(PT, x).in_U

    def test_rejects_nonnegative_d(self):
        with pytest.raises(DomainError):
            punctured_torus_in_U(F(1), pt(-1, -1, 0))


class TestExceptionRays:
    def test_height_one_generators(self):
        gens = exception_rays_punctured(F(-2), 1)
        expected = {
            pt(-1, 0, -1), pt(0, -1, -1), pt(-1, -1, 0),
            pt(-1, -1, -2), pt(-2, -1, -1), pt(-1, -2, -1),
        }
        assert set(gens) == expected

    def test_generators_are_skeletal_and_not_in_U(self):
        for g in exception_rays_punctured(F(-2), 4):
            assert on_skeleton(PT, g)
            assert not classify(PT, g).in_U

    def test_matches_fraction_sort(self):
        # Sorting the integer patterns and scaling once lists the same rows,
        # in the same order, as scaling every pattern and sorting Fractions.
        for d in (F(-2), F(-3), F(-1, 2), F(-7, 3)):
            for height in range(21):
                assert exception_rays_punctured(d, height) == oracle_exception_rays_punctured(
                    d, height)

    def test_direction_pattern_of_example(self):
        # (-2,-3,-5) = (d/2)(q,p,p+q) with (p,q) = (3,2).
        assert oracle_matches_exception_ray(F(-2), pt(-2, -3, -5))
        assert not oracle_matches_exception_ray(F(-2), pt(F(-1, 2), F(-3, 4), F(-5, 4)))
        assert oracle_matches_exception_ray(F(-2), pt(-6, -9, -15))


class TestFarey:
    def test_enumerate_depths(self):
        assert farey_enumerate(0) == [FAREY_ROOT]
        depth1 = farey_enumerate(1)
        assert FareyTriple((0, 1), (1, 2), (1, 1)) in depth1
        assert FareyTriple((1, 1), (2, 1), (1, 0)) in depth1
        for n in range(5):
            assert len(farey_enumerate(n)) == 2 ** (n + 1) - 1

    def test_enumerate_matches_mediant_bfs(self):
        for n in range(11):
            assert farey_enumerate(n) == oracle_farey_triples(n)

    def test_enumerated_triples_pass_the_checks(self):
        # farey_enumerate builds its triples past __post_init__; each must be
        # one the public constructor accepts, and behave as a frozen value.
        triples = farey_enumerate(10)
        assert [FareyTriple(t.left, t.mid, t.right) for t in triples] == triples
        assert len(set(triples)) == len(triples)
        with pytest.raises(FrozenInstanceError):
            triples[0].mid = (2, 1)

    def test_invalid_triples_rejected(self):
        with pytest.raises(DomainError):
            FareyTriple((0, 1), (1, 2), (1, 0))  # mediant law broken
        with pytest.raises(DomainError):
            FareyTriple((1, 0), (1, 1), (0, 1))  # determinant +1, not -1
        with pytest.raises(DomainError):
            FareyTriple((2, 2), (3, 3), (1, 1))  # not coprime
        with pytest.raises(DomainError):
            FareyTriple((-1, 1), (-1, 2), (0, 1))  # mediant and unimodular, but negative

    def test_root_triangle(self):
        word, verts = farey_triangle(FAREY_ROOT, 1, F(-2))
        assert word == Word.parse("s1")
        assert verts == ((F(0), F(1)), (F(1), F(1)), (F(1), F(0)))

    def test_length_two_triangles(self):
        word, verts = farey_triangle(FareyTriple((1, 1), (2, 1), (1, 0)), 1, F(-2))
        assert len(word) == 2
        assert set(verts) == {(F(1), F(1)), (F(2), F(1)), (F(1), F(0))}
        word2, verts2 = farey_triangle(FareyTriple((1, 2), (2, 3), (1, 1)), 1, F(-2))
        assert set(verts2) == {(F(1), F(2)), (F(2), F(3)), (F(1), F(1))}

    def test_scaling_by_d(self):
        _, verts = farey_triangle(FAREY_ROOT, 1, F(-3))
        assert verts == ((F(0), F(3, 2)), (F(3, 2), F(3, 2)), (F(3, 2), F(0)))

    @given(st.lists(st.booleans(), max_size=60))
    @example([])
    @example([True] * 60)
    @example([False, True] * 30)
    @example([True, True, False, True, False, False, False, True])
    def test_words_match_letter_route(self, path):
        # The triple down a Stern-Brocot path (True: right child): one
        # factorisation shifted to the three cells against the letter-by-letter
        # route, factorised once per cell.
        triple = FAREY_ROOT
        for right in path:
            triple = _oracle_farey_children(triple)[right]
        for i in (1, 2, 3):
            word, _ = farey_triangle(triple, i, F(-2))
            expected = oracle_farey_word(triple, i)
            assert word == expected and word.runs == expected.runs and str(word) == str(expected)

    def test_huge_partial_quotient(self):
        # One step per partial quotient: the height 10^12 costs one step.
        # The boundary label of 1/n, n even, is s2 s3 s2 ... (n - 1 letters) on inf,
        # as the move loop of conftest finds for each even n up to 100.
        n = 10**12
        triple = FareyTriple((0, 1), (1, n), (1, n - 1))
        for i in (1, 2, 3):
            assert farey_triangle(triple, i, F(-2))[0] == Word.from_runs([(i, i % 3 + 1, n)])
        assert reduce_to_nets((1, n)) == (Word.from_runs([(2, 3, n - 1)]), (1, 0))
        for m in range(2, 101, 2):
            assert oracle_reduce_to_nets((1, m)) == (Word.from_runs([(2, 3, m - 1)]), (1, 0))
        # By the cusp 1, mediants (n + 1)/n and (n - 1)/n, n even, in closed form, as
        # the V-monoid factorisation finds for each even n up to 100.
        for n in (*range(2, 101, 2), 10**12, 10**100):
            for i in (1, 2, 3):
                nxt, prv = i % 3 + 1, (i + 1) % 3 + 1
                cusp = {FareyTriple((1, 1), (n + 1, n), (n, n - 1)):
                        Word.from_runs([(i, 0, 1), (prv, nxt, n)]),
                        FareyTriple((n - 2, n - 1), (n - 1, n), (1, 1)):
                        Word.from_runs([(i, 0, 1), (nxt, prv, n - 1)])}
                for triple, word in cusp.items():
                    assert farey_triangle(triple, i, F(-2))[0] == word
                    if n <= 100:
                        assert oracle_farey_word(triple, i) == word

    def test_words_match_descent_at_depth_16(self):
        # The cell-1 word of every depth-16 triple against the conftest height
        # descent, and its runs shifted to cells 2 and 3, as farey_triangle shifts them.
        # The runs are compared as _farey_runs cuts them: maximal, as the oracle's are.
        shifts = {i: {0: 0, 1: i, 2: i % 3 + 1, 3: (i + 1) % 3 + 1} for i in (2, 3)}
        for t in farey_enumerate(16):
            runs = _farey_runs(t.mid)
            expected = oracle_descent_farey_word(t.mid).runs
            assert runs == expected
            for i, shift in shifts.items():
                assert _farey_word(runs, i).runs == tuple(
                    (shift[a], shift[b], n) for a, b, n in expected)

    def test_unchecked_cut_matches_from_runs(self):
        # reduce_to_nets, farey_triangle and table_orbit_triangles cut the runs the
        # library made with no checks; Word.from_runs checks the same runs, then cuts.
        for p, q in zip(*_orbit_cycle(12)):
            runs = _colour_runs(abs(p), q) if p and q else []
            expected = Word.from_runs([(3, 0, 1), *runs] if p < 0 else runs)
            assert reduce_to_nets((p, q))[0].runs == expected.runs
        table = table_orbit_triangles(F(-2), 13)
        for k, t in enumerate(farey_enumerate(12)):
            colour_path = [(4 - a, 4 - b, n) for a, b, n in _colour_runs(*t.mid)]
            runs = Word.from_runs([(1, 0, 1), *colour_path]).runs
            for i in (1, 2, 3):
                expected = _farey_word(runs, i).runs
                assert farey_triangle(t, i, F(-2))[0].runs == table[i][k][0].runs == expected

    def test_words_verified_by_dynamics(self):
        d = F(-2)
        params = Params.make("inf", "inf", "inf", d)
        half = abs(d) / 2
        corners = [pt(d / 2, d / 2, 0), pt(d / 2, 0, d / 2), pt(0, d / 2, d / 2)]
        for triple in farey_enumerate(4):
            for i in (1, 2, 3):
                word, verts = farey_triangle(triple, i, d)
                images = sorted(u_coords(i, apply_word(params, word, c)) for c in corners)
                expected = sorted(
                    (half * a, half * b) for a, b in (triple.left, triple.mid, triple.right))
                assert images == expected


class TestTableOrbit:
    def test_depth_zero_and_negative(self):
        assert table_orbit_triangles(F(-2), 0) == {1: [], 2: [], 3: []}
        with pytest.raises(UsageError):
            table_orbit_triangles(F(-2), -1)

    def test_depth_one(self):
        tri = table_orbit_triangles(F(-2), 1)
        for cell in (1, 2, 3):
            assert len(tri[cell]) == 1
            word, verts = tri[cell][0]
            assert word == Word((cell,))
            # The root triple's vertices (left, mediant, right).
            assert verts == ((F(0), F(1)), (F(1), F(1)), (F(1), F(0)))

    def test_depth_two_matches_known_vertex_sets(self):
        tri = table_orbit_triangles(F(-2), 2)
        cell1 = {frozenset(v) for w, v in tri[1] if len(w) == 2}
        assert cell1 == {
            frozenset({(F(0), F(1)), (F(1), F(1)), (F(1), F(2))}),
            frozenset({(F(1), F(0)), (F(2), F(1)), (F(1), F(1))}),
        }

    def test_counts(self):
        tri = table_orbit_triangles(F(-2), 5)
        for cell in (1, 2, 3):
            for n in range(1, 6):
                assert sum(1 for w, _ in tri[cell] if len(w) == n) == 2 ** (n - 1)

    def test_orbit_triangles_are_the_farey_triangles(self):
        # The Farey-orbit correspondence: the words of length <= D that end in
        # cell i, found by a search over transit matrices, are the words of
        # the depth-(D-1) triples in that cell; only the order differs.
        for d in (F(-2), F(-3), F(-1, 2), F(-7, 3), F(-3, 7), F(-10)):
            for depth in range(8):
                tri = table_orbit_triangles(d, depth)
                oracle = oracle_table_orbit_triangles(d, depth)
                for cell in (1, 2, 3):
                    entries = [(w, frozenset(v)) for w, v in tri[cell]]
                    assert len(set(entries)) == len(entries)
                    assert set(entries) == {(w, frozenset(v)) for w, v in oracle[cell]}

    def test_farey_triangle_per_triple_with_d_checked_once(self, monkeypatch):
        d = F(-7, 3)
        triples = farey_enumerate(5)
        expected = {i: [farey_triangle(t, i, d) for t in triples] for i in (1, 2, 3)}
        checked = []
        check = classifier_module._punctured_half
        monkeypatch.setattr(classifier_module, "_punctured_half",
                            lambda d: checked.append(d) or check(d))
        assert table_orbit_triangles(d, 6) == expected
        assert checked == [d]

    def test_words_verified_by_dynamics(self):
        d = F(-2)
        corners = [pt(-1, -1, 0), pt(-1, 0, -1), pt(0, -1, -1)]
        tri = table_orbit_triangles(d, 3)
        for cell in (1, 2, 3):
            for word, verts in tri[cell]:
                images = sorted(u_coords(cell, apply_word(PT, word, c)) for c in corners)
                assert images == sorted(verts)


class TestFareySvg:
    """The panels scale integer vertex entries by one ratio; the Fraction
    route divides each vertex coordinate of `table_orbit_triangles` by the
    largest one (at least 10^-9) and floats the quotient."""

    digits = st.integers(min_value=0, max_value=30).map(lambda k: 10**k)

    @given(st.tuples(digits, digits, st.integers(min_value=1, max_value=999)),
           st.integers(min_value=0, max_value=5))
    @example((1, 10**22, 1), 3)  # |d|/2 * amax far below the clamp at 10^-9
    @example((1, 10**9, 2), 1)  # umax = 10^-9 exactly
    @example((1, 10**9, 1), 1)  # half of it, clamped
    @example((10**30, 1, 7), 4)
    def test_matches_fraction_route(self, sizes, depth):
        num, den, k = sizes
        d = -F(num * k, den)
        tri = table_orbit_triangles(d, depth)
        umax = max((c for per_cell in tri.values() for _, verts in per_cell
                    for v in verts for c in v), default=F(1))
        umax = max(umax, F(1, 10**9))
        expected = []
        for cell in (1, 2, 3):
            ox, oy = (cell - 1) * 260.0 + 30.0, 230.0
            for word, verts in tri[cell]:
                pts = " ".join(f"{ox + float(u / umax) * 200.0:.4f},{oy - float(v / umax) * 200.0:.4f}"
                               for u, v in verts)
                expected.append((pts, str(word)))
        got = re.findall(r'<polygon points="([^"]*)"[^>]*><title>([^<]*)</title>',
                         "".join(farey_svg(d, depth)))
        assert got == expected
