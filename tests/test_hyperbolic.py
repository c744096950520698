import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import example, given, settings, strategies as st

from tropmarkov.classifier import _farey_word
from tropmarkov.errors import DomainError, ResourceError, UsageError
from tropmarkov.dynamics import Word, _runs_text
from tropmarkov.scalars import continued_fraction
from tropmarkov import hyperbolic
from tropmarkov.svgout import tessellation_svg
from tropmarkov.hyperbolic import (
    DEPTH_BOUND,
    SKELETON_DIRECTIONS,
    SKELETON_NETS,
    apply_reflection_word,
    bpoint,
    order_isomorphism_check,
    partial_orbit_boundary,
    partial_orbit_skeleton,
    partition_stats,
    partition_table,
    reduce_to_nets,
    reflect_boundary,
    skeleton_direction_act,
    _boundary_lines,
    _circle_point,
    _farey_line,
    _farey_listing,
    _farey_runs,
    _orbit_cycle,
    _phi,
    _skeleton_plane,
    _skeleton_columns,
    _skeleton_lines,
    _skeleton_text,
    _triangles,
)

from conftest import (
    BOUNDARY_CCW,
    BOUNDARY_NETS,
    ORACLE_SKELETON_CCW,
    assert_same_outcome,
    bpoint_from_rational,
    height,
    oracle_angular_cmp,
    oracle_apply_reflection_word,
    oracle_boundary_angle,
    oracle_boundary_key,
    oracle_boundary_lines,
    oracle_descent_label,
    oracle_direction_act,
    oracle_geodesic_points,
    oracle_labels,
    oracle_order_isomorphism_check,
    oracle_orbit_cycle,
    oracle_plane_vector,
    oracle_plane_xy,
    oracle_realise,
    oracle_reduce_to_nets,
    oracle_reflect_boundary,
    oracle_skeleton_angle,
    oracle_skeleton_cycle,
    oracle_skeleton_lines,
    oracle_skeleton_text,
    oracle_skeleton_direction_act,
    oracle_skeleton_sorted,
    oracle_tessellation_triangles,
    oracle_tower,
)

F = Fraction


def skeleton_cycle(n):
    """The depth-n skeleton orbit as integer directions, from angle 0."""
    return [_phi(x) for x in zip(*_skeleton_columns(n))]


def cycle_points(n):
    """The depth-n boundary cycle as a list of pairs."""
    return list(zip(*_orbit_cycle(n)))


projective_points = st.tuples(
    st.integers(min_value=-60, max_value=60), st.integers(min_value=-60, max_value=60)
).filter(lambda pq: pq != (0, 0)).map(lambda pq: bpoint(*pq))


class TestReflections:
    def test_examples(self):
        assert reflect_boundary(3, bpoint_from_rational(1)) == (-1, 1)
        assert reflect_boundary(2, bpoint_from_rational("inf")) == (1, 2)
        assert reflect_boundary(1, bpoint_from_rational(0)) == (2, 1)

    @given(projective_points, st.sampled_from((1, 2, 3)))
    def test_involutions(self, x, i):
        assert reflect_boundary(i, reflect_boundary(i, x)) == x

    @given(projective_points)
    def test_composite_translations(self, x):
        p, q = x
        # r3 then r1 acts as z + 2; r1 then r3 as z - 2.
        assert reflect_boundary(1, reflect_boundary(3, x)) == bpoint(p + 2 * q, q)
        assert reflect_boundary(3, reflect_boundary(1, x)) == bpoint(p - 2 * q, q)
        # r3 then r2 acts as z / (2z + 1).
        assert reflect_boundary(2, reflect_boundary(3, x)) == bpoint(p, 2 * p + q)

    def test_net_stabilizers(self):
        for i, net in BOUNDARY_NETS.items():
            for j in (1, 2, 3):
                fixed = reflect_boundary(j, net) == net
                assert fixed == (j != i)


class TestReduction:
    def test_examples(self):
        word, net = reduce_to_nets(bpoint_from_rational(F(3, 5)))
        assert net == (1, 1)
        assert apply_reflection_word(word, net) == (3, 5)

        word, net = reduce_to_nets(bpoint_from_rational(0))
        assert net == (0, 1) and word.is_identity

        word, net = reduce_to_nets(bpoint_from_rational(2))
        assert net == (0, 1) and word == Word((1,))

    def test_height_bound_and_replay_small(self):
        for p in range(-60, 61):
            for q in range(0, 61):
                if math.gcd(abs(p), q) != 1 or (p, q) == (0, 0):
                    continue
                x = bpoint(p, q)
                word, net = reduce_to_nets(x)
                assert len(word) <= 2 * height(x)
                assert apply_reflection_word(word, net) == x
                assert net in ((0, 1), (1, 1), (1, 0))


def _from_terms(terms, sign) -> tuple[int, int]:
    """The pair p/q of the continued fraction [t0; t1, ...] with the sign."""
    p, q = terms[-1], 1
    for t in reversed(terms[:-1]):
        p, q = t * p + q, p
    return (sign * p, q)


class TestReductionRuns:
    """reduce_to_nets jumps each run of one move; the move loop in conftest
    takes two reflections per unit of height."""

    @given(st.integers(min_value=-3000, max_value=3000),
           st.integers(min_value=0, max_value=3000))
    @example(-1, 1)
    @example(1, 2)
    @example(-1, 2)
    @example(1, 0)
    @example(0, 1)
    def test_matches_move_loop_on_pairs(self, p, q):
        if (p, q) == (0, 0):
            return
        assert reduce_to_nets((p, q)) == oracle_reduce_to_nets((p, q))

    @given(st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=5),
           st.sampled_from((1, -1)), st.booleans())
    def test_matches_move_loop_on_partial_quotients(self, terms, sign, invert):
        p, q = _from_terms(terms, sign)
        x = bpoint(q * sign, abs(p)) if invert else (p, q)
        word, net = reduce_to_nets(x)
        assert (word, net) == oracle_reduce_to_nets(x)
        assert apply_reflection_word(word, net) == bpoint(*x)

    def test_one_run_per_partial_quotient(self):
        word, net = reduce_to_nets((10**9, 1))
        assert net == (0, 1) and len(word) == 10**9 - 1 and len(word.runs) == 1
        small, small_net = oracle_reduce_to_nets((10**3, 1))
        assert reduce_to_nets((10**3, 1)) == (small, small_net) and len(small) == 10**3 - 1
        # [0; 10^6, 10^6, 10^6]: a few runs for three huge partial quotients.
        x = _from_terms([10**6, 10**6, 10**6], 1)
        word, net = reduce_to_nets((x[1], x[0]))
        assert len(word.runs) <= 6 and len(word) <= 2 * height(x)
        # By the cusp 1, where a height descent takes one letter per step: (n + 1)/n,
        # (n - 1)/n and -(n + 1)/n, n even, in closed form, as the move loop finds
        # for each even n up to 100.
        for n in (*range(2, 101, 2), 10**12, 10**100):
            cusp = {(n + 1, n): Word.from_runs([(1, 2, n)]),
                    (n - 1, n): Word.from_runs([(2, 1, n - 1)]),
                    (-n - 1, n): Word.from_runs([(3, 0, 1), (1, 2, n)])}
            for x, word in cusp.items():
                assert reduce_to_nets(x) == (word, (1, 0))
                if n <= 100:
                    assert oracle_reduce_to_nets(x) == (word, (1, 0))

    @given(st.lists(st.integers(min_value=1, max_value=10**40), min_size=1, max_size=8),
           st.sampled_from((1, -1)), st.booleans())
    @example([1, 10**40], -1, False)
    @example([10**40, 10**40], 1, True)
    def test_runs_within_partial_quotients(self, terms, sign, invert):
        p, q = _from_terms(terms, 1)
        x = (sign * q, p) if invert else (sign * p, q)
        word, net = reduce_to_nets(x)
        assert len(word.runs) <= len(continued_fraction(F(abs(x[0]), x[1])).terms)
        assert apply_reflection_word(word, net) == x

    def test_matches_descent_on_the_depth_16_cycle(self):
        for x in zip(*_orbit_cycle(16)):
            assert reduce_to_nets(x) == oracle_descent_label(x)

    def test_matches_descent_on_random_pairs(self):
        rng = random.Random(31)
        pairs = [(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) for _ in range(20000)]
        for x in pairs:
            assert reduce_to_nets(x) == oracle_descent_label(x)


class TestReplayByRuns:
    """apply_reflection_word takes one step per run; conftest replays letters."""

    # Runs as (first letter, second letter, length); long runs on purpose.
    runs = st.lists(st.tuples(st.sampled_from(list(itertools.permutations((1, 2, 3), 2))),
                              st.integers(min_value=1, max_value=300)), max_size=6)

    @given(runs, st.tuples(st.integers(min_value=-10**6, max_value=10**6),
                           st.integers(min_value=-10**6, max_value=10**6)))
    @example([], (2, 4))
    @example([], (-3, -6))
    @example([((1, 3), 5)], (1, 0))
    @example([((2, 3), 4)], (-1, 0))
    def test_matches_letter_replay(self, runs, x):
        if x == (0, 0):
            return
        letters = [pair[k % 2] for pair, n in runs for k in range(n)]
        word = Word.reduce(letters)
        assert apply_reflection_word(word, x) == oracle_apply_reflection_word(word, x)

    def test_identity_word_normalises(self):
        assert apply_reflection_word(Word(), (2, 4)) == (1, 2)
        assert apply_reflection_word(Word(), (-2, 0)) == (1, 0)
        with pytest.raises(UsageError):
            apply_reflection_word(Word(), (0, 0))
        with pytest.raises(UsageError):
            apply_reflection_word(Word((1, 2)), (0, 0))

    def test_billion_letter_word_replays(self):
        word, net = reduce_to_nets((10**9, 1))
        assert apply_reflection_word(word, net) == (10**9, 1)
        x = _from_terms([10**6, 10**6, 10**6], -1)
        word, net = reduce_to_nets(x)
        assert apply_reflection_word(word, net) == x


class TestPartialOrbits:
    def test_boundary_examples(self):
        assert partial_orbit_boundary(0) == [(0, 1), (1, 1), (1, 0)]
        p1 = set(partial_orbit_boundary(1))
        assert p1 == {(0, 1), (1, 1), (1, 0), (2, 1), (1, 2), (-1, 1)}
        assert len(partial_orbit_boundary(3)) == 24

    def test_skeleton_nets(self):
        s0 = partial_orbit_skeleton(0)
        assert set(s0) == set(SKELETON_NETS.values())
        s1 = set(partial_orbit_skeleton(1))
        for i, net in SKELETON_NETS.items():
            assert skeleton_direction_act(i, net) in s1

    def test_counts(self):
        for n in range(8):
            assert len(set(partial_orbit_boundary(n))) == 3 * 2**n
            assert len(set(partial_orbit_skeleton(n))) == 3 * 2**n

    def test_depth_bound(self):
        with pytest.raises(ResourceError):
            partial_orbit_boundary(17)

    def test_orbit_points_are_valid_directions(self):
        for x in partial_orbit_skeleton(4):
            assert sum(x) == -1
            assert all(c <= 0 for c in x)
            assert min(2 * x[0], 2 * x[1], 2 * x[2]) == -1


def _boundary_interval_refinement(n):
    cur = partial_orbit_boundary(n)
    nxt = partial_orbit_boundary(n + 1)
    fresh = set(nxt) - set(cur)
    keys = [oracle_boundary_key(x) for x in cur]
    counts = []
    for k in range(len(cur)):
        lo = keys[k]
        hi = keys[(k + 1) % len(cur)]
        if k + 1 < len(cur):
            inside = sum(1 for y in fresh if lo < oracle_boundary_key(y) < hi)
        else:
            inside = sum(
                1 for y in fresh
                if oracle_boundary_key(y) > lo or oracle_boundary_key(y) < hi
            )
        counts.append(inside)
    return counts


def _skeleton_interval_refinement(n):
    cur = partial_orbit_skeleton(n)
    fresh = set(partial_orbit_skeleton(n + 1)) - set(cur)
    merged = oracle_skeleton_sorted(list(fresh) + list(cur))
    positions = [k for k, x in enumerate(merged) if x in set(cur)]
    counts = []
    for a, b in zip(positions, positions[1:] + [positions[0] + len(merged)]):
        counts.append(b - a - 1)
    return counts


class TestPartitions:
    def test_refinement_boundary(self):
        for n in range(6):
            assert _boundary_interval_refinement(n) == [1] * (3 * 2**n)

    def test_refinement_skeleton(self):
        for n in range(6):
            assert _skeleton_interval_refinement(n) == [1] * (3 * 2**n)

    def test_stats_examples(self):
        delta, big = partition_stats(0, "boundary")
        assert delta <= 2 * math.pi / 3 + 1e-12
        assert abs(big - math.pi) < 1e-12

    def test_delta_bound_and_monotone(self):
        for side in ("boundary", "skeleton"):
            prev = None
            for n in range(9):
                delta, big = partition_stats(n, side)
                assert delta <= 2 * math.pi / (3 * 2**n) + 1e-12
                if prev is not None:
                    assert big < prev
                prev = big

    @given(st.tuples(st.integers(-10**12, 10**12), st.integers(0, 10**12))
           .filter(lambda x: math.gcd(*x) == 1))
    @example((-3, 5))
    @example((7, 2))
    @example((1, 0))
    @example((-1, 0))
    @settings(max_examples=300)
    def test_skeleton_plane_matches_phi(self, x):
        # The tables read (p, q) through _skeleton_plane; the circle point is _phi((p, q)).
        px, py, s = _skeleton_plane(*x)
        n = _phi(x)
        assert (px, py) == oracle_plane_xy(n) and s == -sum(n)
        assert math.atan2(py / s, px / s) == oracle_skeleton_angle(n)
        assert (py > 0 or (py == 0 and px > 0), px, py) == oracle_plane_vector(n)

    def test_depth_ten_decay_beats_one_eighth(self):
        for side in ("boundary", "skeleton"):
            assert partition_stats(10, side)[1] < partition_stats(0, side)[1] / 8

    def test_levels_ascend_round_the_cycle(self):
        # partition_table reads every level in cycle order and adds 2 pi at its one
        # step down.  So at every depth and level the float angles it reads, the
        # boundary ones and the skeleton ones negated (_phi reverses the
        # orientation), must ascend strictly round the cycle save one step, which
        # on the boundary is the step on from 1/0, at index 2^(k+1).
        for n in range(DEPTH_BOUND + 1):
            p, q = _orbit_cycle(n)
            skeleton = [-math.atan2(y / s, x / s) for x, y, s in map(_skeleton_plane, p, q)]
            for side, angles in (("boundary", hyperbolic._boundary_angles(n)),
                                 ("skeleton", skeleton)):
                for k in range(n + 1):
                    level = angles[::2**(n - k)]
                    downs = [i for i, (a, b) in enumerate(zip(level, level[1:] + level[:1]))
                             if b <= a]
                    assert len(downs) == 1, (side, n, k)
                    if side == "boundary":
                        assert downs == [2 << k]


class TestOrderIsomorphism:
    def test_small_depths(self):
        for n in range(6):
            assert order_isomorphism_check(n)

    def test_swapped_neighbours_fail(self, monkeypatch):
        # The check reads the order off the cycle, in either orientation.  Two
        # neighbouring points swapped, or one point repeated in place of its
        # neighbour (a tie), at every position in turn must fail it.
        def check_on(columns):
            monkeypatch.setattr(hyperbolic, "_orbit_cycle", lambda k: columns)
            return order_isomorphism_check(n)

        for n in range(2, 7):
            for cycle in (_orbit_cycle(n), tuple(c[::-1] for c in _orbit_cycle(n))):
                assert check_on(cycle)
                for j in range(1, len(cycle[0])):
                    swapped = tuple(c[:j - 1] + [c[j], c[j - 1]] + c[j + 1:] for c in cycle)
                    repeated = tuple(c[:j] + [c[j - 1]] + c[j + 1:] for c in cycle)
                    assert not check_on(swapped) and not check_on(repeated), (n, j)

    def test_orbit_distinctness_depth8(self):
        # The listings have 3 * 2^n entries by construction; distinct entries
        # pin injectivity of the label realisation.
        assert len(set(partial_orbit_boundary(8))) == 3 * 2**8
        assert len(set(partial_orbit_skeleton(8))) == 3 * 2**8


def _direction(a, b):
    """The circle point whose plane image is a multiple of the difference
    from the centre (-1/3, -1/3, -1/3) by (a, b, -a-b)."""
    third = F(-1, 3)
    return (third + a, third + b, third - a - b)


def _comparator_sorted(points):
    return sorted(points, key=cmp_to_key(
        lambda u, v: oracle_angular_cmp(oracle_plane_xy(u), oracle_plane_xy(v))))


class TestAgainstSlowPaths:
    """The mediant-refined orbit cycle against the sorted label tower, and the
    tower and its exact sort key against the seed's routes: per-label word
    replay and the cross-product comparator."""

    small = st.fractions(min_value=-3, max_value=3, max_denominator=6)

    def test_skeleton_order_on_orbits(self):
        for n in range(7):
            points = list(set(oracle_tower(SKELETON_NETS, oracle_skeleton_direction_act, n)))
            assert oracle_skeleton_sorted(points) == _comparator_sorted(points)

    @given(st.lists(st.tuples(small, small).filter(lambda ab: ab != (0, 0)), max_size=30),
           st.fractions(min_value=F(1, 6), max_value=3, max_denominator=6))
    def test_skeleton_order_on_random_directions(self, pairs, t):
        # (t, -t) and (-t, t) lie on the first plane axis (q == 0), on either
        # side of the centre; the doubled pairs repeat a direction.
        points = [_direction(a, b) for a, b in pairs]
        points += [_direction(t, -t), _direction(-t, t)]
        points += [_direction(2 * a, 2 * b) for a, b in pairs[:3]]
        assert oracle_skeleton_sorted(points) == _comparator_sorted(points)

    def test_tower_replays_labels(self):
        for nets, act in ((BOUNDARY_NETS, oracle_reflect_boundary),
                          (SKELETON_NETS, oracle_skeleton_direction_act)):
            for n in range(7):
                expected = [oracle_realise(label, nets, act) for label in oracle_labels(n)]
                assert oracle_tower(nets, act, n) == expected

    def test_boundary_listing_matches_sorted_tower(self):
        for n in range(12):
            tower = oracle_tower(BOUNDARY_NETS, oracle_reflect_boundary, n)
            assert partial_orbit_boundary(n) == sorted(set(tower), key=oracle_boundary_key)

    def test_skeleton_listing_matches_sorted_tower(self):
        for n in range(9):
            tower = oracle_tower(SKELETON_NETS, oracle_skeleton_direction_act, n)
            assert partial_orbit_skeleton(n) == oracle_skeleton_sorted(set(tower))

    def test_order_check_matches_sorted_towers(self):
        # The library checks the faithful pairing; on the oracle every other
        # net order fails, and a repeated net repeats points, which fails too.
        for n in range(8):
            assert order_isomorphism_check(n) == oracle_order_isomorphism_check(n)
        for net_order in [*itertools.permutations((1, 2, 3))][1:] + [(1, 1, 2), (3, 3, 3)]:
            for n in range(1, 8):
                assert not oracle_order_isomorphism_check(n, net_order), (net_order, n)

    def test_arcs_hold_the_labels_by_outermost_letter(self):
        # The library builds the boundary cycle; the skeleton cycle is built
        # directly on integer directions in its own layout by the conftest
        # builder, and its circle points are checked against the words
        # replayed through the per-generator formula.
        def skeleton_build(k):
            return oracle_orbit_cycle(SKELETON_DIRECTIONS, oracle_direction_act,
                                      ORACLE_SKELETON_CCW, k)

        for build, ccw, point, oracle_nets, oracle_act in (
                (cycle_points, BOUNDARY_CCW, tuple, BOUNDARY_NETS, oracle_reflect_boundary),
                (skeleton_build, ORACLE_SKELETON_CCW, _circle_point,
                 SKELETON_NETS, oracle_skeleton_direction_act)):
            a, b, c = ccw
            for n in range(7):
                raw = build(n)
                cycle = [point(x) for x in raw]
                m = 2**n - 1
                # The circle reads a, arc c, b, arc a, c, arc b.
                assert ([cycle[0], cycle[m + 1], cycle[2 * m + 2]]
                        == [oracle_nets[a], oracle_nets[b], oracle_nets[c]])
                arcs = {c: cycle[1:m + 1], a: cycle[m + 2:2 * m + 2], b: cycle[2 * m + 3:]}
                for g, arc in arcs.items():
                    expected = {oracle_realise((i, word), oracle_nets, oracle_act)
                                for i, word in oracle_labels(n) if word and word[-1] == g}
                    assert len(arc) == len(set(arc)) == len(expected)
                    assert set(arc) == expected
                for k in range(n + 1):
                    assert raw[::2**(n - k)] == build(k)
        # The library's skeleton cycle is _phi of the boundary cycle: equal to
        # the direct build cut at angle 0, and, in the boundary layout, to the
        # direct build point for point.
        for n in range(7):
            assert skeleton_cycle(n) == oracle_skeleton_cycle(n)
            assert ([_phi(x) for x in cycle_points(n)]
                    == oracle_orbit_cycle(SKELETON_DIRECTIONS, oracle_direction_act,
                                          BOUNDARY_CCW, n))

    def test_tessellation_matches_reflection_bfs(self):
        for n in range(9):
            cycle = cycle_points(n)
            triangles = [tuple(sorted(t)) for t in _triangles(cycle + cycle[:1], n)]
            assert len(set(triangles)) == len(triangles) == 3 * 2**n - 2
            assert set(triangles) == oracle_tessellation_triangles(n)

    def test_partition_table_matches_orbits(self):
        for side, orbit, angle, depth in (
                ("boundary", partial_orbit_boundary, oracle_boundary_angle, 16),
                ("skeleton", partial_orbit_skeleton, oracle_skeleton_angle, 12)):
            rows = []
            for k in range(depth + 1):
                angles = sorted(angle(x) for x in orbit(k))
                gaps = [b - a for a, b in zip(angles, angles[1:])]
                gaps.append(2 * math.pi - (angles[-1] - angles[0]))
                rows.append((3 * 2**k, min(gaps), max(gaps)))
            for n in range(depth + 1):
                assert partition_table(n, side) == rows[:n + 1]

    def test_listings_match_whole_orbit_routes(self):
        # The listings built from one half (boundary) or one third (skeleton) of
        # the orbit against a line made for every point of the whole cycle.
        for n in range(DEPTH_BOUND + 1):
            assert [*_boundary_lines(n)] == oracle_boundary_lines(n)
            assert [*_skeleton_lines(n)] == oracle_skeleton_lines(n)

    def test_listing_symmetries(self):
        # The two facts the listings rest on, at every depth: the boundary listing
        # is the r3 images -p/q of the half's even interior points (its depth
        # n - 1 points), in reverse, then the half 0/1 .. 1/0, whose denominators
        # are its numerators reversed; each third of the skeleton listing is the
        # previous third under (x1, x2, x3) -> (x3, x1, x2).
        for n in range(DEPTH_BOUND + 1):
            cycle = partial_orbit_boundary(n)
            image, half = cycle[:(1 << n) - 1], cycle[(1 << n) - 1:]
            assert half[0] == (0, 1) and half[-1] == (1, 0) and all(p >= 0 for p, _ in half)
            assert [q for _, q in half] == [p for p, _ in reversed(half)]
            assert image == [reflect_boundary(3, x) for x in half[-3:1:-2]]
            directions = skeleton_cycle(n)
            third = 1 << n
            for start in (third, 2 * third):
                assert directions[start:start + third] == [
                    (x3, x1, x2) for x1, x2, x3 in directions[start - third:start]]


class TestDirectionKernel:
    """The integer act on skeleton directions, trop_vieta at (inf, inf, inf, inf),
    against the per-generator formula."""

    rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    triples = st.one_of(
        st.tuples(rationals, rationals, rationals),
        st.tuples(rationals, rationals).map(lambda ab: (ab[0], ab[1], -ab[0] - ab[1])),
    )

    @given(st.sampled_from((1, 2, 3, 0, 4)), triples)
    @example(1, (F(1), F(0), F(0)))  # positive sum, image (-1, 0, 0)
    @example(1, (F(0), F(0), F(0)))  # zero image sum
    @example(3, (F(1), F(1), F(-1, 2)))  # positive image sum
    def test_public_act_matches_oracle(self, i, x):
        try:
            expected = oracle_skeleton_direction_act(i, x)
        except (DomainError, UsageError) as exc:
            with pytest.raises(type(exc)):
                skeleton_direction_act(i, x)
            return
        got = skeleton_direction_act(i, x)
        assert got == expected and all(type(c) is F for c in got)

    @given(st.sampled_from((1, 2, 3, 0, 4)), st.tuples(*[st.integers(-30, 30)] * 3))
    @example(2, (1, 0, 0))  # positive image sum
    def test_integer_act_matches_formula(self, i, n):
        assert_same_outcome(skeleton_direction_act,
                            lambda i, n: _circle_point(oracle_direction_act(i, n)), i, n)

    def test_public_act_examples(self):
        assert skeleton_direction_act(1, (F(1), F(0), F(0))) == (-1, 0, 0)
        assert skeleton_direction_act(1, SKELETON_NETS[1]) == (F(-1, 2), F(-1, 4), F(-1, 4))

    def test_orbit_directions_are_primitive_involution_points(self):
        # The depth-10 cycle holds every orbit point of depth <= 10; the
        # library reads the same points off the boundary cycle.
        cycle = oracle_orbit_cycle(SKELETON_DIRECTIONS, oracle_direction_act,
                                   ORACLE_SKELETON_CCW, 10)
        assert sorted(skeleton_cycle(10)) == sorted(cycle)
        for x in cycle:
            assert all(type(c) is int for c in x)
            assert math.gcd(*x) == 1 and sum(x) < 0
            y = _circle_point(x)
            for i in (1, 2, 3):
                assert skeleton_direction_act(i, skeleton_direction_act(i, y)) == y


class TestBoundaryKernel:
    """The public act, gcd-free after one normalisation, against the reflection
    formulas normalised by a gcd."""

    pairs = st.tuples(st.integers(min_value=-200, max_value=200),
                      st.integers(min_value=-200, max_value=200))

    @given(st.sampled_from((1, 2, 3)), projective_points)
    @example(1, (1, 0))  # r1 and r3 fix inf
    @example(3, (1, 0))
    @example(2, (1, 2))  # r2 maps 1/2 to inf
    @example(2, (-1, 1))
    def test_act_matches_public_act(self, i, x):
        assert reflect_boundary(i, x) == oracle_reflect_boundary(i, x)

    @given(st.sampled_from((1, 2, 3, 0, 4)), pairs)
    @example(1, (0, 0))
    @example(2, (-3, 0))
    def test_public_act_on_any_pair(self, i, x):
        try:
            expected = oracle_reflect_boundary(i, x)
        except UsageError:
            with pytest.raises(UsageError):
                reflect_boundary(i, x)
            return
        assert reflect_boundary(i, x) == expected

    def test_cycle_matches_public_act(self):
        for n in range(11):
            cycle = cycle_points(n)
            assert cycle == oracle_orbit_cycle(BOUNDARY_NETS, reflect_boundary, BOUNDARY_CCW, n)
        # The depth-10 cycle holds every orbit point of depth <= 10.
        for x in cycle:
            assert x == bpoint(*x)
            for i in (1, 2, 3):
                assert reflect_boundary(i, reflect_boundary(i, x)) == x


    def test_new_points_are_coloured_mediants(self):
        # Each depth-k point is the mediant of its two depth-(k - 1)
        # neighbours, with inf as -1/0 beside the negative numbers (the sign
        # that makes the pair unimodular), and its parity colour, which every
        # r_i keeps, is the net its height reduction ends at.
        def colour(x):  # (0, 1), (1, 0), (1, 1) give 1, 2, 3
            return 2 * (x[0] & 1) + (x[1] & 1)

        net_index = {net: i for i, net in BOUNDARY_NETS.items()}
        assert [colour(x) for x in cycle_points(0)] == [net_index[x] for x in cycle_points(0)]
        for k in range(1, 11):
            cycle = cycle_points(k)
            assert cycle[::2] == cycle_points(k - 1)
            for j in range(1, len(cycle), 2):
                (a, b), x, (c, d) = cycle[j - 1], cycle[j], cycle[(j + 1) % len(cycle)]
                det = b * c - a * d
                assert det in (1, -1)
                assert x == bpoint(det * a + c, det * b + d)
                assert colour(x) == net_index[oracle_reduce_to_nets(x)[1]]


class TestFareyWords:
    def test_refinement_matches_the_colour_path(self):
        # Every triangle through depth 12, in each cell: its numerators and denominators
        # against the `_triangles` of the Farey line, and its refinement text against the
        # text of the cell's word on the mediant's colour-path runs.
        for n in range(13):
            line = _farey_line(n)
            triangles = list(_triangles(line, n))
            assert len(triangles) == (2 << n) - 1
            for cell in (1, 2, 3):
                column, listing = _farey_listing(n, cell)
                assert column == [p for p, _ in line]
                listing = list(listing)
                assert [tuple(zip(p, q)) for p, q, _ in listing] == triangles
                assert [text for _, _, text in listing] == [
                    _runs_text(_farey_word(_farey_runs(mid), cell).runs)
                    for _, mid, _ in triangles]


class TestConjugacy:
    """_phi(p, q) = -(|p|, q, |p - q|) carries the boundary action onto the
    skeleton action, so the library reads the skeleton orbit off the boundary
    orbit; the conftest builder runs the skeleton act directly."""

    normalised_pairs = st.tuples(
        st.integers(min_value=-10**6, max_value=10**6), st.integers(min_value=0, max_value=10**6)
    ).filter(lambda pq: pq != (0, 0)).map(lambda pq: bpoint(*pq))

    @given(st.sampled_from((1, 2, 3)), normalised_pairs)
    @example(1, (1, 0))  # inf, fixed by r1 and r3
    @example(2, (1, 0))
    @example(3, (1, 0))
    @example(1, (-3, 2))  # p < 0
    @example(2, (-5, 7))
    @example(3, (-1, 1))
    @example(2, (1, 2))  # r2 sends 1/2 to inf
    def test_equivariance(self, i, x):
        y = reflect_boundary(i, x)
        assert oracle_direction_act(i, _phi(x)) == _phi(y)
        d = _phi(x)
        assert -sum(d) == -2 * min(d)  # one coordinate is the sum of the other two
        # The same on circle points, through the trop_vieta route.
        assert skeleton_direction_act(i, _circle_point(_phi(x))) == _circle_point(_phi(y))

    def test_nets(self):
        for i, net in BOUNDARY_NETS.items():
            assert _phi(net) == SKELETON_DIRECTIONS[i]

    def test_skeleton_cycle_matches_direct_build(self):
        for n in range(13):
            assert skeleton_cycle(n) == oracle_skeleton_cycle(n)


class TestSkeletonText:
    """The listing rows printed from boundary pairs against str of the Fractions
    of the skeleton points they stand for, and the whole-text route's tuples."""

    @staticmethod
    def fraction_text(x):
        s = -sum(x)
        return tuple(str(Fraction(c, s)) for c in x)

    def test_orbit_points(self):
        for n in range(11):
            cycle = skeleton_cycle(n)
            rows = [",".join(self.fraction_text(x)) + "\n" for x in cycle]
            assert [*_skeleton_lines(n)] == rows
            assert [*map(oracle_skeleton_text, cycle)] == [*map(self.fraction_text, cycle)]
            if n <= 8:
                assert partial_orbit_skeleton(n) == [_circle_point(x) for x in cycle]

    @given(st.integers(-10**12, 10**12), st.integers(0, 10**12))
    @example(0, 1)
    @example(1, 0)
    @example(1, 1)
    @example(-1, 1)
    @example(2, 1)  # -1, -1/2, -1/2 over M = 2
    @example(-3, 5)  # the largest coordinate |p - q| = 8, even
    @example(7, 2)
    def test_integer_triples(self, p, q):
        # The directions _phi(p, q) of coprime pairs, the skeleton orbit's.
        g = math.gcd(p, q)
        if g == 0:
            return
        x = _phi((p // g, q // g))
        assert _skeleton_text(p // g, q // g) == ",".join(self.fraction_text(x))
        assert oracle_skeleton_text(x) == self.fraction_text(x)


# The disk of tessellation_svg, and one edge as it draws it:
# "M x1,y1 A r,r 0 0,sweep x2,y2", or "M x1,y1 L x2,y2" for a diameter.
_DISK_CENTER, _DISK_RADIUS = 240.0, 230.0
_EDGE = re.compile(r'<path d="M ([\d.]+),([\d.]+) (?:A ([\d.]+),[\d.]+ 0 0,([01])|L) '
                   r'([\d.]+),([\d.]+)"')


def _svg_edges(depth: int) -> list[tuple]:
    """(x1, y1, r, sweep, x2, y2) per drawn edge, r and sweep None for a line."""
    text = "".join(tessellation_svg(depth))
    edges = [(float(x1), float(y1), float(r) if r else None, int(sweep) if r else None,
              float(x2), float(y2))
             for x1, y1, r, sweep, x2, y2 in _EDGE.findall(text)]
    assert len(edges) == text.count("<path")
    return edges


def _boundary_points_by_end(triangles) -> dict:
    """Each vertex of the triangles keyed by its page position, as printed."""
    by_end = {}
    for x in {v for t in triangles for v in t}:
        theta = oracle_boundary_angle(x)
        key = (round(_DISK_CENTER + _DISK_RADIUS * math.cos(theta), 4),
               round(_DISK_CENTER - _DISK_RADIUS * math.sin(theta), 4))
        assert key not in by_end
        by_end[key] = x
    return by_end


def _svg_arc_midpoint(x1, y1, r, sweep, x2, y2) -> tuple[float, float]:
    """The middle point of the SVG arc with large-arc flag 0, by the SVG 1.1
    endpoint-to-centre conversion (implementation notes F.6.5 and F.6.6)."""
    x1p, y1p = (x1 - x2) / 2, (y1 - y2) / 2
    r = max(r, math.hypot(x1p, y1p))
    coef = math.sqrt(max(0.0, r * r / (x1p * x1p + y1p * y1p) - 1.0))
    if sweep == 0:  # equal to the large-arc flag
        coef = -coef
    cxp, cyp = coef * y1p, -coef * x1p
    t1 = math.atan2(y1p - cyp, x1p - cxp)
    dt = math.atan2(-y1p - cyp, -x1p - cxp) - t1
    if sweep == 0 and dt > 0:
        dt -= 2 * math.pi
    elif sweep == 1 and dt < 0:
        dt += 2 * math.pi
    cx, cy = cxp + (x1 + x2) / 2, cyp + (y1 + y2) / 2
    return cx + r * math.cos(t1 + dt / 2), cy + r * math.sin(t1 + dt / 2)


class TestTessellationSvg:
    def test_each_edge_of_the_reflection_bfs_once(self):
        for n in range(9):
            triangles = oracle_tessellation_triangles(n)
            by_end = _boundary_points_by_end(triangles)
            drawn = Counter(frozenset((by_end[x1, y1], by_end[x2, y2]))
                            for x1, y1, _, _, x2, y2 in _svg_edges(n))
            expected = {frozenset(pair) for t in triangles
                        for pair in itertools.combinations(t, 2)}
            assert set(drawn) == expected
            assert set(drawn.values()) == {1} and len(drawn) == 3 * 2 ** (n + 1) - 3

    def test_arcs_follow_the_polyline_geodesics(self):
        # The middle of each arc, found from its centre and sweep flag, is the
        # middle of the 25-point polyline the library drew before.
        for n in range(7):
            by_end = _boundary_points_by_end(oracle_tessellation_triangles(n))
            for x1, y1, r, sweep, x2, y2 in _svg_edges(n):
                th1, th2 = (oracle_boundary_angle(by_end[end]) for end in ((x1, y1), (x2, y2)))
                points = oracle_geodesic_points(th1, th2, _DISK_RADIUS, _DISK_CENTER)
                if r is None:
                    assert len(points) == 2
                    mid = ((x1 + x2) / 2, (y1 + y2) / 2)
                    expected = tuple((a + b) / 2 for a, b in zip(*points))
                else:
                    mid = _svg_arc_midpoint(x1, y1, r, sweep, x2, y2)
                    expected = points[len(points) // 2]
                assert math.dist(mid, expected) < 0.01

