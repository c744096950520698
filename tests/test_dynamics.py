import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import OracleWord, oracle_cells_of, oracle_euc_limit, oracle_greedy_path
from tropmarkov import dynamics
from tropmarkov.errors import DomainError, ResourceError, UsageError
from tropmarkov.sampling import random_params, random_skeleton_point, random_word
from tropmarkov.scalars import CF, continued_fraction, thomae_gcd
from tropmarkov.surface import (
    CellId,
    Params,
    QUADRATIC_CELLS,
    SUBQUADRATIC_CELLS,
    cells_of,
    f0,
    linear_cell,
    on_skeleton,
    quadratic_cell,
)
from tropmarkov.dynamics import (
    STEP_BOUND,
    Word,
    apply_word,
    euc,
    gamma_of,
    greedy_path,
    sk_norm,
    transit_matrix,
    trop_vieta,
    u_coords,
    u_inverse,
    u_slope,
)

F = Fraction
PT = Params.parse("inf,inf,inf,-2")


def pt(*coords):
    return tuple(F(c) for c in coords)


class TestWord:
    def test_parse_and_str(self):
        w = Word.parse("s1 s2 s3")
        assert w.letters == (1, 2, 3)
        assert str(w) == "s1 s2 s3"
        assert list(w.applied_order()) == [3, 2, 1]

    def test_reduction(self):
        assert Word.parse("s1 s1 s2").letters == (2,)
        assert Word.reduce([1, 2, 2, 1]).is_identity

    def test_unreduced_constructor_rejected(self):
        for letters in ((1, 1, 2), (1, 2, 2), (0,), (1, 4), (3, 3)):
            with pytest.raises(UsageError):
                Word(letters)
        with pytest.raises(UsageError):
            Word.parse("s4")

    def test_parse_takes_at_most_one_prefix(self):
        assert Word.parse("s1 S2 r3 R1 2").letters == (1, 2, 3, 1, 2)
        for token in ("ss1", "sr2", "rs3", "SS1", "rr2", "s", "r", "1s", "s 1x", "t1"):
            with pytest.raises(UsageError):
                Word.parse(token)


def _dedupe(letters) -> tuple[int, ...]:
    """Drop each letter equal to the one before it, leaving a reduced word."""
    out: list[int] = []
    for g in letters:
        if not out or out[-1] != g:
            out.append(g)
    return tuple(out)


_PAIRS = ((1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2))
# Short words of any shape, and words of a few long alternating runs.
_LETTERS = st.one_of(
    st.lists(st.sampled_from((1, 2, 3)), max_size=30),
    st.lists(st.tuples(st.sampled_from(_PAIRS), st.integers(min_value=1, max_value=60)),
             max_size=5).map(
        lambda runs: [(i, j)[k % 2] for (i, j), n in runs for k in range(n)]),
).map(_dedupe)


def _pieces(letters, cuts) -> list[tuple[int, int, int]]:
    """Cut reduced letters into alternating runs (i, j, n), starting a new
    run before letter k where the run cannot go on or cuts[k] says so."""
    pieces: list[list[int]] = []
    for k, g in enumerate(letters):
        last = pieces[-1] if pieces else None
        if last and not cuts[k] and (len(last) < 2 or last[-2] == g):
            last.append(g)
        else:
            pieces.append([g])
    return [(p[0], p[1] if len(p) > 1 else 0, len(p)) for p in pieces]


class TestWordRuns:
    """Word keeps maximal alternating runs; OracleWord in conftest keeps one
    letter per reflection."""

    @given(_LETTERS)
    @settings(max_examples=300)
    def test_matches_the_letters(self, letters):
        w, ref = Word(letters), OracleWord(letters)
        assert w.letters == ref.letters
        assert len(w) == len(ref) and str(w) == str(ref)
        assert w.is_identity == (not letters)
        assert list(w.applied_order()) == list(reversed(letters))
        assert Word.parse(str(w)) == w and Word.from_runs(w.runs) == w
        if letters:
            assert w.first_applied == letters[-1]
        assert list(w.applied_prefixes()) == [Word(letters[len(letters) - k:])
                                               for k in range(1, len(letters) + 1)]

    @given(_LETTERS, st.data())
    @settings(max_examples=300)
    def test_runs_are_maximal_and_canonical(self, letters, data):
        w = Word(letters)
        # Cut greedily from the right: only the leftmost run is a lone letter
        # (i, 0, 1), and no run takes the letter on its left.
        for k, (i, j, n) in enumerate(w.runs):
            assert i in (1, 2, 3) and j in ((0,) if n == 1 else (1, 2, 3)) and j != i
            assert n >= 2 or k == 0
            if k:
                a, b, m = w.runs[k - 1]
                assert (a if m % 2 else b) != j
        cuts = data.draw(st.lists(st.booleans(), min_size=len(letters), max_size=len(letters)))
        other = Word.from_runs(_pieces(letters, cuts))
        assert other == w and hash(other) == hash(w) and other.runs == w.runs

    @given(_LETTERS, _LETTERS)
    def test_equality_and_hash_follow_the_letters(self, a, b):
        assert (Word(a) == Word(b)) == (a == b)
        assert hash(Word(a)) == hash(Word.reduce(list(a))) == hash(Word.parse(str(Word(a))))

    @pytest.mark.parametrize("runs", [
        ((1, 1, 2),), ((1, 2, 0),), ((1, 0, 2),), ((4, 0, 1),), ((1, 4, 2),), ((1, 1, 1),), ((1, 7, 1),),
        ((1, 2, 3), (1, 3, 1)),  # s1 s2 s1 s1
        ((2, 3, 2), (3, 1, 5)),  # s2 s3 s3 ...
        ((1, 2, F(3)),),
    ])
    def test_run_constructor_rejects_invalid_runs(self, runs):
        with pytest.raises(UsageError):
            Word.from_runs(runs)

    def test_run_constructor_merges_runs(self):
        assert Word.from_runs(((1, 2, 2), (1, 2, 3))) == Word((1, 2, 1, 2, 1))
        assert Word.from_runs(((1, 2, 2), (1, 2, 3))).runs == ((1, 2, 5),)
        assert Word.from_runs(((3, 2, 1), (1, 2, 2))).runs == ((3, 0, 1), (1, 2, 2))
        assert Word.from_runs(((3, 1, 2), (3, 1, 1))).runs == ((3, 1, 3),)
        assert Word.from_runs(()) == Word() and str(Word()) == ""
        with pytest.raises(UsageError):
            Word().first_applied

    def test_long_greedy_word(self):
        # Slope 10^6/(10^6+1): 10^6 + 1 reflections in two runs.
        trace = greedy_path(PT, u_inverse(1, (10**6 + 1, 10**6)))
        assert len(trace.word) == trace.steps == 10**6 + 1
        assert len(trace.word.runs) <= 3
        assert str(trace.word) == str(OracleWord(trace.word.letters))
        assert Word.from_runs(trace.word.runs) == trace.word


class TestErrorText:
    def test_points_print_as_on_the_command_line(self):
        x = pt(-2, F(-7, 2), -5)
        with pytest.raises(DomainError, match=r"^point -2,-7/2,-5 is outside the quadratic cell 1"):
            u_coords(1, x)
        messages = []
        for cells in (cells_of, oracle_cells_of):
            with pytest.raises(DomainError) as exc:
                cells(PT, pt(0, 0, 0))
            messages.append(str(exc.value))
        assert messages == ["point 0,0,0 is not on the skeleton of inf,inf,inf,-2"] * 2


class TestInvolutions:
    def test_examples(self):
        assert trop_vieta(PT, 3, pt(-2, -3, -5)) == pt(-2, -3, -1)
        assert trop_vieta(PT, 1, pt(0, -1, -1)) == pt(-2, -1, -1)

    def test_apply_word_examples(self):
        assert apply_word(PT, Word(), pt(-2, -3, -5)) == pt(-2, -3, -5)
        assert apply_word(PT, Word.parse("s2 s3"), pt(-2, -3, -5)) == pt(-2, -1, -1)
        assert apply_word(PT, Word.parse("s1 s2 s3"), pt(-2, -3, -5)) == pt(0, -1, -1)

    @given(
        st.integers(min_value=0, max_value=2**16),
        st.sampled_from((1, 2, 3)),
        st.fractions(min_value=-9, max_value=9, max_denominator=8),
        st.fractions(min_value=-9, max_value=9, max_denominator=8),
        st.fractions(min_value=-9, max_value=9, max_denominator=8),
    )
    @settings(max_examples=150)
    def test_involution_on_r3(self, seed, i, x1, x2, x3):
        params = random_params(random.Random(seed))
        x = (x1, x2, x3)
        assert trop_vieta(params, i, trop_vieta(params, i, x)) == x

    def test_skeleton_invariance(self):
        rng = random.Random(41)
        for _ in range(150):
            params = random_params(rng)
            x = random_skeleton_point(rng, params)
            for i in (1, 2, 3):
                assert f0(params, trop_vieta(params, i, x)) == 0

    def test_level_invariance_off_zero(self):
        rng = random.Random(43)
        from tropmarkov.surface import lift_from_plane, plane_point

        for _ in range(60):
            params = random_params(rng)
            w = F(rng.randint(-6, 6), rng.randint(1, 4))
            x = lift_from_plane(
                params, w, plane_point(F(rng.randint(-12, 12), 3), F(rng.randint(-12, 12), 3)))
            for i in (1, 2, 3):
                assert f0(params, trop_vieta(params, i, x)) == w


class TestUCoordinates:
    def test_examples(self):
        assert u_coords(3, pt(-2, -3, -5)) == (F(3), F(2))
        assert u_inverse(3, (F(3), F(2))) == pt(-2, -3, -5)
        assert u_coords(1, pt(-1, -1, 0)) == (F(0), F(1))

    def test_domain_error_outside_cell(self):
        with pytest.raises(DomainError):
            u_coords(1, pt(-2, -3, -5))  # x is in the X3^2 cell

    def test_mutual_inverse(self):
        rng = random.Random(47)
        for _ in range(100):
            u = (F(rng.randint(0, 30), rng.randint(1, 6)), F(rng.randint(0, 30), rng.randint(1, 6)))
            i = rng.choice((1, 2, 3))
            x = u_inverse(i, u)
            assert u_coords(i, x) == u
            assert 2 * x[i - 1] == sum(x)

    def test_norm_is_twice_u_norm(self):
        x = pt(-2, -3, -5)
        assert sk_norm(x) == 10
        u1, u2 = u_coords(3, x)
        assert 2 * (u1 + u2) == sk_norm(x)
        assert sk_norm(pt(0, -1, -1)) == 2


class TestEuc:
    def test_examples(self):
        assert euc((F(1), F(0))) == (F(0), F(1))
        assert euc((F(3), F(2))) == (F(2), F(1))
        assert euc((F(1), F(1))) == (F(0), F(1))

    def test_limit_examples(self):
        assert oracle_euc_limit((F(6), F(4))) == 2
        assert oracle_euc_limit((F(3), F(2))) == 1
        assert oracle_euc_limit((F(0), F(0))) == 0

    @given(
        st.fractions(min_value=0, max_value=20, max_denominator=10),
        st.fractions(min_value=0, max_value=20, max_denominator=10),
    )
    @settings(max_examples=100)
    def test_limit_is_thomae_gcd_and_norm_shrinks(self, u1, u2):
        assert oracle_euc_limit((u1, u2)) == thomae_gcd(u1, u2)
        if (u1, u2) != (0, 0):
            v1, v2 = euc((u1, u2))
            assert v1 >= 0 and v2 >= 0
            assert v1 + v2 == max(u1, u2) <= u1 + u2


class TestTransitMatrices:
    def test_values(self):
        assert transit_matrix(1) == ((1, 1), (1, 0))
        assert transit_matrix(-1) == ((0, 1), (1, 1))
        for d in (1, -1):
            ((a, b), (c, e)) = transit_matrix(d)
            assert a * e - b * c == -1

    def test_action_example(self):
        ((a, b), (c, d)) = transit_matrix(1)
        assert (a * 3 + b * 2, c * 3 + d * 2) == (5, 3)


class TestGreedyPath:
    def test_reduction_example(self):
        trace = greedy_path(PT, pt(-2, -3, -5))
        assert trace.word == Word.parse("s1 s2 s3")
        assert trace.terminal == pt(0, -1, -1)
        assert trace.kind == "ray" and trace.ray_index == 1
        assert apply_word(PT, trace.word, trace.start) == trace.terminal

    def test_immediate_subquadratic(self):
        trace = greedy_path(Params.parse("inf,inf,inf,-3"), pt(-1, -1, -1))
        assert trace.word.is_identity
        assert trace.kind == "subquadratic" and trace.cell is CellId.D

    def test_immediate_ray(self):
        trace = greedy_path(PT, pt(0, -1, -1))
        assert trace.word.is_identity
        assert trace.kind == "ray" and trace.ray_index == 1

    def test_off_skeleton_rejected(self):
        with pytest.raises(DomainError):
            greedy_path(PT, pt(1, 1, 1))
        with pytest.raises(DomainError):
            greedy_path(PT, pt(1, 1, 1), max_steps=0)

    def test_negative_budget_rejected(self):
        with pytest.raises(UsageError):
            greedy_path(PT, pt(-2, -3, -5), max_steps=-1)

    def test_budget_bounds_reflections(self):
        for k in (0, 1, 2):
            trace = greedy_path(PT, pt(-2, -3, -5), max_steps=k)
            assert trace.kind == "exhausted"
            assert len(trace.word) == trace.steps <= k
            assert apply_word(PT, trace.word, trace.start) == trace.terminal
        assert greedy_path(PT, pt(-2, -3, -5), max_steps=3).kind == "ray"

    @pytest.mark.parametrize(
        "params, start, kind",
        [
            (PT, (-2, -3, -5), "ray"),
            (Params.parse("inf,inf,inf,-3"), (-8, -5, -13), "subquadratic"),
        ],
    )
    def test_one_cells_of_per_visited_point(self, monkeypatch, params, start, kind):
        calls = []

        def counted(*args):
            calls.append(args)
            return cells_of(*args)

        monkeypatch.setattr(dynamics, "cells_of", counted)
        trace = greedy_path(params, pt(*start))
        assert trace.kind == kind and trace.steps >= 3
        assert len(calls) == trace.steps + 1

    def test_exhausted_with_tiny_budget(self):
        trace = greedy_path(PT, pt(-20, -30, -50), max_steps=1)
        assert trace.kind == "exhausted"

    def test_euc_simulation_along_paths(self):
        rng = random.Random(53)
        checked = 0
        for _ in range(80):
            params = random_params(rng, meromorphic=True)
            x = random_skeleton_point(rng, params)
            cells = cells_of(params, x)
            quads = [c for c in cells if c in QUADRATIC_CELLS]
            if len(cells) != 1 or len(quads) != 1:
                continue
            i = QUADRATIC_CELLS.index(quads[0]) + 1
            u = u_coords(i, x)
            cur = x
            for _step in range(40):
                cells = cells_of(params, cur)
                quads = {c for c in cells if c in QUADRATIC_CELLS}
                subs = {c for c in cells if c in SUBQUADRATIC_CELLS}
                if len(quads) != 1 or subs:
                    break
                j = QUADRATIC_CELLS.index(next(iter(quads))) + 1
                assert u_coords(j, cur) == u
                cur = trop_vieta(params, j, cur)
                u = euc(u)
                checked += 1
        assert checked > 40

    def test_terminal_ray_points_satisfy_threshold(self):
        rng = random.Random(59)
        for _ in range(60):
            params = random_params(rng, meromorphic=True)
            x = random_skeleton_point(rng, params)
            trace = greedy_path(params, x)
            assert trace.kind in ("ray", "subquadratic")
            if trace.kind == "ray":
                from tropmarkov.surface import on_boundary_ray

                assert on_boundary_ray(params, trace.ray_index, trace.terminal)


def _outcome(greedy, params, x, budget):
    try:
        return greedy(params, x, budget)
    except DomainError:
        return DomainError


_ENTRY = st.one_of(st.just("inf"), st.fractions(min_value=-6, max_value=6, max_denominator=4))
_PARAMS = st.builds(Params.make, _ENTRY, _ENTRY, _ENTRY, _ENTRY)
# Budgets 0 and 1, and cuts of either parity inside a run.
_BUDGETS = st.one_of(st.none(), st.just(0), st.just(1), st.integers(min_value=2, max_value=400))
# One or several large partial quotients among small ones, in any order.
_CFS = st.builds(
    lambda large, small: large + small,
    st.lists(st.integers(min_value=8, max_value=120), min_size=1, max_size=3),
    st.lists(st.integers(min_value=1, max_value=4), max_size=3),
).flatmap(st.permutations).filter(lambda t: len(t) == 1 or t[-1] > 1).map(
    lambda t: CF(tuple(t)))


class TestGreedyJumps:
    """greedy_path takes each alternating run in one jump; the step loop in
    conftest takes one cells_of and one trop_vieta per reflection."""

    @given(
        _PARAMS,
        _CFS,
        st.booleans(),
        st.fractions(min_value=F(1, 60), max_value=12, max_denominator=60),
        st.sampled_from((1, 2, 3)),
        _BUDGETS,
    )
    @settings(max_examples=250, deadline=None)
    def test_matches_step_loop_on_runs(self, params, cf, flip, scale, chart, budget):
        m = cf.value()
        u = (scale * m.numerator, scale * m.denominator) if flip else (
            scale * m.denominator, scale * m.numerator)
        x = u_inverse(chart, u)
        assert (_outcome(greedy_path, params, x, budget)
                == _outcome(oracle_greedy_path, params, x, budget))

    @given(_PARAMS, st.integers(min_value=0, max_value=2**32), _BUDGETS)
    @settings(max_examples=150, deadline=None)
    def test_matches_step_loop_on_skeleton_points(self, params, seed, budget):
        x = random_skeleton_point(random.Random(seed), params, span=40, max_den=6)
        assert greedy_path(params, x, budget) == oracle_greedy_path(params, x, budget)

    @given(_PARAMS, _CFS, st.sampled_from((1, 2, 3)))
    @settings(max_examples=100, deadline=None)
    def test_words_built_from_runs_equal_words_built_from_letters(self, params, cf, chart):
        # greedy_path builds its word run by run, the step loop letter by letter.
        m = cf.value()
        x = u_inverse(chart, (m.denominator, m.numerator))
        try:
            word = greedy_path(params, x).word
        except DomainError:
            return
        ref = oracle_greedy_path(params, x).word
        assert word == ref and hash(word) == hash(ref) and word.runs == ref.runs
        assert str(word) == str(OracleWord(ref.letters))

    @pytest.mark.parametrize(
        "params, m, scale, kind, steps",
        [
            (PT, F(10**6, 10**6 + 1), 1, "ray", 10**6 + 1),
            (PT, F(10**6), 1, "ray", 10**6),
            # Finite parameters: the run ends inside the BX2 cell.
            (Params.parse("4,-12,2,12"), F(10**6 + 1, 10**6), F(1, 50), "subquadratic", 999_403),
        ],
    )
    def test_cells_of_per_partial_quotient(self, monkeypatch, params, m, scale, kind, steps):
        calls = []

        def counted(*args):
            calls.append(args)
            return cells_of(*args)

        monkeypatch.setattr(dynamics, "cells_of", counted)
        trace = greedy_path(params, u_inverse(1, (scale * m.denominator, scale * m.numerator)))
        assert trace.kind == kind and trace.steps == len(trace.word) == steps
        assert len(calls) <= 4 * len(continued_fraction(m).terms) + 4

    def test_step_bound(self):
        # Slope [1; 10^9]: the bound check runs, the run is never expanded.
        x = u_inverse(3, (10**9, 10**9 + 1))
        for budget in (None, STEP_BOUND + 1, 10**12):
            with pytest.raises(ResourceError):
                greedy_path(PT, x, budget)
        trace = greedy_path(PT, x, max_steps=10)
        assert trace.kind == "exhausted" and trace.steps == 10

    def test_step_bound_edges(self, monkeypatch):
        monkeypatch.setattr(dynamics, "STEP_BOUND", 100)
        assert greedy_path(PT, u_inverse(3, (1, 100))).steps == 100
        longer = u_inverse(3, (1, 101))
        with pytest.raises(ResourceError):
            greedy_path(PT, longer)
        with pytest.raises(ResourceError):
            greedy_path(PT, longer, max_steps=101)
        trace = greedy_path(PT, longer, max_steps=100)
        assert trace.kind == "exhausted" and trace.steps == 100


class TestCellAtlas:
    def test_linear_cell_invariance_and_quadratic_exchange(self):
        # Parameters with an AX1 cell of nonempty interior: points of it have
        # x2 + x3 = a, and s1 keeps the cell invariant.
        params = Params.parse("-4,inf,inf,-2")
        a = F(-4)
        for x1, x2 in ((F(-1), F(-2)), (F(-3, 2), F(-5, 2)), (F(-2), F(-3, 2))):
            x = (x1, x2, a - x2)
            assert CellId.AX1 in cells_of(params, x)
            assert CellId.AX1 in cells_of(params, trop_vieta(params, 1, x))

        x = pt(-6, -4, -2)  # interior of X1^2 for these parameters
        assert cells_of(params, x) == {CellId.X1SQ}
        image_cells = cells_of(params, trop_vieta(params, 1, x))
        assert CellId.X1SQ not in image_cells

    def test_domain_targeting(self):
        # s_j sends interior points of other quadratic cells into the half
        # allotted to j: the X_j^2 or linear-j cells.
        rng = random.Random(61)
        checked = 0
        for _ in range(200):
            params = random_params(rng)
            x = random_skeleton_point(rng, params)
            cells = cells_of(params, x)
            if len(cells) != 1 or next(iter(cells)) not in QUADRATIC_CELLS:
                continue
            i = QUADRATIC_CELLS.index(next(iter(cells))) + 1
            for j in (1, 2, 3):
                if j == i:
                    continue
                img_cells = cells_of(params, trop_vieta(params, j, x))
                assert img_cells & {quadratic_cell(j), linear_cell(j)}
                checked += 1
        assert checked > 100

    def test_norm_monotonicity(self):
        rng = random.Random(67)
        shrink = grow = 0
        for _ in range(300):
            params = random_params(rng)
            x = random_skeleton_point(rng, params)
            cells = cells_of(params, x)
            quads = [c for c in cells if c in QUADRATIC_CELLS]
            if len(cells) != 1 or not quads:
                continue
            i = QUADRATIC_CELLS.index(quads[0]) + 1
            # Same-cell reflection shrinks when the image stays quadratic.
            img = trop_vieta(params, i, x)
            if any(c in QUADRATIC_CELLS for c in cells_of(params, img)):
                assert sk_norm(img) <= sk_norm(x)
                shrink += 1
            # Other-cell reflections never shrink.
            for j in (1, 2, 3):
                if j != i:
                    assert sk_norm(trop_vieta(params, j, x)) >= sk_norm(x)
                    grow += 1
        assert shrink > 30 and grow > 100

    def test_free_product_faithfulness(self):
        table_point = pt(F(-2, 3), F(-2, 3), F(-2, 3))  # interior of the table
        assert cells_of(PT, table_point) == {CellId.D}
        rng = random.Random(71)
        for _ in range(100):
            w = random_word(rng, rng.randint(1, 8))
            assert apply_word(PT, w, table_point) != table_point


class TestSlopeHelpers:
    def test_u_slope(self):
        assert u_slope(3, pt(-2, -3, -5)) == F(2, 3)
        assert u_slope(2, pt(0, -1, -1)).is_infinite

    def test_gamma(self):
        assert gamma_of(pt(-2, -3, -5)) == 1
        assert gamma_of(pt(F(-1, 2), F(-3, 4), F(-5, 4))) == F(1, 4)
