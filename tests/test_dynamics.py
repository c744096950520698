import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (
    OracleWord,
    oracle_cells_of,
    oracle_euc_limit,
    oracle_extend,
    oracle_greedy_path,
    oracle_monomial_values,
    oracle_run_length,
    oracle_trop_vieta,
    params_on_walls,
    WALL_FRACTIONS,
)
from tropmarkov import dynamics
from tropmarkov.arithmetic import (lift_consistency, rational_vieta, surface_from_seed,
                                   vieta_exact, zp_numerators)
from tropmarkov.classifier import (
    FAREY_ROOT,
    exception_rays_punctured,
    farey_enumerate,
    farey_triangle,
    index_shift_bruteforce,
    table_orbit_triangles,
)
from tropmarkov.hyperbolic import (
    order_isomorphism_check,
    partial_orbit_boundary,
    partial_orbit_skeleton,
    partition_stats,
    partition_table,
    reflect_boundary,
    skeleton_direction_act,
)
from tropmarkov.laurent import LaurentPoly
from tropmarkov.errors import DomainError, ResourceError, UsageError
from tropmarkov.sampling import random_params, random_skeleton_point, random_word
from tropmarkov.scalars import CF, ExtRat, continued_fraction, thomae_gcd
from tropmarkov.surface import (
    CELL_ORDER,
    CellId,
    Params,
    QUADRATIC_CELLS,
    SUBQUADRATIC_CELLS,
    _cell_slots,
    _finite_values,
    _monomials,
    _on_lattice,
    cells_of,
    f0,
    fixed_set_point,
    lift_from_plane,
    on_boundary_ray,
    on_skeleton,
    plane_grid,
    plane_point,
    quadratic_cell,
    ray_point,
    thresholds,
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

    def test_letters_are_the_ints_one_to_three(self):
        # A bool or float equal to a letter would print as itself, and an
        # invalid letter must not cancel before it is checked.
        text = "generator index must be 1, 2 or 3, got "
        for letters in ([True, 2], [2.0, 1], [1, F(3)], [4, 4], [4, 4, 1], [1.5], [0]):
            for build in (Word, Word.reduce):
                with pytest.raises(UsageError, match=f"^{text}"):
                    build(letters)
        for runs in ([(True, 2, 3)], [(2, True, 2)], [(2.0, 1, 1)]):
            with pytest.raises(UsageError, match=f"^{text}"):
                Word.from_runs(runs)
        assert Word.reduce([1, 2, 2, 3, 3, 1]).is_identity
        assert str(Word.reduce((3, 1, 1, 2))) == "s3 s2"

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

    # Calls that append t letters a, b, a, ...: mostly letters, with an invalid one
    # (0, 4, the bool True) or a repeat now and then.
    _CALL_LETTERS = st.sampled_from((1, 2, 3) * 5 + (0, 4, True))

    @given(st.lists(st.tuples(_CALL_LETTERS, _CALL_LETTERS,
                              st.integers(min_value=1, max_value=40)), max_size=12))
    @example([(1, 2, 3), (1, 3, 1), (2, 3, 5), (3, 1, 2), (2, 1, 1), (3, 2, 7)])
    @example([(1, 0, 1), (2, 1, 4), (1, 3, 2)])
    @example([(1, 2, 2), (2, 1, 1)])
    @settings(max_examples=500)
    def test_extend_matches_the_letter_by_letter_route(self, calls):
        # _extend appends t letters in one step; oracle_extend pushes them one by one.
        # The runs agree after every call, and either both raise UsageError or neither.
        fast, slow = [], []
        for a, b, t in calls:
            raised = []
            for extend, runs in ((dynamics._extend, fast), (oracle_extend, slow)):
                try:
                    extend(runs, a, b, t)
                except UsageError:
                    raised.append(True)
                else:
                    raised.append(False)
            assert raised[0] == raised[1]
            if raised[0]:
                return
            assert fast == slow

    @pytest.mark.parametrize("runs", [
        ((1, 1, 2),), ((1, 2, 0),), ((1, 0, 2),), ((4, 0, 1),), ((1, 4, 2),), ((1, 1, 1),), ((1, 7, 1),),
        ((1, 2, 3), (1, 3, 1)),  # s1 s2 s1 s1
        ((2, 3, 2), (3, 1, 5)),  # s2 s3 s3 ...
        ((1, 2, F(3)),),
        ((1, 2, True),),
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

    @pytest.mark.parametrize("runs", [((1, 2, sys.maxsize),),
                                      ((3, 0, 1), (1, 2, sys.maxsize - 1))])
    def test_len_up_to_maxsize(self, runs):
        word = Word.from_runs(runs)
        assert len(word) == word.length == sys.maxsize

    @pytest.mark.parametrize("runs", [((1, 2, sys.maxsize + 1),), ((3, 0, 1), (1, 2, sys.maxsize)),
                                      ((1, 2, 10**30),)])
    def test_len_past_maxsize_raises_resource_error(self, runs):
        # len() cannot return an int past sys.maxsize; length has no limit.
        word = Word.from_runs(runs)
        assert word.length == sum(n for _, _, n in runs)
        with pytest.raises(ResourceError, match="exceeds the configured bound"):
            len(word)

    @given(st.lists(st.tuples(st.sampled_from(_PAIRS), st.integers(1, 4)), max_size=3),
           st.sampled_from(_PAIRS),
           st.one_of(st.integers(STEP_BOUND - 3, STEP_BOUND + 3),
                     st.integers(sys.maxsize - 2, sys.maxsize + 2), st.just(10**30)))
    @example([], (1, 2), STEP_BOUND)
    @example([], (1, 2), STEP_BOUND + 1)
    @example([((2, 3), 1)], (1, 2), 2**63)
    @settings(max_examples=10, deadline=None)
    def test_expansions_bounded(self, head, tail, length):
        # Each reader expands the word only up to STEP_BOUND letters; past it,
        # and past 2^63, it raises ResourceError before building anything.
        runs = [(*pair, n) for pair, n in head] + [(*tail, length - sum(n for _, n in head))]
        # Two runs may meet at an equal letter; such runs are no word.
        assume(all(a[0] != b[(b[2] - 1) % 2] for b, a in zip(runs, runs[1:])))
        word = Word.from_runs(runs)
        readers = (lambda: word.letters, lambda: tuple(word.applied_order()), lambda: str(word))
        if length > STEP_BOUND:
            for read in readers:
                with pytest.raises(ResourceError, match="exceeds the configured bound"):
                    read()
            return
        ref = OracleWord(tuple((i, j)[k % 2] for i, j, n in runs for k in range(n)))
        assert [read() for read in readers] == [ref.letters, ref.letters[::-1], str(ref)]

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


_SEED = surface_from_seed(*(LaurentPoly.parse(v) for v in ("t^-1", "t^-1", "t^-1", "0", "0", "0")))
# Every public function that takes a generator, ray or cell index, with the
# noun its UsageError names.
_INDEXED = {
    "trop_vieta": ("generator", lambda i: trop_vieta(PT, i, pt(-2, -3, -5))),
    "u_coords": ("generator", lambda i: u_coords(i, pt(-1, -1, -1))),
    "u_inverse": ("generator", lambda i: u_inverse(i, (1, 2))),
    "skeleton_direction_act": ("generator", lambda i: skeleton_direction_act(i, pt(-1, -2, -1))),
    "rational_vieta": ("generator", lambda i: rational_vieta(i, (1, 1, 1), F(1, 4))),
    "vieta_exact": ("generator", lambda i: vieta_exact(i, _SEED)),
    "fixed_set_point": ("generator", lambda i: fixed_set_point(PT, i, 0, 0)),
    "reflect_boundary": ("reflection", lambda i: reflect_boundary(i, (1, 2))),
    "ray_point": ("ray", lambda i: ray_point(i, F(-1))),
    "on_boundary_ray": ("ray", lambda i: on_boundary_ray(PT, i, pt(0, -1, -1))),
    "farey_triangle": ("cell", lambda i: farey_triangle(FAREY_ROOT, i, F(-2))),
}


class TestIndexChecks:
    @pytest.mark.parametrize("bad", [0, 4, True, 2.0, "1"], ids=repr)
    @pytest.mark.parametrize("name", sorted(_INDEXED))
    def test_only_the_ints_one_to_three(self, name, bad):
        what, call = _INDEXED[name]
        with pytest.raises(UsageError) as info:
            call(bad)
        assert str(info.value) == f"{what} index must be 1, 2 or 3, got {bad}"
        for i in (1, 2, 3):
            call(i)


# Every public function that takes a size (a step cap, an orbit depth, a height
# or a grid), with the noun its UsageError names.
_SIZED = {
    "greedy_path": ("max_steps", lambda n: greedy_path(PT, pt(-2, -3, -5), n)),
    "partial_orbit_boundary": ("orbit depth", partial_orbit_boundary),
    "partial_orbit_skeleton": ("orbit depth", partial_orbit_skeleton),
    "partition_table": ("orbit depth", lambda n: partition_table(n, "boundary")),
    "partition_stats": ("orbit depth", lambda n: partition_stats(n, "skeleton")),
    "order_isomorphism_check": ("orbit depth", order_isomorphism_check),
    "farey_enumerate": ("orbit depth", farey_enumerate),
    "table_orbit_triangles": ("orbit depth", lambda n: table_orbit_triangles(F(-2), n)),
    "exception_rays_punctured": ("height", lambda n: exception_rays_punctured(F(-2), n)),
    "plane_grid": ("grid", lambda n: plane_grid(n, 1)),
}


# A size past its bound by thousands of digits, more than str() prints: every
# sized call but greedy_path (which caps its step count at the bound), and the
# other bound checks that name the size they refuse.
_HUGE = 10**5000
_HUGE_WORD = Word.from_runs([(1, 2, _HUGE)])
_PAST_STR = {
    "len(Word)": lambda: len(_HUGE_WORD),
    "str(Word)": lambda: str(_HUGE_WORD),
    "apply_word": lambda: apply_word(PT, _HUGE_WORD, pt(-2, -3, -5)),
    "index_shift_bruteforce": lambda: index_shift_bruteforce(_HUGE),
    "lift_consistency": lambda: lift_consistency(
        surface_from_seed(*[LaurentPoly.zero()] * 6), _HUGE_WORD),
    "zp_numerators(p)": lambda: zp_numerators(_HUGE + 1, F(1, 4)),
    "zp_numerators(D)": lambda: zp_numerators(2, F(1, 2**34000)),
}


class TestSizeChecks:
    @pytest.mark.parametrize("name", sorted(set(_SIZED) - {"greedy_path"}) + sorted(_PAST_STR))
    def test_sizes_past_the_digit_limit(self, name):
        # The message names such a size by its digit count, so the bound's
        # ResourceError is raised, not str()'s ValueError.
        call = _PAST_STR[name] if name in _PAST_STR else lambda: _SIZED[name][1](_HUGE)
        with pytest.raises(ResourceError, match="exceeds the configured bound") as info:
            call()
        assert "digits>" in str(info.value) and len(str(info.value)) < 200

    @pytest.mark.parametrize("bad", [2.0, True, "3"], ids=repr)
    @pytest.mark.parametrize("name", sorted(_SIZED))
    def test_only_ints(self, name, bad):
        # A float or bool equal to an int, or a string naming one, is refused
        # before any work, as an index is.
        what, call = _SIZED[name]
        with pytest.raises(UsageError) as info:
            call(bad)
        assert str(info.value) == f"{what} must be an int, got {type(bad).__name__}"
        call(3)


class TestInvolutions:
    def test_examples(self):
        assert trop_vieta(PT, 3, pt(-2, -3, -5)) == pt(-2, -3, -1)
        assert trop_vieta(PT, 1, pt(0, -1, -1)) == pt(-2, -1, -1)

    def test_apply_word_examples(self):
        assert apply_word(PT, Word(), pt(-2, -3, -5)) == pt(-2, -3, -5)
        assert apply_word(PT, Word.parse("s2 s3"), pt(-2, -3, -5)) == pt(-2, -1, -1)
        assert apply_word(PT, Word.parse("s1 s2 s3"), pt(-2, -3, -5)) == pt(0, -1, -1)

    def test_apply_word_step_bound(self, monkeypatch):
        # Past STEP_BOUND letters apply_word raises before its first reflection.
        start = time.perf_counter()
        with pytest.raises(ResourceError, match="exceeds the configured bound"):
            apply_word(PT, Word.from_runs([(1, 2, 10**8)]), pt(-2, -3, -5))
        assert time.perf_counter() - start < 1
        monkeypatch.setattr(dynamics, "STEP_BOUND", 100)
        x = pt(-2, -3, -5)
        expected = x
        for g in reversed((1, 2) * 50):
            expected = oracle_trop_vieta(PT, g, expected)
        assert apply_word(PT, Word.from_runs([(1, 2, 100)]), x) == expected
        with pytest.raises(ResourceError):
            apply_word(PT, Word.from_runs([(3, 1, 1), (1, 2, 100)]), x)

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
            return _cell_slots(*args)

        monkeypatch.setattr(dynamics, "_cell_slots", counted)
        trace = greedy_path(params, pt(*start))
        assert trace.kind == kind and trace.steps >= 3
        assert len(calls) == trace.steps + 1

    def test_calls_no_trop_vieta(self, monkeypatch):
        # Each step reflects on the monomials its cell test read.
        def refused(*args):
            raise AssertionError("greedy_path called trop_vieta")

        monkeypatch.setattr(dynamics, "trop_vieta", refused)
        for params, start, budget, kind, steps in (
                (PT, pt(-2, -3, -5), None, "ray", 3),
                (Params.parse("inf,inf,inf,-3"), pt(-8, -5, -13), None, "subquadratic", 5),
                (PT, pt(-2, -3, -5), 2, "exhausted", 2),
                (PT, u_inverse(1, (1000, 1001)), None, "ray", 1001)):
            trace = greedy_path(params, start, budget)
            assert trace.kind == kind and trace.steps == steps

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
            return _cell_slots(*args)

        monkeypatch.setattr(dynamics, "_cell_slots", counted)
        trace = greedy_path(params, u_inverse(1, (scale * m.denominator, scale * m.numerator)))
        assert trace.kind == kind and trace.steps == len(trace.word) == steps
        # One cell test where each run lands and one after the single step
        # that leaves it.
        assert len(calls) <= 2 * len(continued_fraction(m).terms) + 2

    def test_no_run_length_call_where_a_run_ends(self, monkeypatch):
        # Where a call returned t >= 1, the next answer is certainly 0, and the
        # greedy skips it: 10 calls on this slope become the 5 nonzero ones.
        sizes = []
        run_length = dynamics._run_length

        def counted(*args):
            sizes.append(run_length(*args))
            return sizes[-1]

        monkeypatch.setattr(dynamics, "_run_length", counted)
        m = F(10**9 + 7, 12345678)
        trace = greedy_path(PT, u_inverse(1, (m.denominator, m.numerator)))
        assert sizes == [80, 138714, 1, 13, 1]
        assert (trace.kind, trace.ray_index, trace.steps) == ("ray", 3, 138815)
        assert trace.terminal == (-1, -1, 0)
        assert trace.word.runs == ((3, 1, 2), (3, 2, 14), (3, 1, 2), (3, 2, 138715), (2, 1, 82))

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


_PLANE = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def _skeleton_cases(draw):
    """(params, x) with x on the skeleton: the lift of a plane point, of one on
    a wall x_i = x_j or of the junction v = 0, or a point of a ray; then some
    parameters moved so that their monomials tie x1 + x2 + x3 at x, which puts
    x on walls and junctions of the subquadratic cells too."""
    params = draw(_PARAMS)
    kind = draw(st.sampled_from(("plane", "wall", "junction", "ray")))
    if kind == "ray":
        i = draw(st.sampled_from((1, 2, 3)))
        x = ray_point(i, thresholds(params)[i - 1].finite - draw(_PLANE.map(abs)))
    else:
        v1, v2 = (0, 0) if kind == "junction" else (draw(_PLANE), draw(_PLANE))
        v = draw(st.permutations(plane_point(v1, v1 if kind == "wall" else v2)))
        x = lift_from_plane(params, 0, v)
    entries = [params.a, params.b, params.c, params.d]
    for k in draw(st.sets(st.sampled_from(range(4)))):
        entries[k] = ExtRat(sum(x) - (x[k] if k < 3 else 0))
    return Params(*entries), x


class TestReflect:
    """The greedy's reflection on its cell test's monomials against conftest,
    and the monomials it carries to the image against a fresh evaluation."""

    @given(_skeleton_cases())
    @settings(max_examples=300, deadline=None)
    @example((Params.parse("inf,inf,inf,1"), pt(0, 0, 0)))  # three quadratic cells
    @example((Params.parse("0,0,0,0"), pt(0, 0, 0)))  # all seven cells
    def test_matches_oracle_trop_vieta(self, case):
        params, x = case
        finite = _finite_values(params)
        values = _monomials(finite, x)
        slots = _cell_slots(params, values, x)
        assert {CELL_ORDER[k] for k in slots} == oracle_cells_of(params, x)
        for i in (1, 2, 3):
            y, carried = dynamics._reflect(values, finite, i, x)
            assert y == oracle_trop_vieta(params, i, x)
            assert carried == _monomials(finite, y)
            assert {CELL_ORDER[k] for k in _cell_slots(params, carried, y)} == oracle_cells_of(
                params, y)

    @given(_skeleton_cases(), st.lists(st.sampled_from((1, 2, 3)), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_carried_slots_along_letters(self, case, letters):
        # Each image's slots come from the last point's, never from a fresh
        # evaluation; letters may repeat, so a step can undo the one before.
        params, x = case
        finite = _finite_values(params)
        values = _monomials(finite, x)
        for i in letters:
            expected = oracle_trop_vieta(params, i, x)
            x, values = dynamics._reflect(values, finite, i, x)
            assert x == expected and values == _monomials(finite, x)

    @given(params_on_walls(), st.tuples(*[WALL_FRACTIONS] * 3), st.sampled_from((1, 2, 3)))
    @settings(max_examples=200, deadline=None)
    def test_carried_slots_off_the_skeleton(self, params, x, i):
        # The reflection is total on R^3; parameters on walls tie monomials.
        finite = _finite_values(params)
        y, carried = dynamics._reflect(_monomials(finite, x), finite, i, x)
        assert y == oracle_trop_vieta(params, i, x) and carried == _monomials(finite, y)


def _run_case(i, j, u1, u2, den, offsets):
    """A point interior to the quadratic cell i, with u-coordinates (u1, u2)/den,
    a run partner j, and parameters whose monomials exceed the cell's one at
    the point by k * (u1 + u2)/den + (p * u1 + q * u2 + r)/den for each offset
    (k, p, q, r); an offset None makes the parameter +inf.  Small p, q and r put
    run points on or next to the cell walls."""
    x = u_inverse(i, (F(u1, den), F(u2, den)))
    m = 2 * x[i - 1]
    bases = (m - x[0], m - x[1], m - x[2], m)
    return Params.make(*(
        "inf" if off is None else e + off[0] * F(u1 + u2, den) + F(off[1] * u1 + off[2] * u2
                                                                   + off[3], den)
        for off, e in zip(offsets, bases))), x


def _lattice_run_length(params, x, i, j, cap, factor=1):
    """dynamics._run_length on the lattice greedy_path sets up, L times factor."""
    scale, coeffs = _on_lattice(params, factor, *(v.denominator for v in x))
    return dynamics._run_length(coeffs, scale, x, i, j, cap)


# Coordinates and denominators of a few digits or of thousands.
_SIZES = st.one_of(st.integers(1, 60), st.integers(1, 10**3000))
_DENS = st.one_of(st.integers(1, 12), st.integers(1, 10**1500))
# Offsets up to a few times the point's size, on or off the lattice of the
# point, and near the walls: any monomial can end a run, at or next to a tie.
_OFFSETS = st.lists(st.one_of(st.none(), st.tuples(
    st.one_of(st.just(0), st.fractions(F(1, 1000), 4, max_denominator=1000)),
    st.integers(0, 6), st.integers(0, 6), st.integers(-1, 1))), min_size=4, max_size=4)
HUGE_CAP = 10**4000


class TestRunLength:
    """The integer run length equals the Fraction one in conftest."""

    @given(st.sampled_from(_PAIRS), _SIZES, _SIZES, _DENS, _OFFSETS,
           st.integers(1, 10**20), st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    # The AX1 monomial one lattice step past a wall, then on it.
    @example((1, 2), 5, 50, 1, [(0, 2, 0, 1), None, None, None], 1, 0)
    @example((1, 2), 5, 50, 1, [(0, 2, 0, 0), None, None, None], 1, 0)
    def test_matches_fraction_oracle(self, pair, u1, u2, den, offsets, factor, cap):
        params, x = _run_case(*pair, u1, u2, den, offsets)
        t = oracle_run_length(params, x, *pair, HUGE_CAP)
        for c in {0, 1, max(t - 1, 0), t, t + 1, cap, HUGE_CAP}:
            expected = oracle_run_length(params, x, *pair, c)
            assert _lattice_run_length(params, x, *pair, c) == expected
            assert _lattice_run_length(params, x, *pair, c, factor) == expected

    def test_every_cell_ends_some_run(self):
        # The cases above end runs at every cell kind: the monomial that is not
        # above the expected cell's one at the first run point left out.
        rng = random.Random(16)
        ends = set()
        for _ in range(300):
            i, j = rng.choice(_PAIRS)
            offsets = [None if rng.random() < 0.3 else
                       (F(rng.randint(0, 4000), 1000), rng.randint(0, 2), rng.randint(0, 2),
                        rng.randint(-1, 1)) for _ in range(4)]
            params, x = _run_case(i, j, rng.randint(1, 10**40), rng.randint(1, 10**40),
                                  rng.randint(1, 10**6), offsets)
            t = _lattice_run_length(params, x, i, j, HUGE_CAP)
            assert t == oracle_run_length(params, x, i, j, HUGE_CAP)
            if t < HUGE_CAP:
                values = oracle_monomial_values(params, dynamics._run_point(x, i, j, t + 1))
                cell = quadratic_cell(j if t % 2 == 0 else i)
                ends |= {c for c, v in values.items() if c is not cell and v <= values[cell]}
        assert ends == set(CellId)


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
                assert img_cells & {quadratic_cell(j), SUBQUADRATIC_CELLS[j - 1]}
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
