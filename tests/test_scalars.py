import copy
import pickle
import random
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from conftest import VALUE_TWINS
from tropmarkov.arithmetic import SurfacePointL, fatou_condition, fatou_witness, surface_from_seed
from tropmarkov.classifier import FareyTriple, classify, farey_enumerate
from tropmarkov.dynamics import Word, greedy_path
from tropmarkov.errors import DomainError, UsageError
from tropmarkov.laurent import LaurentPoly
from tropmarkov.scalars import (
    CF,
    INF,
    ExtRat,
    continued_fraction,
    ext_min,
    is_prime,
    p_adic_valuation,
    parse_rational,
    thomae_gcd,
)
from tropmarkov.sampling import random_skeleton_point
from tropmarkov.surface import (CELL_ORDER, Params, cell_has_interior, fixed_set_point,
                                is_meromorphic, thresholds)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)
nonneg_rationals = st.fractions(min_value=0, max_value=100, max_denominator=100)


class TestExtRat:
    def test_ext_min_examples(self):
        assert ext_min([INF, ExtRat(-2), ExtRat(0)]) == -2
        assert ext_min([INF, INF]).is_infinite
        vals = [ExtRat(2 * x) for x in (-1, -2, -5)] + [ExtRat(-2)]
        assert ext_min(vals) == -10

    def test_ext_min_empty_is_usage_error(self):
        with pytest.raises(UsageError):
            ext_min([])

    def test_infinity_absorbs_addition(self):
        assert (INF + Fraction(3, 2)).is_infinite
        assert (ExtRat(Fraction(1, 3)) + INF).is_infinite
        assert ExtRat(2) + ExtRat(Fraction(1, 2)) == Fraction(5, 2)

    @given(rationals, rationals)
    @example(Fraction(0), Fraction(-1, 3))
    def test_fraction_kept_as_is_matches_copying_path(self, f, g):
        # ExtRat(Fraction) stores the Fraction itself; the old path stored a
        # copy, Fraction(f).  Both must agree in value, order and hash.
        def copied(value):
            out = ExtRat.__new__(ExtRat)
            out._v = Fraction(value)
            return out

        kept, old = ExtRat(f), copied(f)
        assert kept.finite is f
        assert kept.finite == old.finite and kept == old and str(kept) == str(old)
        assert hash(kept) == hash(old) == hash(f)
        other, other_old = ExtRat(g), copied(g)
        assert (kept < other, kept <= other, kept == other) == (
            old < other_old, old <= other_old, old == other_old)
        assert kept < INF and old < INF and ExtRat(f) + g == old + other_old

    def test_negative_infinity_rejected(self):
        with pytest.raises(DomainError):
            -INF
        with pytest.raises(DomainError):
            ExtRat(1) - INF
        with pytest.raises(DomainError):
            INF * 0

    def test_order_and_parsing(self):
        assert ExtRat("inf").is_infinite
        assert ExtRat("-3/2") == Fraction(-3, 2)
        assert ExtRat(1) < INF
        assert INF <= INF
        assert not INF < INF
        assert str(INF) == "inf"
        assert str(ExtRat(Fraction(-3, 2))) == "-3/2"

    @pytest.mark.parametrize("text", ["abc", "1/0", ""])
    def test_malformed_string_is_usage_error(self, text):
        with pytest.raises(UsageError):
            ExtRat(text)

    @given(rationals, rationals)
    def test_order_matches_fractions(self, x, y):
        assert (ExtRat(x) < ExtRat(y)) == (x < y)
        assert (ExtRat(x) == ExtRat(y)) == (x == y)

    @given(st.one_of(st.just(INF), rationals.map(ExtRat)),
           st.one_of(st.just(INF), rationals.map(ExtRat), rationals, st.integers(-50, 50)))
    @example(INF, INF)
    @example(ExtRat(0), 0)
    def test_order_is_one_total_order(self, x, y):
        # One __lt__ (+inf greatest) and __eq__; <=, > and >= derive from them,
        # and a Fraction or int on either side compares as its ExtRat.
        def key(v):
            v = v if isinstance(v, ExtRat) else ExtRat(v)
            return (1, 0) if v.is_infinite else (0, v.finite)

        kx, ky = key(x), key(y)
        assert (x < y, x <= y, x > y, x >= y, x == y, x != y) == (
            kx < ky, kx <= ky, kx > ky, kx >= ky, kx == ky, kx != ky)
        assert (y < x, y <= x, y > x, y >= x) == (ky < kx, ky <= kx, ky > kx, ky >= kx)

    def test_comparisons_live_on_the_class(self):
        # A tracer that wraps ExtRat's operators reads them from the class dict.
        assert {"__eq__", "__lt__", "__le__", "__gt__", "__ge__"} <= set(ExtRat.__dict__)

    def test_halving_and_scaling(self):
        assert (INF / 2).is_infinite
        assert (2 * INF).is_infinite
        assert ExtRat(Fraction(-3)) / 2 == Fraction(-3, 2)


class TestNoExtRatArithmeticInTheFormulas:
    """With ExtRat's arithmetic and ext_min made to raise, the parameter formulas
    still run on parameters with +inf entries: they read Fractions, None where
    +inf drops a term."""

    ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                  "__truediv__", "__neg__")
    PARAMS = ("inf,inf,inf,-2", "-1,inf,2,-3", "inf,-1/2,inf,inf", "0,inf,inf,-1",
              "-2,inf,inf,-3", "inf,1,-1,inf", "-3,-1,inf,-5/2")

    def test_formulas_run_without_extrat_arithmetic(self, monkeypatch):
        rng = random.Random(7)
        cases = [(Params.parse(text), [random_skeleton_point(rng, Params.parse(text))
                                       for _ in range(20)]) for text in self.PARAMS]

        def refuse(*args, **kwargs):
            raise AssertionError("ExtRat arithmetic in a parameter formula")

        for op in self.ARITHMETIC:
            monkeypatch.setattr(ExtRat, op, refuse)
        for module in [m for name, m in sys.modules.items() if name.startswith("tropmarkov")]:
            if getattr(module, "ext_min", None) is ext_min:
                monkeypatch.setattr(module, "ext_min", refuse)
        witnesses = classified = 0
        for params, points in cases:
            for cell in CELL_ORDER:
                cell_has_interior(params, cell)
            for i in (1, 2, 3):
                fixed_set_point(params, i, Fraction(-1, 2), Fraction(3))
            thresholds(params)
            if fatou_condition(params):
                fatou_witness(params)
                witnesses += 1
            for x in points:
                greedy_path(params, x)
                if is_meromorphic(params):
                    classify(params, x)
                    classified += 1
        assert witnesses >= 3 and classified >= 80


class TestParseRational:
    def test_forms(self):
        assert [parse_rational(t) for t in (" -3/2 ", "7", "0.25", "-15e-1", "1_000")] == \
            [Fraction(-3, 2), 7, Fraction(1, 4), Fraction(-3, 2), 1000]
        for token in ("x", "1/0", "", "1/2/3", "1e_1"):
            with pytest.raises(UsageError, match="not a rational number"):
                parse_rational(token)

    def test_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        nines = "9" * limit
        assert parse_rational(nines) == 10**limit - 1
        assert parse_rational(f"-1/{nines}") == Fraction(-1, 10**limit - 1)
        assert parse_rational(f"1e{limit - 1}") == 10 ** (limit - 1)
        # A digit too many, an exponent past the limit (checked before its power
        # is built), and a decimal whose parts fit but whose numerator does not.
        half = "1" * (limit // 2 + 1)
        for token in (nines + "9", f"1/{nines}9", f"1e{limit}", "1e-100000", f"{half}.{half}"):
            with pytest.raises(UsageError) as info:
                parse_rational(token)
            message = str(info.value)
            assert f"exceeds the limit of {limit} digits" in message and len(message) < 120
        with pytest.raises(UsageError, match=f"limit of {limit} digits"):
            ExtRat(nines + "9")

    def test_follows_the_interpreter_limit(self):
        before = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            assert parse_rational("9" * 640) == 10**640 - 1
            with pytest.raises(UsageError, match="limit of 640 digits"):
                parse_rational("9" * 641)
            sys.set_int_max_str_digits(0)
            assert parse_rational("9" * 5000) == 10**5000 - 1
        finally:
            sys.set_int_max_str_digits(before)


class TestThomaeGcd:
    def test_examples(self):
        assert thomae_gcd(3, 2) == 1
        assert thomae_gcd(Fraction(1), Fraction(5, 3)) == Fraction(1, 3)
        assert thomae_gcd(Fraction(4, 3), Fraction(2, 5)) == Fraction(2, 15)

    def test_zero_conventions(self):
        assert thomae_gcd(0, 0) == 0
        assert thomae_gcd(0, Fraction(-7, 3)) == Fraction(7, 3)

    @given(rationals, rationals, rationals)
    def test_homogeneity(self, x, y, c):
        assert thomae_gcd(c * x, c * y) == abs(c) * thomae_gcd(x, y)

    @given(rationals, rationals, st.lists(st.sampled_from("pmsn"), max_size=6))
    def test_gl2_invariance(self, x, y, ops):
        # Random unimodular matrix as a product of elementary generators.
        a, b, c, d = 1, 0, 0, 1
        for op in ops:
            if op == "p":
                a, b = a + c, b + d
            elif op == "m":
                c, d = a + c, b + d
            elif op == "s":
                a, b, c, d = c, d, a, b
            else:
                a, b, c, d = -a, -b, c, d
        assert abs(a * d - b * c) == 1
        assert thomae_gcd(a * x + b * y, c * x + d * y) == thomae_gcd(x, y)


class TestContinuedFraction:
    def test_examples(self):
        assert continued_fraction(Fraction(2, 3)).terms == (0, 1, 2)
        assert continued_fraction(5).terms == (5,)
        assert continued_fraction(1).terms == (1,)
        assert continued_fraction(0).terms == (0,)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            continued_fraction(Fraction(-1, 2))
        with pytest.raises(DomainError):
            continued_fraction(INF)

    def test_canonical_form_rejects_trailing_one(self):
        with pytest.raises(UsageError):
            CF((0, 1, 1))
        with pytest.raises(UsageError):
            CF(())

    @given(nonneg_rationals)
    def test_round_trip(self, m):
        cf = continued_fraction(m)
        assert cf.value() == m
        assert len(cf.terms) == 1 or cf.terms[-1] > 1

    def test_str(self):
        assert str(continued_fraction(Fraction(2, 3))) == "[0; 1, 2]"
        assert str(continued_fraction(5)) == "[5]"


class TestPAdic:
    def test_examples(self):
        assert p_adic_valuation(Fraction(1, 4), 2) == -2
        assert p_adic_valuation(0, 5).is_infinite
        assert p_adic_valuation(Fraction(20, 6), 3) == -1

    def test_non_prime_rejected(self):
        with pytest.raises(UsageError):
            p_adic_valuation(Fraction(1, 4), 4)

    def test_is_prime(self):
        assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    @given(rationals, rationals, st.sampled_from([2, 3, 5, 7]))
    def test_valuation_laws(self, x, y, p):
        vx, vy = p_adic_valuation(x, p), p_adic_valuation(y, p)
        assert p_adic_valuation(x * y, p) == vx + vy
        vsum = p_adic_valuation(x + y, p)
        low = vx if vx <= vy else vy
        assert vsum >= low
        if vx != vy:
            assert vsum == low


# -- value classes against their dataclass twins ------------------------------------

PLAIN = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.text("ab", max_size=2),
                  st.fractions(min_value=-2, max_value=2, max_denominator=3),
                  st.tuples(st.integers(0, 2), st.integers(0, 2)),
                  st.sampled_from([INF, ExtRat(-1)]))
LAURENT = st.dictionaries(st.integers(-1, 1), st.integers(-2, 2), max_size=2).map(LaurentPoly)
PAIR = st.tuples(st.integers(-1, 3), st.integers(0, 3))


def _surface_values(seed) -> tuple:
    point = surface_from_seed(*seed)
    return tuple(getattr(point, name) for name in SurfacePointL.__slots__)


def field_values(cls):
    """Field values for ``cls``, valid and invalid alike where it validates."""
    if cls is CF:
        return st.lists(st.integers(-1, 4), max_size=4).map(lambda t: (tuple(t),))
    if cls is Word:
        return st.lists(st.integers(1, 3), max_size=6).map(lambda g: (Word.reduce(g).runs,))
    if cls is FareyTriple:
        valid = [(t.left, t.mid, t.right) for t in farey_enumerate(3)]
        return st.one_of(st.sampled_from(valid), st.tuples(PAIR, PAIR, PAIR))
    if cls is SurfacePointL:
        return st.one_of(st.tuples(*[LAURENT] * 6).map(_surface_values),
                         st.tuples(*[LAURENT] * 7))
    return st.tuples(*[PLAIN] * len(cls.__slots__))


@st.composite
def value_calls(draw):
    """(class, args, kwargs): field values passed by position, by keyword in
    any order or left to their defaults, and possibly one more defect: an
    extra positional, an unknown keyword or a keyword repeating a positional."""
    cls = draw(st.sampled_from([c for c in VALUE_TWINS if c is not Word]))
    names, values = cls.__slots__, draw(field_values(cls))
    k = draw(st.integers(0, len(names)))
    args = list(values[:k])
    kwargs = [(n, v) for n, v in zip(names[k:], values[k:]) if draw(st.integers(0, 4))]
    defect = draw(st.sampled_from([None, None, "extra", "unknown", "repeated"]))
    if defect == "extra":
        args = list(values) + [None]
    elif defect == "unknown":
        kwargs.append(("zz", 0))
    elif defect == "repeated" and k:
        kwargs.append((names[draw(st.integers(0, k - 1))], None))
    return cls, args, dict(draw(st.permutations(kwargs)))


def outcome(call):
    """The value of call(), or the type of the exception it raised."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 -- the type is the outcome
        return type(exc)


def same_value(own, twin) -> None:
    names = type(own).__slots__
    assert [getattr(own, n) for n in names] == [getattr(twin, n) for n in names]
    assert repr(own) == repr(twin)
    assert outcome(lambda: hash(own)) == outcome(lambda: hash(twin))


class TestValueClass:
    """scalars.value_class against @dataclass(frozen=True, slots=True) twins
    (tests/conftest.py VALUE_TWINS)."""

    @given(value_calls())
    def test_construction_matches_dataclass(self, call):
        cls, args, kwargs = call
        own = outcome(lambda: cls(*args, **kwargs))
        twin = outcome(lambda: VALUE_TWINS[cls](*args, **kwargs))
        if isinstance(twin, type):
            assert own is twin
        else:
            assert type(own) is cls
            same_value(own, twin)

    @given(st.data())
    def test_value_behaviour_matches_dataclass(self, data):
        cls = data.draw(st.sampled_from(list(VALUE_TWINS)))
        twin_cls = VALUE_TWINS[cls]
        pair = [data.draw(field_values(cls)) for _ in range(2)]
        # Word keeps its own __init__ over letters; its runs go in unchecked.
        make = Word._of_runs if cls is Word else cls
        own = [outcome(lambda v=v: make(*v)) for v in pair]
        if any(isinstance(o, type) for o in own):
            return  # invalid values; test_construction_matches_dataclass covers them
        twin = [twin_cls(*v) for v in pair]
        for o, t in zip(own, twin):
            same_value(o, t)
            assert (o == t) is False and (o != t) is True
        assert (own[0] == own[1]) == (twin[0] == twin[1])
        assert (own[0] != own[1]) == (twin[0] != twin[1])
        assert cls.__match_args__ == twin_cls.__match_args__ == cls.__slots__
        value = own[0]
        for name in cls.__slots__:
            for act in (lambda o: setattr(o, name, 1), lambda o: delattr(o, name)):
                with pytest.raises(FrozenInstanceError) as mine:
                    act(value)
                with pytest.raises(FrozenInstanceError) as theirs:
                    act(twin[0])
                assert str(mine.value) == str(theirs.value)
        # A name that is not a field is refused as well (the slotted dataclass
        # raises TypeError from its super() call there).
        with pytest.raises(FrozenInstanceError):
            value.other = 1
        for clone in (copy.copy(value), copy.deepcopy(value),
                      *(pickle.loads(pickle.dumps(value, protocol))
                        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1))):
            assert type(clone) is cls and clone == value and hash(clone) == hash(value)

    def test_match_by_position(self):
        match Params.make(1, 2, "inf", -2):
            case Params(a, b, c, d):
                assert (str(a), str(b), str(c), str(d)) == ("1", "2", "inf", "-2")
            case _:
                pytest.fail("a Params did not match its class pattern")

    def test_post_init_validates_and_unchecked_paths_skip_it(self):
        with pytest.raises(UsageError):
            CF((1, 1))
        with pytest.raises(DomainError):
            FareyTriple((0, 1), (1, 2), (1, 0))
        one = LaurentPoly.constant(1)
        with pytest.raises(DomainError):
            SurfacePointL(one, one, one, one, one, one, one + one)
        point = SurfacePointL._unchecked(one, one, one, one, one, one, one)
        assert point.coordinates() == (one, one, one) and point.D == one
        with pytest.raises(UsageError):
            Word((1, 1))
        assert Word._of_runs(((1, 1, 2),)).runs == ((1, 1, 2),)

    def test_class_keeps_its_own_init_and_methods(self):
        assert Word([1, 2]).runs == ((1, 2, 2),)
        assert Word.__init__ is not VALUE_TWINS[Word].__init__
        assert str(CF((0, 1, 2))) == "[0; 1, 2]" and Params.__doc__.startswith("Coefficient")
        assert not hasattr(Params.make(0, 0, 0, 0), "__dict__")
