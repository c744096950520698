from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tropmarkov.errors import DomainError, UsageError
from tropmarkov.scalars import (
    CF,
    INF,
    ExtRat,
    continued_fraction,
    ext_min,
    is_prime,
    p_adic_valuation,
    thomae_gcd,
)

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

    def test_halving_and_scaling(self):
        assert (INF / 2).is_infinite
        assert (2 * INF).is_infinite
        assert ExtRat(Fraction(-3)) / 2 == Fraction(-3, 2)


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
