"""Exact scalar arithmetic.

Extended rationals (rationals plus +infinity), the Thomae-style gcd of two
rationals, canonical continued fractions, and p-adic valuations.  Everything
here is exact; no floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .errors import DomainError, UsageError

RationalLike = Union[int, Fraction]


class ExtRat:
    """A rational number extended with +infinity.

    Finite values are stored as ``Fraction`` (lowest terms, positive
    denominator); a ``Fraction`` argument is stored as it is, since Fractions
    are immutable.  +infinity absorbs addition and is the greatest element
    under the order.  -infinity is not representable: operations that would
    produce it raise ``DomainError``.
    """

    __slots__ = ("_v",)

    def __init__(self, value: "ExtRat | RationalLike | str" = 0):
        if type(value) is Fraction:
            self._v = value
        elif isinstance(value, ExtRat):
            self._v = value._v
        elif isinstance(value, str):
            s = value.strip().lower()
            self._v = None if s in ("inf", "+inf", "infinity") else parse_rational(s)
        elif isinstance(value, (int, Fraction)):
            self._v = Fraction(value)
        else:
            raise UsageError(f"cannot build an extended rational from {value!r}")

    @classmethod
    def infinity(cls) -> "ExtRat":
        out = cls.__new__(cls)
        out._v = None
        return out

    @property
    def is_infinite(self) -> bool:
        return self._v is None

    @property
    def finite(self) -> Fraction:
        if self._v is None:
            raise DomainError("value is infinite where a finite rational is required")
        return self._v

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._v is None or other._v is None:
            return INF
        return ExtRat(self._v + other._v)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other._v is None:
            raise DomainError("subtracting infinity would produce -infinity")
        if self._v is None:
            return INF
        return ExtRat(self._v - other._v)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__sub__(self)

    def __mul__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if self._v is None:
            if other <= 0:
                raise DomainError("infinity may only be scaled by a positive rational")
            return INF
        return ExtRat(self._v * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if other <= 0:
            raise DomainError("division of extended rationals requires a positive divisor")
        if self._v is None:
            return INF
        return ExtRat(self._v / other)

    def __neg__(self):
        if self._v is None:
            raise DomainError("-infinity is not representable")
        return ExtRat(-self._v)

    # -- order --------------------------------------------------------------

    def _cmp(self, other) -> int:
        if self._v is None and other._v is None:
            return 0
        if self._v is None:
            return 1
        if other._v is None:
            return -1
        return (self._v > other._v) - (self._v < other._v)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._v == other._v

    def __lt__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._cmp(other) < 0

    def __le__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._cmp(other) <= 0

    def __gt__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._cmp(other) > 0

    def __ge__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._cmp(other) >= 0

    def __hash__(self):
        return hash(self._v) if self._v is not None else hash("ExtRat:inf")

    def __str__(self):
        return "inf" if self._v is None else str(self._v)

    def __repr__(self):
        return f"ExtRat({str(self)!r})"


INF = ExtRat.infinity()


def _coerce(value) -> "ExtRat":
    if isinstance(value, ExtRat):
        return value
    if isinstance(value, (int, Fraction)):
        return ExtRat(value)
    return NotImplemented


def ext_min(values: Iterable[ExtRat | RationalLike]) -> ExtRat:
    """Least element of a nonempty collection, with infinity greatest."""
    best: ExtRat | None = None
    for v in values:
        v = ExtRat(v) if not isinstance(v, ExtRat) else v
        if best is None or v < best:
            best = v
    if best is None:
        raise UsageError("ext_min of an empty collection")
    return best


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {text!r}") from exc


# -- Thomae-style gcd --------------------------------------------------------


def thomae_gcd(a: RationalLike, b: RationalLike) -> Fraction:
    """Greatest common divisor of two rationals.

    For a/b = p/q in lowest terms this is |a/p| = |b/q|; it is 0 only for
    a = b = 0, scales as gcd(ca, cb) = |c| gcd(a, b), and is invariant under
    GL2(Z) changes of the pair.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 and b == 0:
        return Fraction(0)
    num = math.gcd(abs(a.numerator) * b.denominator, abs(b.numerator) * a.denominator)
    return Fraction(num, a.denominator * b.denominator)


# -- continued fractions -----------------------------------------------------


@dataclass(frozen=True, slots=True)
class CF:
    """Canonical continued fraction [a0; a1, ..., al] of a nonnegative rational.

    a0 >= 0, a_i >= 1 for i >= 1, and the last term exceeds 1 whenever the
    expansion has more than one term.
    """

    terms: tuple[int, ...]

    def __post_init__(self):
        t = self.terms
        if not t:
            raise UsageError("continued fraction needs at least one term")
        if t[0] < 0 or any(a < 1 for a in t[1:]):
            raise UsageError(f"non-canonical continued fraction terms {t}")
        if len(t) > 1 and t[-1] < 2:
            raise UsageError("canonical continued fractions never end in 1")

    def value(self) -> Fraction:
        acc = Fraction(self.terms[-1])
        for a in reversed(self.terms[:-1]):
            acc = a + 1 / acc
        return acc

    def __str__(self):
        if len(self.terms) == 1:
            return f"[{self.terms[0]}]"
        rest = ", ".join(str(a) for a in self.terms[1:])
        return f"[{self.terms[0]}; {rest}]"


def continued_fraction(m: RationalLike | ExtRat) -> CF:
    """Canonical continued fraction of a finite nonnegative rational."""
    if isinstance(m, ExtRat):
        if m.is_infinite:
            raise DomainError("continued fraction of infinity is not defined")
        m = m.finite
    m = Fraction(m)
    if m < 0:
        raise DomainError("continued fraction requires a nonnegative input")
    p, q = m.numerator, m.denominator
    terms = []
    while True:
        a, r = divmod(p, q)
        terms.append(a)
        if r == 0:
            break
        p, q = q, r
    return CF(tuple(terms))


# -- p-adic valuations -------------------------------------------------------


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _int_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def p_adic_valuation(x: RationalLike, p: int) -> ExtRat:
    """Exponent of p in x, with the convention that the valuation of 0 is +infinity."""
    if not is_prime(p):
        raise UsageError(f"{p} is not prime")
    x = Fraction(x)
    if x == 0:
        return INF
    return ExtRat(_int_valuation(abs(x.numerator), p) - _int_valuation(x.denominator, p))
