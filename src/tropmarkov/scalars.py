"""Exact scalar arithmetic.

Extended rationals (rationals plus +infinity), the Thomae-style gcd of two
rationals, canonical continued fractions, and p-adic valuations.  Everything
here is exact; no floats.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from collections.abc import Iterable
from fractions import Fraction
from operator import attrgetter

from .errors import DomainError, ResourceError, UsageError

RationalLike = int | Fraction


# -- frozen value classes ----------------------------------------------------


def value_class(cls):
    """Rebuild ``cls`` as a frozen, slotted value class over its annotated fields,
    as ``@dataclass(frozen=True, slots=True)`` would: defaults, ``__post_init__``
    (a class with its own ``__init__`` keeps it), ``FrozenInstanceError``, copying
    and pickling included.  Its methods are closures: no source is generated.
    ``cls._unchecked(*fields)`` builds a value the library knows is valid from
    every field in order, as unpickling does: no ``__init__``, no ``__post_init__``."""
    names = tuple(cls.__annotations__)
    body = {k: v for k, v in cls.__dict__.items() if k not in ("__dict__", "__weakref__")}
    defaults = {name: body.pop(name) for name in names if name in body}
    post_init = body.get("__post_init__")
    count = len(names)
    after = [frozenset(names[k:]) for k in range(count + 1)]  # the fields after k positionals
    tails = [{n: defaults[n] for n in names[k:] if n in defaults} for k in range(count + 1)]
    get = attrgetter(*names)  # the value itself for one name, so wrap it
    values = get if count > 1 else lambda self: (get(self),)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:  # bind keywords and defaults by name
            k = len(args)
            given = {**tails[k], **kwargs} if k <= count else None
            if given is None or given.keys() != after[k]:
                raise TypeError(f"{cls.__qualname__}() takes {', '.join(names)} once each; got "
                                f"{k} positional and the keywords {', '.join(kwargs) or 'none'}")
            args = [*args, *map(given.__getitem__, names[k:])]
        i = 0  # a counter, not zip: the cheaper loop on a per-object path
        for value in args:
            setters[i](self, value)
            i += 1
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, names, values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setstate__(self, state):
        if len(state) != count:
            raise TypeError(f"{cls.__qualname__} has {count} fields, got {len(state)} values")
        i = 0  # a counter, as in __init__: zip(strict=True) costs twice the loop
        for value in state:
            setters[i](self, value)
            i += 1

    def _unchecked(cls, *fields):
        self = object.__new__(cls)
        __setstate__(self, fields)
        return self

    body.setdefault("__init__", __init__)
    body.update(__slots__=names, __match_args__=names, __eq__=__eq__, __repr__=__repr__,
                __hash__=lambda self: hash(values(self)), __setstate__=__setstate__,
                __getstate__=lambda self: list(values(self)), _unchecked=classmethod(_unchecked),
                __setattr__=lambda self, name, value: _frozen("assign to", name),
                __delattr__=lambda self, name: _frozen("delete", name))
    new = type(cls)(cls.__name__, cls.__bases__, body)
    setters = [new.__dict__[name].__set__ for name in names]
    return new


def _frozen(action: str, name: str):
    from dataclasses import FrozenInstanceError  # only when a value class refuses a change

    raise FrozenInstanceError(f"cannot {action} field {name!r}")


@functools.total_ordering
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

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._v == other._v

    def __lt__(self, other):
        """+infinity is the greatest element; total_ordering derives <=, > and >=."""
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._v is not None and (other._v is None or self._v < other._v)

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
    """A rational written "p/q", as an integer or as a decimal ("-1.5e-3").

    Its numerator and denominator must print back, so each may have at most
    the interpreter's limit on integer-string digits (4300 by default), and an
    exponent may be at most that limit; past it the UsageError names the limit.
    Either message shows a long token cut short.
    """
    token = text.strip()
    limit = sys.get_int_max_str_digits()  # 0: no limit
    try:
        # Only a token longer than the limit or one with an exponent can pass it.
        if limit and (len(token) > limit or "e" in token.lower()):
            return _rational_within(token, limit)
        return Fraction(token)
    except OverflowError:
        raise UsageError(f"{_cut(text)} exceeds the limit of {limit} digits for a numerator "
                         "or denominator") from None
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {_cut(text)}") from exc


# A decimal exponent, whose power of ten Fraction would build in full.
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)$")


def _rational_within(token: str, limit: int) -> Fraction:
    """Fraction(token), or OverflowError if a run of digits, the exponent, the
    numerator or the denominator passes ``limit`` digits; the exponent is
    checked before its power of ten is built."""
    power = _EXPONENT.search(token)
    runs = [len(run.replace("_", "")) for run in re.findall(r"[\d_]+", token)]
    if max(runs, default=0) > limit or power and int(power[1]) > limit:
        raise OverflowError
    value = Fraction(token)
    if max(abs(value.numerator), value.denominator) >= 10**limit:
        raise OverflowError
    return value


def _cut(text: str) -> str:
    """repr of text, or of its first 20 characters and its length when it is long."""
    return repr(text) if len(text) <= 40 else f"{text[:20]!r}... ({len(text)} characters)"


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


@value_class
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
    """Canonical continued fraction of a finite nonnegative rational: Euclid's
    quotients, canonical as they come, so the CF is built unchecked."""
    if isinstance(m, ExtRat):
        if m.is_infinite:
            raise DomainError("continued fraction of infinity is not defined")
        m = m.finite
    m = Fraction(m)
    if m < 0:
        raise DomainError("continued fraction requires a nonnegative input")
    return CF._unchecked(tuple(_quotients(m.numerator, m.denominator)))


def _quotients(p: int, q: int) -> list[int]:
    """The partial quotients of p/q for integers p >= 0 and q > 0: Euclid's loop."""
    terms = []
    while q:
        a, r = divmod(p, q)
        terms.append(a)
        p, q = q, r
    return terms


# -- p-adic valuations -------------------------------------------------------


# Largest n that is_prime trial-divides: at most 32,768 odd divisors, about 13 ms
# on a shared 2-vCPU VM with Python 3.11.  The cost grows like sqrt(n).
PRIME_BOUND = 2**32


def is_prime(n: int) -> bool:
    """Primality by trial division; ResourceError past PRIME_BOUND, before any division."""
    if n > PRIME_BOUND:
        # n is not printed: it may have more digits than str() allows.
        raise ResourceError(f"primality test above the configured bound {PRIME_BOUND}")
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
