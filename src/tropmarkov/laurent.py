"""Rational-coefficient Laurent polynomials in one variable t.

Sparse exponent-to-coefficient maps; the t-adic valuation of a nonzero
polynomial is its least exponent, and the zero polynomial has valuation
+infinity.
"""

from __future__ import annotations

import re
from collections.abc import Iterator, Mapping
from fractions import Fraction

from .errors import UsageError
from .scalars import INF, ExtRat, parse_rational

_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*"
    r"(?:(?P<coeff>\d+(?:/\d+)?)\s*\*?\s*)?"
    r"(?P<var>t(?:\^(?P<exp>-?\d+))?)?"
)


class LaurentPoly:
    """Finitely supported map from integer exponents to nonzero rationals."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, Fraction | int] | None = None):
        clean: dict[int, Fraction] = {}
        if coeffs:
            for e, c in coeffs.items():
                c = Fraction(c)
                if c != 0:
                    clean[int(e)] = c
        self._c = clean

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def constant(cls, c: Fraction | int) -> "LaurentPoly":
        return cls({0: Fraction(c)})

    @classmethod
    def monomial(cls, exponent: int, coeff: Fraction | int = 1) -> "LaurentPoly":
        return cls({exponent: Fraction(coeff)})

    @classmethod
    def parse(cls, text: str) -> "LaurentPoly":
        """Parse e.g. ``"3*t^-2 + t^-3"``, ``"1/2*t - 4"``, ``"0"``."""
        s = text.strip()
        if not s:
            raise UsageError("empty Laurent polynomial")
        coeffs: dict[int, Fraction] = {}
        pos = 0
        first = True
        while pos < len(s):
            m = _TERM_RE.match(s, pos)
            if not m or m.end() == pos:
                raise UsageError(f"cannot parse Laurent polynomial near {s[pos:]!r}")
            sign, coeff, var, exp = m.group("sign", "coeff", "var", "exp")
            if coeff is None and var is None:
                raise UsageError(f"cannot parse Laurent polynomial near {s[pos:]!r}")
            if sign is None and not first:
                raise UsageError(f"missing sign between terms in {text!r}")
            c = parse_rational(coeff) if coeff is not None else Fraction(1)
            if sign == "-":
                c = -c
            e = 0
            if var is not None:
                e = int(parse_rational(exp)) if exp is not None else 1
            coeffs[e] = coeffs.get(e, Fraction(0)) + c
            pos = m.end()
            first = False
        return cls(coeffs)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self._c)
        for e, c in other._c.items():
            out[e] = out.get(e, Fraction(0)) + c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._c.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, Fraction] = {}
        for e1, c1 in self._c.items():
            for e2, c2 in other._c.items():
                e = e1 + e2
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return LaurentPoly(out)

    def square(self) -> "LaurentPoly":
        return self * self

    # -- queries --------------------------------------------------------------

    def t_valuation(self) -> ExtRat:
        """Least exponent among nonzero terms; +infinity for the zero polynomial."""
        if not self._c:
            return INF
        return ExtRat(min(self._c))

    @property
    def is_zero(self) -> bool:
        return not self._c

    def coefficient(self, exponent: int) -> Fraction:
        return self._c.get(exponent, Fraction(0))

    def items(self) -> Iterator[tuple[int, Fraction]]:
        return iter(sorted(self._c.items()))

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(tuple(sorted(self._c.items())))

    def __bool__(self):
        return bool(self._c)

    def __str__(self):
        if not self._c:
            return "0"
        parts = []
        for e in sorted(self._c, reverse=True):
            c = self._c[e]
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif e == 1:
                body = "t" if mag == 1 else f"{mag}*t"
            else:
                body = f"t^{e}" if mag == 1 else f"{mag}*t^{e}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({str(self)!r})"
