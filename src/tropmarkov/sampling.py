"""Seeded exact samplers used by the experiment scripts and the test suite.

All sampling goes through the foliation: a random rational point of the plane
x1+x2+x3 = 0 lifts to an exact skeleton point, so no numerical tolerance is
ever involved.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .scalars import INF, ExtRat
from .surface import Params, PlanePoint, Point3, _lift_on_lattice
from .dynamics import Word


def _random_pair(rng: random.Random, span: int, max_den: int) -> tuple[int, int]:
    """(num, den) with den uniform in 1..max_den and num/den in [-span, span];
    not reduced."""
    den = rng.randint(1, max_den)
    return rng.randint(-span * den, span * den), den


def random_fraction(rng: random.Random, span: int = 6, max_den: int = 8) -> Fraction:
    return Fraction(*_random_pair(rng, span, max_den))


def random_plane_point(rng: random.Random, span: int = 6, max_den: int = 8) -> PlanePoint:
    v1 = random_fraction(rng, span, max_den)
    v2 = random_fraction(rng, span, max_den)
    return (v1, v2, -v1 - v2)


def random_skeleton_point(rng: random.Random, params: Params,
                          span: int = 6, max_den: int = 8) -> Point3:
    """The level-0 lift of a `random_plane_point`, drawn with the same calls
    and lifted straight from the integer pairs."""
    v1 = _random_pair(rng, span, max_den)
    v2 = _random_pair(rng, span, max_den)
    return _lift_on_lattice(params, 0, 1, *v1, *v2)


def random_params(rng: random.Random, meromorphic: bool | None = None,
                  span: int = 4, max_den: int = 4) -> Params:
    """Each entry is +inf with chance 0.3; meromorphic True or False redraws
    until some finite entry is, or none is, negative."""
    while True:
        entries = []
        negative = False
        for _ in range(4):
            if rng.random() < 0.3:
                entries.append(INF)
            else:
                num, den = _random_pair(rng, span, max_den)
                negative = negative or num < 0
                entries.append(ExtRat(Fraction(num, den)))
        if meromorphic is None or negative == bool(meromorphic):
            return Params(*entries)


def random_word(rng: random.Random, length: int) -> Word:
    letters: list[int] = []
    for _ in range(length):
        choices = [g for g in (1, 2, 3) if not letters or g != letters[-1]]
        letters.append(rng.choice(choices))
    return Word(tuple(letters))
