"""Seeded exact samplers used by the experiment scripts and the test suite.

All sampling goes through the foliation: a random rational point of the plane
x1+x2+x3 = 0 lifts to an exact skeleton point, so no numerical tolerance is
ever involved.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .scalars import ExtRat
from .surface import Params, Point3, lift_from_plane, plane_point
from .dynamics import Word


def random_fraction(rng: random.Random, span: int = 6, max_den: int = 8) -> Fraction:
    den = rng.randint(1, max_den)
    num = rng.randint(-span * den, span * den)
    return Fraction(num, den)


def random_plane_point(rng: random.Random, span: int = 6, max_den: int = 8):
    v1 = random_fraction(rng, span, max_den)
    v2 = random_fraction(rng, span, max_den)
    return plane_point(v1, v2)


def random_skeleton_point(rng: random.Random, params: Params,
                          span: int = 6, max_den: int = 8) -> Point3:
    return lift_from_plane(params, 0, random_plane_point(rng, span, max_den))


def random_params(rng: random.Random, meromorphic: bool | None = None,
                  span: int = 4, max_den: int = 4) -> Params:
    while True:
        entries = []
        for _ in range(4):
            if rng.random() < 0.3:  # each entry is +inf with chance 0.3
                entries.append(ExtRat("inf"))
            else:
                entries.append(ExtRat(random_fraction(rng, span, max_den)))
        params = Params(*entries)
        low = min(entries)
        if meromorphic is None:
            return params
        if meromorphic and low < 0:
            return params
        if not meromorphic and low >= 0:
            return params


def random_word(rng: random.Random, length: int) -> Word:
    letters: list[int] = []
    for _ in range(length):
        choices = [g for g in (1, 2, 3) if not letters or g != letters[-1]]
        letters.append(rng.choice(choices))
    return Word(tuple(letters))
