"""The seeded samplers, pinned by sha256 of their printed output.

Every seeded test and the benchmark's inputs come from these samplers, so
their output and their use of the random stream must not change.  Each text
ends with one more draw from the generator, which pins how many draws the
sampler made.
"""

import hashlib
import random

import pytest

from tropmarkov.sampling import (
    random_params,
    random_plane_point,
    random_skeleton_point,
    random_word,
)
from tropmarkov.surface import point_text


def _tail(rng: random.Random) -> str:
    return repr(rng.random())


def params_text(seed: int, meromorphic) -> str:
    rng = random.Random(seed)
    lines = [str(random_params(rng, meromorphic=meromorphic)) for _ in range(300)]
    lines += [str(random_params(rng, meromorphic, span=3, max_den=7)) for _ in range(100)]
    return "\n".join([*lines, _tail(rng)])


def skeleton_points_text(seed: int) -> str:
    """Pairs drawn as the classify sweep draws them, then other spans and denominators."""
    rng = random.Random(seed)
    lines = []
    for _ in range(300):
        params = random_params(rng, meromorphic=True)
        lines.append(f"{params};{point_text(random_skeleton_point(rng, params))}")
    for _ in range(200):
        params = random_params(rng)
        lines.append(f"{params};{point_text(random_skeleton_point(rng, params, 40, 6))}")
    return "\n".join([*lines, _tail(rng)])


def plane_points_text(seed: int) -> str:
    rng = random.Random(seed)
    lines = [point_text(random_plane_point(rng)) for _ in range(300)]
    lines += [point_text(random_plane_point(rng, 2, 30)) for _ in range(100)]
    return "\n".join([*lines, _tail(rng)])


def words_text(seed: int) -> str:
    rng = random.Random(seed)
    lines = [str(random_word(rng, length)) for length in range(40)]
    return "\n".join([*lines, _tail(rng)])


SAMPLER_TEXTS = {
    "params-any": lambda seed: params_text(seed, None),
    "params-meromorphic": lambda seed: params_text(seed, True),
    "params-holomorphic": lambda seed: params_text(seed, False),
    "skeleton-points": skeleton_points_text,
    "plane-points": plane_points_text,
    "words": words_text,
}

# sha256 of each text at seeds 0, 1 and 2017.
SAMPLER_DIGESTS = {
    ('params-any', 0): "36c156c1d5161362f7d5b0652a81b27987026e4db0f1f8b69951e6a6eba1f792",
    ('params-any', 1): "4bdde5651385776c072775eca0a6f82953532803a81b241323414fffe3a09a0e",
    ('params-any', 2017): "bd7eabe3415ad1c411a9f4b33ab2888fb994bace082721d054733cba3cfe91c7",
    ('params-holomorphic', 0): "1834923f15d109f5d3fd73375e0ac14658af8ca3f0b665d4a1ccfdd2053f9178",
    ('params-holomorphic', 1): "e222944ff19c95e6da21108867186d03c611ddfefd12e04ffcfb05100823caa3",
    ('params-holomorphic', 2017): "8172721fe5e87fe754e3244c9b6461feab33073047dd5ba791d48d68b4c34b98",
    ('params-meromorphic', 0): "3e9a5eb9c9629edccd4e97ff10f12ded0c49cd57e863920b9542e21daae47c80",
    ('params-meromorphic', 1): "95b32542dd411a41580a95d4fde8a942ef2665dce7f58da2070bff6a848082af",
    ('params-meromorphic', 2017): "eabc5ef017214ebce6448da06968d6947a81d050a9070fe8165fae66e3eb9c2b",
    ('plane-points', 0): "305baa8fea6247ef371439b2f26a2a010c508a2f2ab5f41db9c823e052189b69",
    ('plane-points', 1): "8db79facfbec2f860a5f4c0d0bb812687827a75d188c5579d041308f5a806773",
    ('plane-points', 2017): "8e1ca2aa0039e2a125494505baaea6374046a9568a34a54d3b221144c35aa7c6",
    ('skeleton-points', 0): "f1088c6581c030ea03e0c6f134fce9e832fee0f04c4f7fccaa1954051fd3ba22",
    ('skeleton-points', 1): "ab09a6048d3fc79f0ae05edb563d686be00dfd247b7d7dd9373d39561fa60d12",
    ('skeleton-points', 2017): "908f3fafa2d4bd0bc28210b7ef3b16134c29cb61c4f21c27eccc807e29291803",
    ('words', 0): "633995f337004b4d7667389f6fbb354cc00981ded43bab9e389782d4f46937ff",
    ('words', 1): "981eeffde61667cb254d58536a0411f391b91c0ee69775bc46304889e2c2382d",
    ('words', 2017): "116b855c4f20a1c21e5eed75a499ea5f9795d11ad74108d955bb540096cc08f2",
}


@pytest.mark.parametrize("name, seed", sorted(SAMPLER_DIGESTS))
def test_sampler_output_is_pinned(name, seed):
    text = SAMPLER_TEXTS[name](seed)
    assert hashlib.sha256(text.encode()).hexdigest() == SAMPLER_DIGESTS[name, seed]
