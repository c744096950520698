"""The four benchmark workloads.

Each workload turns a seed into one *pass*: a fixed list of inputs that the
closed loop in ``run.py`` issues one after another, in a seeded order that
changes from pass to pass.  A run repeats whole passes, so every run of a
workload executes the same mix of op sizes and only the seed-chosen inputs
differ.  Ops go through the public API only: either
``tropmarkov.cli.main`` in-process with stdout captured, or the library
functions a user script calls.  Each op's output is checked exactly by
``check``, which runs outside the timed region and returns ``None`` when the
output is correct and a reason otherwise.

Ops look functions up through the module objects in ``tm`` at call time, so
the traced run sees them through the wrappers it installs on those modules.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

NAMES = ("classify-sweep", "reduce-deep", "pingpong-tower", "zp-enumerate")


@dataclass
class Workload:
    inputs: list
    warmup: list
    op: Callable[[object], object]
    check: Callable[[object, object], "str | None"]


def run_cli(tm, argv: list[str]) -> tuple[int, str]:
    """``tropmarkov <argv>`` in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = tm.cli.main(argv)
    return code, out.getvalue()


def _cli_json(output) -> "tuple[dict | None, str | None]":
    code, text = output
    if code != 0:
        return None, f"exit code {code}"
    payload = json.loads(text)
    if "schema_version" not in payload:
        return None, "JSON output lacks schema_version"
    return payload, None


# -- classify-sweep ----------------------------------------------------------------
#
# The distribution of scripts/exception_sweep.py: meromorphic parameters with
# +inf entries mixed in, and skeleton points lifted from random plane points.
# Itineraries are short (about 9 reflections) with a rare tail of about 300,
# so per-call costs of surface/scalars/trop_vieta dominate.


def _classify(tm, seed: int, tiny: bool) -> Workload:
    rng = random.Random(seed)
    count = 12 if tiny else 3000
    inputs = []
    for _ in range(count):
        params = tm.sampling.random_params(rng, meromorphic=True)
        inputs.append((params, tm.sampling.random_skeleton_point(rng, params)))

    def op(inp):
        return tm.classifier.classify(*inp)

    def check(inp, report):
        params, x = inp
        surface = tm.surface
        end = tm.dynamics.apply_word(params, report.certificate, x)
        cells = surface.cells_of(params, end)
        quads = [c for c in cells if c in surface.QUADRATIC_CELLS]
        if len(quads) < 2 and not any(c in surface.SUBQUADRATIC_CELLS for c in cells):
            return "certificate does not end at a greedy stop point"
        if report.delta is not None:
            brute = tm.classifier.index_shift_bruteforce(report.slope.finite)
            if report.delta != brute:
                return f"delta {report.delta} != brute-force index shift {brute}"
        if params.a.is_infinite and params.b.is_infinite and params.c.is_infinite:
            if report.in_U != tm.classifier.punctured_torus_in_U(params.d.finite, x):
                return "in_U disagrees with punctured_torus_in_U"
        return None

    return Workload(inputs, inputs[:3], op, check)


# -- reduce-deep -------------------------------------------------------------------
#
# Points u_inverse(i, s*(q, p)) whose slope p/q has a continued fraction with
# one large partial quotient; the sum of the terms (the stopping time) comes
# from a fixed geometric ladder, so a pass always holds the same itinerary
# lengths while the seed picks the slopes, scales, charts and parameters.
# Slots alternate between punctured-torus and finite meromorphic parameters.
# The parameters are integers: rational ones spread the per-step cost by
# about 10% between inputs, which the percentiles would pick up as noise.


def _ladder(low: float, high: float, slots: int) -> list[float]:
    return [low * (high / low) ** (k / (slots - 1)) for k in range(slots)]


def _slope_with_stopping_time(rng: random.Random, total: float) -> Fraction:
    small = [rng.randint(1, 3) for _ in range(rng.randint(2, 5))]
    small.insert(rng.randrange(len(small) + 1), round(total) - sum(small))
    value = Fraction(small[-1])
    for a in reversed(small[:-1]):
        value = a + 1 / value
    return value


def _finite_meromorphic(rng: random.Random) -> tuple[int, ...]:
    while True:
        entries = tuple(rng.randint(-12, 12) for _ in range(4))
        if min(entries) < 0:
            return entries


def _reduce(tm, seed: int, tiny: bool) -> Workload:
    rng = random.Random(seed)
    inputs = []
    for slot, total in enumerate(_ladder(20, 40, 4) if tiny else _ladder(100, 2000, 40)):
        m = _slope_with_stopping_time(rng, total)
        if slot % 2 == 0:
            d = -rng.randint(1, 12)
            params = f"inf,inf,inf,{d}"
            # Scale at or above the ray threshold |d|/2: the point lies on an
            # exception ray, so the itinerary runs its full length.
            scale = math.ceil(abs(d) / 2) + rng.randint(0, 2)
        else:
            params = ",".join(str(v) for v in _finite_meromorphic(rng))
            scale = rng.randint(4, 8)
        u = (scale * m.denominator, scale * m.numerator)
        x = tm.dynamics.u_inverse(rng.randint(1, 3), u)
        inputs.append(["reduce", "--params", params, "--point", ",".join(map(str, x))])
    warmup = [["reduce", "--params", "inf,inf,inf,-2", "--point", "-2,-3,-5"]]

    def op(argv):
        return run_cli(tm, argv)

    def check(argv, output):
        payload, err = _cli_json(output)
        if err:
            return err
        params = tm.surface.Params.parse(argv[2])
        start = tm.surface.parse_point(argv[4])
        if tuple(Fraction(c) for c in payload["start"]) != start:
            return "start point differs from the input"
        word = tm.dynamics.Word.parse(payload["word"])
        terminal = tuple(Fraction(c) for c in payload["terminal"])
        if tm.dynamics.apply_word(params, word, start) != terminal:
            return "word does not replay to the terminal point"
        if payload["steps"] != len(word):
            return f"steps {payload['steps']} != word length {len(word)}"
        if payload["kind"] == "exhausted":
            return "step budget exhausted"
        return None

    return Workload(inputs, warmup, op, check)


# -- pingpong-tower ----------------------------------------------------------------
#
# Orbit towers on both circles.  Op cost grows by about 2x per depth level, so
# the depths are a fixed multiset and the seed sets only the order of each
# pass.  The largest ops stay near 0.3 s, so that a pass is short and
# repeats often.

_TOWER = (
    [("cli", "skeleton", n, False) for n in range(3, 8)]
    + [("cli", "skeleton", n, True) for n in range(3, 7)]
    + [("cli", "boundary", n, False) for n in range(5, 12)]
    + [("cli", "boundary", n, True) for n in range(5, 11)]
    + [("order", "both", n, False) for n in range(3, 8)]
)
_TOWER_TINY = [("cli", "skeleton", 2, False), ("cli", "skeleton", 2, True),
               ("cli", "boundary", 3, False), ("cli", "boundary", 3, True),
               ("order", "both", 2, False)]


def _pingpong(tm, seed: int, tiny: bool) -> Workload:
    inputs = list(_TOWER_TINY if tiny else _TOWER)
    warmup = [("cli", "skeleton", 2, True), ("cli", "boundary", 2, True),
              ("order", "both", 2, False)]

    def op(spec):
        kind, side, depth, stats = spec
        if kind == "order":
            return tm.hyperbolic.order_isomorphism_check(depth)
        argv = ["pingpong", "--depth", str(depth), "--side", side]
        return run_cli(tm, argv + ["--stats"] if stats else argv)

    def check(spec, output):
        kind, _, depth, stats = spec
        if kind == "order":
            return None if output is True else f"order_isomorphism_check returned {output!r}"
        code, text = output
        if code != 0:
            return f"exit code {code}"
        header, *rows = csv.reader(io.StringIO(text))
        if not stats:
            if len(rows) != 3 * 2 ** depth or len(set(map(tuple, rows))) != len(rows):
                return f"listing has {len(rows)} rows, expected {3 * 2 ** depth} distinct"
            return None
        if header != ["n", "count", "delta", "Delta"] or len(rows) != depth + 1:
            return "malformed --stats table"
        for n, row in enumerate(rows):
            if int(row[0]) != n or int(row[1]) != 3 * 2 ** n:
                return f"row {n}: count {row[1]} != {3 * 2 ** n}"
        big = [float(row[3]) for row in rows]
        if any(b >= a for a, b in zip(big, big[1:])):
            return "Delta is not strictly decreasing in n"
        return None

    return Workload(inputs, warmup, op, check)


# -- zp-enumerate ------------------------------------------------------------------
#
# The search box has about 2 * N values per axis with N = p^K * sqrt(3D), so
# op cost grows like N^3.  Each slot of a fixed geometric ladder of N values
# takes a seeded (p, D = m / p^K) among the cases within 1% of the slot's N,
# or the nearest case where none is that close.  Two fixed anchors with
# known point counts (12 and 24) join every pass.

_ZP_ANCHORS = [(7, Fraction(2, 49)), (2, Fraction(5, 256))]


def _zp_candidates(target: float) -> list[tuple[int, Fraction]]:
    cases = []
    for p in (2, 3, 5, 7):
        pk = p
        while pk < target * target / 3:
            if pk > target:
                centre = round(target * target / (3 * pk))
                # D < 1/3 and p does not divide m, so v_p(D) = -K.
                cases += [(p, Fraction(m, pk)) for m in range(max(1, centre - 2), centre + 3)
                          if m % p and 3 * m < pk]
            pk *= p

    def error(case):
        p, D = case
        return abs(math.sqrt(3 * D.numerator * D.denominator) / target - 1)

    close = [c for c in cases if error(c) <= 0.01]
    return close or [min(cases, key=error)]


def zp_oracle(p: int, D: Fraction) -> set[tuple[Fraction, Fraction, Fraction]]:
    """Points of the enumerator's box, found in O(N^2) by solving the surface
    identity as a quadratic in n3 for each (n1, n2)."""
    K, rest = 0, D.denominator
    while rest % p == 0:
        rest //= p
        K += 1
    if rest != 1:
        raise ValueError(f"{D} is not in Z[1/{p}]")
    pk = p ** K
    rhs = D.numerator * pk * pk
    ball = 3 * D.numerator * pk  # n1^2 + n2^2 + n3^2 < 3 D p^(2K)
    allowed = [n for n in range(-math.isqrt(ball), math.isqrt(ball) + 1)
               if n and n % pk and n * n < ball]
    allowed_set = set(allowed)
    out = set()
    for n1 in allowed:
        for n2 in allowed:
            s12 = n1 * n1 + n2 * n2
            if s12 >= ball:
                continue
            b, c = n1 * n2, pk * s12 - rhs
            disc = b * b - 4 * pk * c
            if disc < 0:
                continue
            root = math.isqrt(disc)
            if root * root != disc:
                continue
            for num in {-b + root, -b - root}:
                n3, rem = divmod(num, 2 * pk)
                if not rem and n3 in allowed_set and s12 + n3 * n3 < ball:
                    out.add((Fraction(n1, pk), Fraction(n2, pk), Fraction(n3, pk)))
    return out


def _valuation(x: Fraction, p: int) -> int:
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _zp(tm, seed: int, tiny: bool) -> Workload:
    rng = random.Random(seed)
    ladder = _ladder(10, 12, 2) if tiny else _ladder(15, 60, 40)
    cases = [rng.choice(_zp_candidates(n)) for n in ladder]
    cases += _ZP_ANCHORS[:1] if tiny else _ZP_ANCHORS
    inputs = [["enumerate-zp", "--p", str(p), "--D", str(D)] for p, D in cases]
    warmup = [["enumerate-zp", "--p", "2", "--D", "1/64"]]

    def op(argv):
        return run_cli(tm, argv)

    def check(argv, output):
        payload, err = _cli_json(output)
        if err:
            return err
        p, D = int(argv[2]), Fraction(argv[4])
        K = -_valuation(D, p)
        found = set()
        for point in payload["points"]:
            coords = tuple(Fraction(c) for c in point["coords"])
            if 0 in coords:
                return f"{coords} has a zero coordinate"
            n1, n2, n3 = (c * p ** K for c in coords)
            if any(n.denominator != 1 for n in (n1, n2, n3)):
                return f"{coords} has a denominator outside p^K"
            if p ** K * (n1 * n1 + n2 * n2 + n3 * n3) + n1 * n2 * n3 != D * p ** (3 * K):
                return f"{coords} is not on the surface"
            exps = [_valuation(c, p) for c in coords]
            if any(not -K <= e <= -1 for e in exps) or list(point["exponents"]) != exps:
                return f"{coords} is outside the exponent box"
            found.add(coords)
        if len(found) != len(payload["points"]):
            return "duplicate points"
        if found != zp_oracle(p, D):
            return "point set differs from the O(N^2) oracle"
        return None

    return Workload(inputs, warmup, op, check)


_BUILDERS = {"classify-sweep": _classify, "reduce-deep": _reduce,
             "pingpong-tower": _pingpong, "zp-enumerate": _zp}


def build(name: str, tm, seed: int, tiny: bool = False) -> Workload:
    """The workload ``name`` for ``seed``; ``tiny`` shrinks every size for self-tests."""
    return _BUILDERS[name](tm, seed, tiny)
