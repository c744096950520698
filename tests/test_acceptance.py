"""Acceptance suite: one test per exit criterion, exact tolerances throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import math
import random
from fractions import Fraction
from pathlib import Path

from conftest import (
    brute_force_zp_points,
    oracle_boundary_key,
    oracle_matches_exception_ray,
    oracle_skeleton_sorted,
    orbit_reaches_ray,
)

from tropmarkov.sampling import random_params, random_skeleton_point, random_word
from tropmarkov.scalars import continued_fraction, thomae_gcd
from tropmarkov.laurent import LaurentPoly
from tropmarkov.surface import (
    CellId,
    Params,
    cell_has_interior,
    cells_of,
    f0,
    lift_from_plane,
    on_skeleton,
    plane_point,
    project_to_plane,
)
from tropmarkov.dynamics import apply_word, euc, trop_vieta, u_coords
from tropmarkov.classifier import (
    _t_orbit,
    classify,
    exception_rays_punctured,
    farey_enumerate,
    farey_triangle,
    index_shift_bruteforce,
    index_shift_cf,
    stopping_time,
    table_orbit_triangles,
)
from tropmarkov.hyperbolic import (
    apply_reflection_word,
    bpoint,
    height,
    order_isomorphism_check,
    partial_orbit_boundary,
    partial_orbit_skeleton,
    partition_stats,
    reduce_to_nets,
)
from tropmarkov.arithmetic import (
    enumerate_zp_points,
    fatou_condition,
    fatou_witness,
    lift_consistency,
    surface_from_seed,
)
from tropmarkov.svgout import farey_svg

F = Fraction
GOLDEN = Path(__file__).parent / "golden"

# Measured once and pinned; see criterion 7.
DELTA_RATIO_BOUNDARY = 0.06345103486110713
DELTA_RATIO_SKELETON = 0.04696438330303646


def _report(number: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {number:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_skeleton_invariance():
    rng = random.Random(2024_01)
    checked = 0
    for k in range(20):
        params = random_params(rng, meromorphic=(k % 2 == 0))
        for _ in range(50):
            x = random_skeleton_point(rng, params)
            assert f0(params, x) == 0
            for i in (1, 2, 3):
                y = trop_vieta(params, i, x)
                assert f0(params, y) == 0
                assert trop_vieta(params, i, y) == x
            checked += 1
    _report(1, checked == 1000,
            f"f0 and involution laws exact on {checked} skeleton points, 20 parameter sets")


def test_criterion_02_foliation_round_trip():
    rng = random.Random(2024_02)
    for _ in range(1000):
        params = random_params(rng)
        w = F(rng.randint(-24, 24), rng.randint(1, 6))
        v = plane_point(
            F(rng.randint(-48, 48), rng.randint(1, 6)),
            F(rng.randint(-48, 48), rng.randint(1, 6)),
        )
        x = lift_from_plane(params, w, v)
        assert f0(params, x) == w
        assert project_to_plane(x) == v
    _report(2, True, "lift/project/f0 recover 1000 random (w, v) pairs exactly")


def test_criterion_03_index_shift_formula():
    cases = 0
    for p in range(1, 121):
        for q in range(1, 121):
            if math.gcd(p, q) != 1 or p == q:
                continue
            m = F(p, q)
            assert index_shift_cf(m) == index_shift_bruteforce(m)
            assert stopping_time(m) == len(_t_orbit(m)) == sum(continued_fraction(m).terms)
            cases += 1
    _report(3, cases > 7000,
            f"closed formula matches brute force on {cases} reduced slopes up to 120")


def _meromorphic_param_pool(rng):
    pool = []
    for k in range(20):
        if k < 4:  # punctured-torus entries for criterion 5
            d = F(-rng.randint(1, 6), rng.randint(1, 2))
            pool.append(Params.make("inf", "inf", "inf", d))
        else:
            pool.append(random_params(rng, meromorphic=True))
    return pool


def test_criterion_04_classifier_vs_greedy_oracle():
    rng = random.Random(2024_04)
    pool = _meromorphic_param_pool(rng)
    for params in pool:
        for _ in range(25):
            x = random_skeleton_point(rng, params)
            report = classify(params, x)
            assert report.in_U == (not orbit_reaches_ray(params, x))
    pinned = classify(Params.parse("inf,inf,inf,-2"), (F(-2), F(-3), F(-5)))
    assert not pinned.in_U and pinned.gamma == 1 and pinned.relevant_ray == 1
    _report(4, True,
            "classifier agrees with the ray-search oracle on 500 points "
            "(incl. pinned borderline case)")


def test_criterion_05_punctured_torus_ray_census():
    d = F(-2)
    params = Params.make("inf", "inf", "inf", d)
    gens = exception_rays_punctured(d, 20)
    for g in gens:
        assert on_skeleton(params, g)
        assert not classify(params, g).in_U
        assert oracle_matches_exception_ray(d, g)
    # Classified exception points from fresh punctured-torus samples must
    # match a ray pattern of the exception-set description.
    rng = random.Random(2024_05)
    hits = 0
    for _ in range(400):
        dv = F(-rng.randint(1, 6), rng.randint(1, 2))
        pt_params = Params.make("inf", "inf", "inf", dv)
        x = random_skeleton_point(rng, pt_params)
        if not classify(pt_params, x).in_U:
            assert oracle_matches_exception_ray(dv, x)
            hits += 1
    _report(5, len(gens) > 700 and hits > 10,
            f"{len(gens)} ray generators verified; {hits} classified "
            "exception points match ray patterns")


def test_criterion_06_euc_gcd_law():
    rng = random.Random(2024_06)
    for _ in range(500):
        u = (
            F(rng.randint(0, 60), rng.randint(1, 8)),
            F(rng.randint(0, 60), rng.randint(1, 8)),
        )
        gamma = thomae_gcd(*u)
        if u == (0, 0):
            continue
        scale = u[0].denominator * u[1].denominator
        budget = int(u[0] * scale + u[1] * scale) + 4
        cur = u
        steps = 0
        while 0 not in cur:
            cur = euc(cur)
            steps += 1
            assert steps <= budget
        assert max(cur) == gamma
        assert euc(euc(cur)) == cur  # oscillation between (g,0) and (0,g)
    _report(6, True, "euc descent reaches the gcd oscillation within the Euclid bound, 500 pairs")


def test_criterion_07_pingpong_counts_and_refinement():
    for n in range(11):
        assert len(set(partial_orbit_boundary(n))) == 3 * 2**n
        assert len(set(partial_orbit_skeleton(n))) == 3 * 2**n
    for n in range(10):
        cur = partial_orbit_boundary(n)
        fresh = sorted(set(partial_orbit_boundary(n + 1)) - set(cur),
                       key=oracle_boundary_key)
        merged = sorted(cur + fresh, key=oracle_boundary_key)
        _assert_alternating(merged, set(cur))
        cur_s = partial_orbit_skeleton(n)
        fresh_s = set(partial_orbit_skeleton(n + 1)) - set(cur_s)
        merged_s = oracle_skeleton_sorted(list(fresh_s) + list(cur_s))
        _assert_alternating(merged_s, set(cur_s))
    for n in range(9):
        assert order_isomorphism_check(n)
    ratios = {}
    for side, pinned in (("boundary", DELTA_RATIO_BOUNDARY),
                         ("skeleton", DELTA_RATIO_SKELETON)):
        big = [partition_stats(n, side)[1] for n in range(11)]
        assert all(b < a for a, b in zip(big, big[1:]))
        ratio = big[10] / big[0]
        assert ratio <= 0.2
        assert abs(ratio - pinned) < 1e-9
        ratios[side] = ratio
    _report(7, True,
            f"counts 3*2^n, unique refinement, order isomorphism to depth 8; "
            f"Delta(10)/Delta(0) = {ratios['boundary']:.4f} / {ratios['skeleton']:.4f}")


def _assert_alternating(merged, old_points):
    flags = [x in old_points for x in merged]
    assert flags.count(True) * 2 == len(flags)
    for k, flag in enumerate(flags):
        assert flag != flags[(k + 1) % len(flags)], "interval with != 1 new point"


def test_criterion_08_hyperbolic_reduction():
    count = 0
    for q in range(0, 201):
        for p in range(-200, 201):
            if (p, q) == (0, 0) or math.gcd(abs(p), q) != 1:
                continue
            if q == 0 and p != 1:
                continue
            x = bpoint(p, q)
            word, net = reduce_to_nets(x)
            assert len(word) <= 2 * height(x)
            assert apply_reflection_word(word, net) == x
            count += 1
    _report(8, count > 48000, f"{count} boundary points of height <= 200 reduced and replayed")


def test_criterion_09_farey_orbit():
    d = F(-2)
    params = Params.make("inf", "inf", "inf", d)
    corners = [(d / 2, d / 2, F(0)), (d / 2, F(0), d / 2), (F(0), d / 2, d / 2)]
    triples = farey_enumerate(6)
    for triple in triples:
        (al, be), (p, q), (ga, de) = triple.left, triple.mid, triple.right
        assert (p, q) == (al + ga, be + de) and al * de - be * ga == -1
        for i in (1, 2, 3):
            word, verts = farey_triangle(triple, i, d)
            images = sorted(u_coords(i, apply_word(params, word, c)) for c in corners)
            assert images == sorted(verts)
    tri = table_orbit_triangles(d, 2)
    root = ((F(0), F(1)), (F(1), F(1)), (F(1), F(0)))  # (left, mediant, right)
    for cell in (1, 2, 3):
        depth1 = [v for w, v in tri[cell] if len(w) == 1]
        assert depth1 == [root]
        depth2 = {frozenset(v) for w, v in tri[cell] if len(w) == 2}
        assert depth2 == {
            frozenset({(F(0), F(1)), (F(1), F(1)), (F(1), F(2))}),
            frozenset({(F(1), F(0)), (F(2), F(1)), (F(1), F(1))}),
        }
    for depth in (1, 2):
        golden = (GOLDEN / f"farey_depth{depth}.svg").read_text()
        assert farey_svg(d, depth) == golden
    _report(9, len(triples) == 127,
            "127 triples verified: mediant/unimodular laws, word replays, "
            "depth-1/2 vertex sets and golden SVGs")


def _random_laurent_seed(rng):
    while True:
        exps = tuple(rng.randint(-5, -1) for _ in range(3))
        if all(sum(exps) < 2 * e for e in exps):
            break
    seeds = []
    for e in exps:
        coeffs = {e: F(rng.randint(1, 4))}
        for _ in range(rng.randint(0, 2)):
            coeffs.setdefault(e + rng.randint(1, 4), F(rng.choice((-3, -2, -1, 1, 2, 3))))
        seeds.append(LaurentPoly(coeffs))
    return seeds


def test_criterion_10_lift_consistency():
    rng = random.Random(2024_10)
    zero = LaurentPoly.zero()
    for _ in range(50):
        seeds = _random_laurent_seed(rng)
        point = surface_from_seed(*seeds, zero, zero, zero)
        word = random_word(rng, rng.randint(1, 8))
        report = lift_consistency(point, word)
        assert report.precondition_ok
        assert report.ok
        assert all(step.match for step in report.steps)
    _report(10, True, "50 Laurent seeds, words to length 8: exact valuation equality at every prefix")


def test_criterion_11_fatou_equivalence():
    rng = random.Random(2024_11)
    witnesses = 0
    for _ in range(500):
        params = random_params(rng)
        cond = fatou_condition(params)
        assert cond == cell_has_interior(params, CellId.D)
        if cond:
            x = fatou_witness(params)
            assert cells_of(params, x) == {CellId.D}
            witnesses += 1
    _report(11, witnesses > 50,
            f"condition equals D-cell interior criterion on 500 quadruples; "
            f"{witnesses} witnesses verified")


def test_criterion_12_zp_enumerator():
    cases = ((2, F(1, 4)), (2, F(1, 8)), (2, F(3, 16)), (3, F(1, 9)))
    summaries = []
    for p, d in cases:
        ours = [(z.coords, z.exponents) for z in enumerate_zp_points(p, d)]
        oracle = brute_force_zp_points(p, d)
        assert ours == oracle
        summaries.append(f"({p},{d})={len(ours)}")
    _report(12, True, "enumerator equals brute-force oracle: " + ", ".join(summaries))
