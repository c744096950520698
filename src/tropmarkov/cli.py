"""Command-line surface.

Deterministic, scriptable subcommands over the library; JSON outputs carry a
schema_version field, rationals print as "p/q" (or "inf"), and words as
generator lists applied right-to-left.  Exit status: 0 success, 2 domain or
resource errors, 3 usage errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from fractions import Fraction

from . import arithmetic, classifier, dynamics, hyperbolic, surface, svgout
from .errors import DomainError, ResourceError, UsageError
from .laurent import LaurentPoly
from .scalars import ExtRat, parse_rational
from .surface import Params

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Accept values like "-2,-3,-5" or "-3/2" after value-taking flags.
        self._negative_number_matcher = re.compile(r"^-\d[\d/,.\-]*$")

    def error(self, message):
        raise UsageError(message)


def _scalar_json(value):
    if isinstance(value, ExtRat):
        return str(value)
    if isinstance(value, Fraction):
        return str(value)
    return value


def _point_json(point):
    return [str(c) for c in point]


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# -- subcommand bodies -----------------------------------------------------------


def _grid_values(grid: int, span: Fraction) -> list[Fraction]:
    return [-span + 2 * span * Fraction(k, grid - 1) for k in range(grid)]


def _cmd_skeleton_sample(args) -> str:
    params = Params.parse(args.params)
    span = parse_rational(args.range)
    if args.grid < 2:
        raise UsageError("--grid needs at least 2 nodes")
    rows = []
    for v2 in _grid_values(args.grid, span):
        for v1 in _grid_values(args.grid, span):
            x = surface.lift_from_plane(params, 0, surface.plane_point(v1, v2))
            cells = sorted(c.value for c in surface.cells_of(params, x))
            rows.append((v1, v2, x, cells))
    if args.format == "json":
        return _json_text(
            {
                "schema_version": SCHEMA_VERSION,
                "command": "skeleton-sample",
                "params": str(params),
                "rows": [
                    {
                        "v1": str(v1),
                        "v2": str(v2),
                        "point": _point_json(x),
                        "cells": cells,
                    }
                    for v1, v2, x, cells in rows
                ],
            }
        )
    return _csv_text(
        ["v1", "v2", "x1", "x2", "x3", "cells"],
        [[str(v1), str(v2), *(str(c) for c in x), "|".join(cells)]
         for v1, v2, x, cells in rows],
    )


def _cmd_skeleton_svg(args) -> str:
    params = Params.parse(args.params)
    return svgout.skeleton_svg(params, args.grid, parse_rational(args.range))


def _cmd_orbit(args) -> str:
    params = Params.parse(args.params)
    x = surface.parse_point(args.point)
    word = dynamics.Word.parse(args.word)
    steps = []
    cur = x
    for g in word.applied_order():
        cur = dynamics.trop_vieta(params, g, cur)
        steps.append({"generator": f"s{g}", "point": _point_json(cur)})
    return _json_text(
        {
            "schema_version": SCHEMA_VERSION,
            "command": "orbit",
            "params": str(params),
            "start": _point_json(x),
            "word": str(word),
            "steps": steps,
            "final": _point_json(cur),
        }
    )


def _cmd_reduce(args) -> str:
    params = Params.parse(args.params)
    x = surface.parse_point(args.point)
    trace = dynamics.greedy_path(params, x, args.max_steps)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "reduce",
        "params": str(params),
        "start": _point_json(trace.start),
        "word": str(trace.word),
        "terminal": _point_json(trace.terminal),
        "kind": trace.kind,
        "cell": trace.cell.value if trace.cell else None,
        "ray_index": trace.ray_index,
        "steps": trace.steps,
    }
    return _json_text(payload)


def _cmd_classify(args) -> str:
    params = Params.parse(args.params)
    x = surface.parse_point(args.point)
    report = classifier.classify(params, x)
    return _json_text(
        {
            "schema_version": SCHEMA_VERSION,
            "command": "classify",
            "params": str(params),
            "point": _point_json(x),
            "cell": report.cell.value,
            "slope": _scalar_json(report.slope),
            "gamma": str(report.gamma),
            "delta": report.delta,
            "relevant_ray": report.relevant_ray,
            "in_U": report.in_U,
            "certificate": str(report.certificate),
            "ray_parameter": _scalar_json(report.ray_parameter),
        }
    )


def _cmd_rays(args) -> str:
    d = parse_rational(args.d)
    gens = classifier.exception_rays_punctured(d, args.height)
    return _csv_text(["g1", "g2", "g3"], [[str(c) for c in g] for g in gens])


def _cmd_farey(args) -> str:
    d = parse_rational(args.d)
    if args.svg:
        _emit(svgout.farey_svg(d, args.depth), args.svg)
        return ""
    triples = classifier.farey_enumerate(args.depth)
    entries = []
    for t in triples:
        word, verts = classifier.farey_triangle(t, args.cell, d)
        entries.append(
            {
                "triple": [list(t.left), list(t.mid), list(t.right)],
                "word": str(word),
                "vertices": [[str(v[0]), str(v[1])] for v in verts],
            }
        )
    return _json_text(
        {
            "schema_version": SCHEMA_VERSION,
            "command": "farey",
            "d": str(d),
            "cell": args.cell,
            "triples": entries,
        }
    )


def _cmd_tessellation(args) -> str:
    _emit(svgout.tessellation_svg(args.depth), args.svg)
    return ""


def _cmd_pingpong(args) -> str:
    if args.stats:
        table = hyperbolic.partition_table(args.depth, args.side)
        rows = [[n, count, f"{delta:.12f}", f"{big_delta:.12f}"]
                for n, (count, delta, big_delta) in enumerate(table)]
        return _csv_text(["n", "count", "delta", "Delta"], rows)
    if args.side == "boundary":
        rows = [[p, q] for p, q in hyperbolic.partial_orbit_boundary(args.depth)]
        return _csv_text(["p", "q"], rows)
    rows = [[str(c) for c in x] for x in hyperbolic.partial_orbit_skeleton(args.depth)]
    return _csv_text(["x1", "x2", "x3"], rows)


def _cmd_fatou(args) -> str:
    params = Params.parse(args.params)
    condition = arithmetic.fatou_condition(params)
    witness = arithmetic.fatou_witness(params) if condition else None
    return _json_text(
        {
            "schema_version": SCHEMA_VERSION,
            "command": "fatou",
            "params": str(params),
            "condition": condition,
            "witness": _point_json(witness) if witness else None,
        }
    )


def _cmd_lift_check(args) -> str:
    seeds = [LaurentPoly.parse(part) for part in args.seed.split(",")]
    if len(seeds) != 3:
        raise UsageError("--seed needs exactly 3 comma-separated Laurent polynomials")
    abc = [LaurentPoly.parse(part) for part in args.abc.split(",")]
    if len(abc) != 3:
        raise UsageError("--abc needs exactly 3 comma-separated Laurent polynomials")
    point = arithmetic.surface_from_seed(*seeds, *abc)
    word = dynamics.Word.parse(args.word)
    report = arithmetic.lift_consistency(point, word)
    return _json_text(
        {
            "schema_version": SCHEMA_VERSION,
            "command": "lift-check",
            "word": str(word),
            "derived_D": str(point.D),
            "ok": report.ok,
            "precondition_ok": report.precondition_ok,
            "steps": [
                {
                    "prefix": str(step.prefix),
                    "exact_valuations": [_scalar_json(v) for v in step.exact_valuations],
                    "tropical": _point_json(step.tropical),
                    "match": step.match,
                }
                for step in report.steps
            ],
        }
    )


def _cmd_enumerate_zp(args) -> str:
    d = parse_rational(args.D)
    points = arithmetic.enumerate_zp_points(args.p, d)
    return _json_text(
        {
            "schema_version": SCHEMA_VERSION,
            "command": "enumerate-zp",
            "p": args.p,
            "D": str(d),
            "points": [
                {"coords": _point_json(z.coords), "exponents": list(z.exponents)}
                for z in points
            ],
        }
    )


# -- parser wiring -----------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="tropmarkov",
                     description="exact min-plus dynamics on tropical Markov cubics")
    sub = parser.add_subparsers(dest="command", required=True)

    skeleton = sub.add_parser("skeleton", help="skeleton sampling and rendering")
    skel_sub = skeleton.add_subparsers(dest="skeleton_command", required=True)
    sample = skel_sub.add_parser("sample", help="sample the skeleton over a plane grid")
    sample.add_argument("--params", required=True)
    sample.add_argument("--grid", type=int, default=9)
    sample.add_argument("--range", default="4")
    sample.add_argument("--format", choices=("csv", "json"), default="csv")
    sample.add_argument("--out")
    sample.set_defaults(func=_cmd_skeleton_sample)
    svg = skel_sub.add_parser("svg", help="shaded plane projection")
    svg.add_argument("--params", required=True)
    svg.add_argument("--grid", type=int, default=64)
    svg.add_argument("--range", default="4")
    svg.add_argument("--out")
    svg.set_defaults(func=_cmd_skeleton_svg)

    orbit = sub.add_parser("orbit", help="apply a word, printing the stepwise trace")
    orbit.add_argument("--params", required=True)
    orbit.add_argument("--point", required=True)
    orbit.add_argument("--word", required=True)
    orbit.add_argument("--out")
    orbit.set_defaults(func=_cmd_orbit)

    reduce_cmd = sub.add_parser("reduce", help="greedy reduction trace")
    reduce_cmd.add_argument("--params", required=True)
    reduce_cmd.add_argument("--point", required=True)
    reduce_cmd.add_argument("--max-steps", type=int, default=None)
    reduce_cmd.add_argument("--out")
    reduce_cmd.set_defaults(func=_cmd_reduce)

    classify_cmd = sub.add_parser("classify", help="exception-set membership report")
    classify_cmd.add_argument("--params", required=True)
    classify_cmd.add_argument("--point", required=True)
    classify_cmd.add_argument("--out")
    classify_cmd.set_defaults(func=_cmd_classify)

    rays = sub.add_parser("rays", help="exception-ray generators as CSV")
    rays.add_argument("--d", required=True)
    rays.add_argument("--height", type=int, required=True)
    rays.add_argument("--out")
    rays.set_defaults(func=_cmd_rays)

    farey = sub.add_parser("farey", help="mediant triples and their orbit words")
    farey.add_argument("--depth", type=int, required=True)
    farey.add_argument("--d", default="-2")
    farey.add_argument("--cell", type=int, default=1, choices=(1, 2, 3))
    farey.add_argument("--svg")
    farey.add_argument("--out")
    farey.set_defaults(func=_cmd_farey)

    tess = sub.add_parser("tessellation", help="ideal-triangle tessellation of the disk")
    tess.add_argument("--depth", type=int, required=True)
    tess.add_argument("--svg", required=True)
    tess.set_defaults(func=_cmd_tessellation)

    pingpong = sub.add_parser("pingpong", help="partial-orbit counts and arc statistics")
    pingpong.add_argument("--depth", type=int, required=True)
    pingpong.add_argument("--side", choices=("boundary", "skeleton"), required=True)
    pingpong.add_argument("--stats", action="store_true")
    pingpong.add_argument("--out")
    pingpong.set_defaults(func=_cmd_pingpong)

    fatou = sub.add_parser("fatou", help="Fatou condition and witness")
    fatou.add_argument("--params", required=True)
    fatou.add_argument("--out")
    fatou.set_defaults(func=_cmd_fatou)

    lift = sub.add_parser("lift-check", help="valuation consistency of an exact orbit")
    lift.add_argument("--seed", required=True)
    lift.add_argument("--abc", default="0,0,0")
    lift.add_argument("--word", required=True)
    lift.add_argument("--out")
    lift.set_defaults(func=_cmd_lift_check)

    zp = sub.add_parser("enumerate-zp", help="points with prime-power denominators")
    zp.add_argument("--p", type=int, required=True)
    zp.add_argument("--D", required=True)
    zp.add_argument("--out")
    zp.set_defaults(func=_cmd_enumerate_zp)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        text = args.func(args)
        if text:
            _emit(text, getattr(args, "out", None))
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
