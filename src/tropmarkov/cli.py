"""Command-line surface.

Deterministic, scriptable subcommands over the library; JSON outputs carry a
schema_version field, rationals print as "p/q" (or "inf"), and words as
generator lists applied right-to-left.  Exit status: 0 success, 2 domain or
resource errors (an output file that cannot be written included), 3 usage
errors.  Each subcommand imports what it uses when it runs, and ``main``
builds only the parser of the command it is given (once per process), so
start-up loads and builds only what the command needs.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from .errors import DomainError, ResourceError, UsageError

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Take a dash word holding a digit or one of ",/^." for a value, not
        # a flag: "-2,-3,-5", "-3/2", "-1,inf,inf,inf", "-t^-1,t^-1,t^-1".
        # No flag of this CLI holds one of them.
        self._negative_number_matcher = re.compile(r"^-(?!-)\S*[\d,/^.]")

    def error(self, message):
        raise UsageError(message)


def _scalar_json(value):
    return None if value is None else str(value)


def _point_json(point):
    return [str(c) for c in point]


def _emit(text: str, out_path: str | None):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ResourceError(f"cannot write {out_path}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_text(header: tuple[str, ...], rows) -> str:
    # One line per tuple; every field is an int, a p/q rational, a float or
    # |-joined cell names, none of which a CSV writer would quote.
    line = ",".join(["%s"] * len(header)) + "\n"
    return "".join([line % row for row in [header, *rows]])


# -- subcommand bodies -----------------------------------------------------------
# JSON bodies return their payload and main adds schema_version and command;
# CSV and SVG bodies return text; bodies that write a file return None.


def _cmd_skeleton_sample(args) -> dict | str:
    from .scalars import parse_rational
    from .surface import Params, cells_of, lift_from_plane, plane_grid

    params = Params.parse(args.params)
    values = plane_grid(args.grid, parse_rational(args.range))
    rows = []
    for v2 in values:
        for v1 in values:
            x = lift_from_plane(params, 0, (v1, v2, -v1 - v2))
            cells = sorted(c.value for c in cells_of(params, x))
            rows.append((v1, v2, x, cells))
    if args.format == "json":
        return {
            "params": str(params),
            "rows": [
                {"v1": str(v1), "v2": str(v2), "point": _point_json(x), "cells": cells}
                for v1, v2, x, cells in rows
            ],
        }
    return _csv_text(("v1", "v2", "x1", "x2", "x3", "cells"),
                     [(v1, v2, *x, "|".join(cells)) for v1, v2, x, cells in rows])


def _cmd_skeleton_svg(args) -> str:
    from .scalars import parse_rational
    from .surface import Params
    from .svgout import skeleton_svg

    params = Params.parse(args.params)
    return skeleton_svg(params, args.grid, parse_rational(args.range))


def _cmd_orbit(args) -> dict:
    from .dynamics import Word, trop_vieta
    from .surface import Params, parse_point

    params = Params.parse(args.params)
    x = parse_point(args.point)
    word = Word.parse(args.word)
    steps = []
    cur = x
    for g in word.applied_order():
        cur = trop_vieta(params, g, cur)
        steps.append({"generator": f"s{g}", "point": _point_json(cur)})
    return {
        "params": str(params),
        "start": _point_json(x),
        "word": str(word),
        "steps": steps,
        "final": _point_json(cur),
    }


def _cmd_reduce(args) -> dict:
    from .dynamics import greedy_path
    from .surface import Params, parse_point

    params = Params.parse(args.params)
    x = parse_point(args.point)
    trace = greedy_path(params, x, args.max_steps)
    return {
        "params": str(params),
        "start": _point_json(trace.start),
        "word": str(trace.word),
        "terminal": _point_json(trace.terminal),
        "kind": trace.kind,
        "cell": trace.cell.value if trace.cell else None,
        "ray_index": trace.ray_index,
        "steps": trace.steps,
    }


def _cmd_classify(args) -> dict:
    from .classifier import classify
    from .surface import Params, parse_point

    params = Params.parse(args.params)
    x = parse_point(args.point)
    report = classify(params, x)
    return {
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


def _cmd_rays(args) -> str:
    from .classifier import exception_rays_punctured
    from .scalars import parse_rational

    gens = exception_rays_punctured(parse_rational(args.d), args.height)
    return _csv_text(("g1", "g2", "g3"), gens)


def _cmd_farey(args) -> dict | None:
    from .classifier import farey_enumerate, farey_triangle
    from .scalars import parse_rational
    from .svgout import farey_svg

    d = parse_rational(args.d)
    if args.svg:
        _emit(farey_svg(d, args.depth), args.svg)
        return None
    triples = farey_enumerate(args.depth)
    entries = []
    for t in triples:
        word, verts = farey_triangle(t, args.cell, d)
        entries.append(
            {
                "triple": [list(t.left), list(t.mid), list(t.right)],
                "word": str(word),
                "vertices": [[str(v[0]), str(v[1])] for v in verts],
            }
        )
    return {"d": str(d), "cell": args.cell, "triples": entries}


def _cmd_tessellation(args) -> None:
    from .svgout import tessellation_svg

    _emit(tessellation_svg(args.depth), args.svg)


def _cmd_pingpong(args) -> str:
    from .hyperbolic import _circle_text, _skeleton_cycle, partial_orbit_boundary, partition_table

    if args.stats:
        table = partition_table(args.depth, args.side)
        rows = [(n, count, f"{delta:.12f}", f"{big_delta:.12f}")
                for n, (count, delta, big_delta) in enumerate(table)]
        return _csv_text(("n", "count", "delta", "Delta"), rows)
    if args.side == "boundary":
        return _csv_text(("p", "q"), partial_orbit_boundary(args.depth))
    return _csv_text(("x1", "x2", "x3"), map(_circle_text, _skeleton_cycle(args.depth)))


def _cmd_fatou(args) -> dict:
    from .arithmetic import fatou_condition, fatou_witness
    from .surface import Params

    params = Params.parse(args.params)
    condition = fatou_condition(params)
    witness = fatou_witness(params) if condition else None
    return {
        "params": str(params),
        "condition": condition,
        "witness": _point_json(witness) if witness else None,
    }


def _cmd_lift_check(args) -> dict:
    from .arithmetic import lift_consistency, surface_from_seed
    from .dynamics import Word
    from .laurent import LaurentPoly

    seeds = [LaurentPoly.parse(part) for part in args.seed.split(",")]
    if len(seeds) != 3:
        raise UsageError("--seed needs exactly 3 comma-separated Laurent polynomials")
    abc = [LaurentPoly.parse(part) for part in args.abc.split(",")]
    if len(abc) != 3:
        raise UsageError("--abc needs exactly 3 comma-separated Laurent polynomials")
    point = surface_from_seed(*seeds, *abc)
    word = Word.parse(args.word)
    report = lift_consistency(point, word)
    return {
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


def _cmd_enumerate_zp(args) -> dict:
    from .arithmetic import enumerate_zp_points
    from .scalars import parse_rational

    d = parse_rational(args.D)
    points = enumerate_zp_points(args.p, d)
    return {
        "p": args.p,
        "D": str(d),
        "points": [
            {"coords": _point_json(z.coords), "exponents": list(z.exponents)}
            for z in points
        ],
    }


# -- parser wiring -----------------------------------------------------------------


_PARAMS = ("--params", {"required": True})
_POINT = ("--point", {"required": True})
_WORD = ("--word", {"required": True})
_DEPTH = ("--depth", {"type": int, "required": True})
_RANGE = ("--range", {"default": "4"})
_OUT = ("--out", {})

# (command path, help, handler, flags); a row without a handler is a group
# whose subcommands follow it.
_COMMANDS = (
    (("skeleton",), "skeleton sampling and rendering", None, ()),
    (("skeleton", "sample"), "sample the skeleton over a plane grid", _cmd_skeleton_sample,
     (_PARAMS, ("--grid", {"type": int, "default": 9}), _RANGE,
      ("--format", {"choices": ("csv", "json"), "default": "csv"}), _OUT)),
    (("skeleton", "svg"), "shaded plane projection", _cmd_skeleton_svg,
     (_PARAMS, ("--grid", {"type": int, "default": 64}), _RANGE, _OUT)),
    (("orbit",), "apply a word, printing the stepwise trace", _cmd_orbit,
     (_PARAMS, _POINT, _WORD, _OUT)),
    (("reduce",), "greedy reduction trace", _cmd_reduce,
     (_PARAMS, _POINT, ("--max-steps", {"type": int}), _OUT)),
    (("classify",), "exception-set membership report", _cmd_classify,
     (_PARAMS, _POINT, _OUT)),
    (("rays",), "exception-ray generators as CSV", _cmd_rays,
     (("--d", {"required": True}), ("--height", {"type": int, "required": True}), _OUT)),
    (("farey",), "mediant triples and their orbit words", _cmd_farey,
     (_DEPTH, ("--d", {"default": "-2"}),
      ("--cell", {"type": int, "default": 1, "choices": (1, 2, 3)}), ("--svg", {}), _OUT)),
    (("tessellation",), "ideal-triangle tessellation of the disk", _cmd_tessellation,
     (_DEPTH, ("--svg", {"required": True}))),
    (("pingpong",), "partial-orbit counts and arc statistics", _cmd_pingpong,
     (_DEPTH, ("--side", {"choices": ("boundary", "skeleton"), "required": True}),
      ("--stats", {"action": "store_true"}), _OUT)),
    (("fatou",), "Fatou condition and witness", _cmd_fatou, (_PARAMS, _OUT)),
    (("lift-check",), "valuation consistency of an exact orbit", _cmd_lift_check,
     (("--seed", {"required": True}), ("--abc", {"default": "0,0,0"}), _WORD, _OUT)),
    (("enumerate-zp",), "points with prime-power denominators", _cmd_enumerate_zp,
     (("--p", {"type": int, "required": True}), ("--D", {"required": True}), _OUT)),
)
_HANDLED = {row[0]: row for row in _COMMANDS if row[2]}  # the command rows by path


def _add_flags(cmd: _Parser, row) -> None:
    path, _, handler, flags = row
    for name, spec in flags:
        cmd.add_argument(name, **spec)
    cmd.set_defaults(func=handler, command_path=path)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="tropmarkov",
                     description="exact min-plus dynamics on tropical Markov cubics")
    groups = {(): parser.add_subparsers(dest="command", required=True)}
    for row in _COMMANDS:
        path, help_text, handler, _ = row
        cmd = groups[path[:-1]].add_parser(path[-1], help=help_text)
        if handler is None:
            groups[path] = cmd.add_subparsers(dest=f"{path[-1]}_command", required=True)
        else:
            _add_flags(cmd, row)
    return parser


@functools.cache
def _command_parser(path: tuple[str, ...]) -> _Parser:
    """One command's parser alone, with the full parser's name for it, so its
    messages and help are the full parser's."""
    cmd = _Parser(prog=" ".join(("tropmarkov", *path)))
    _add_flags(cmd, _HANDLED[path])
    return cmd


def _parse_args(argv: list[str]):
    """Parse with the parser of the command the leading words name, found by
    dict lookups; help, groups and unknown commands go to the full parser."""
    path = tuple(argv[:2]) if tuple(argv[:2]) in _HANDLED else tuple(argv[:1])
    if path not in _HANDLED or "-h" in argv or "--help" in argv:
        return _build_parser().parse_args(argv)
    return _command_parser(path).parse_args(argv[len(path):])


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        result = args.func(args)
        if isinstance(result, dict):
            result = _json_text({"schema_version": SCHEMA_VERSION,
                                 "command": "-".join(args.command_path), **result})
        if result is not None:
            _emit(result, getattr(args, "out", None))
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, ResourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
