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
import os
import re
import sys
from collections.abc import Iterable, Iterator
from itertools import islice
from json.encoder import encode_basestring_ascii as _json_string  # the C encoder

from .errors import DomainError, ResourceError, UsageError

SCHEMA_VERSION = 1
_RECORD = "\n    "  # the indent of a JSON listing's records: the payload's arrays, two deep

# Most decimal digits a numerator or denominator of an `orbit` point may have.
# Along a hyperbolic word the digits grow about linearly with its length, and
# every point is printed, so the output would grow quadratically.
ORBIT_DIGIT_BOUND = 1000


class _Formatter(argparse.HelpFormatter):
    """argparse's help formatter, reading the terminal width only when it
    formats: argparse builds one in every add_argument, and the stock one
    imports shutil (with bz2 and lzma) there to read the width."""

    def __init__(self, prog, indent_increment=2, max_help_position=24, width=None):
        super().__init__(prog, indent_increment, max_help_position, width=80)
        self._asked = (max_help_position, width)

    def format_help(self):
        # The sizes the stock __init__ would have set.
        max_help_position, width = self._asked
        if width is None:
            import shutil

            width = shutil.get_terminal_size().columns - 2
        self._width = width
        self._max_help_position = min(max_help_position,
                                      max(width - 20, self._indent_increment * 2))
        return super().format_help()


def _int(text: str) -> int:
    """int(text); an integer past the int-str limit names it, cut short."""
    try:
        return int(text)
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        from .scalars import _cut
        raise argparse.ArgumentTypeError(f"{_cut(text)} exceeds the limit of "
                                         f"{sys.get_int_max_str_digits()} digits for an integer")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        kwargs.setdefault("formatter_class", _Formatter)
        super().__init__(*args, **kwargs)
        self.register("type", int, _int)  # argparse still names the type int
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


def _emit(chunks: Iterable[str], out_path: str | None):
    """Write the text, given as an iterable of chunks, to out_path or stdout.
    Each chunk is written as it comes, so a streamed command runs every check
    (sizes, domain, the digit limit) before it returns its chunks: a failing
    call leaves stdout empty and writes no out_path file.  An output that cannot
    be written, stdout included (closed, full, or a pipe whose reader has gone),
    is a ResourceError; a failed stdout is pointed at os.devnull for the exit flush."""
    if not (out_path or sys.stdout):
        raise ResourceError("cannot write stdout: it is closed")
    try:
        if out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.writelines(chunks)
        else:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()  # its last bytes are checked too
    except OSError as exc:
        if not out_path:
            _to_devnull(sys.stdout)
        raise ResourceError(f"cannot write {out_path or 'stdout'}: {exc.strerror or exc}") from exc


def _to_devnull(stream) -> None:
    """Point a standard stream whose write failed at os.devnull, for the exit flush."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _json_text(value, indent: str) -> str:
    """The text json.dumps(value, indent=2, sort_keys=True) prints for a value
    nested at ``indent`` (a newline and the spaces before it): str leaves through
    the json module's C encoder, int leaves through int.__repr__, dict keys
    (str) sorted, and tuples as arrays; listing records print from `_json_template`."""
    if isinstance(value, str):
        return _json_string(value)
    if isinstance(value, (list, tuple, dict)):
        if not value:
            return "{}" if isinstance(value, dict) else "[]"
        inner = indent + "  "
        if isinstance(value, dict):
            items = [f"{_json_string(k)}: {_json_text(v, inner)}"
                     for k, v in sorted(value.items())]
            return "{" + inner + ("," + inner).join(items) + indent + "}"
        items = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@functools.cache
def _json_template(**record) -> str:
    """The %-template of a listing record, slots in sorted-key order: `_json_text` of a
    placeholder (arrays as tuples) at the records' indent.  A None leaf is one bare slot; a
    str leaf's "%s" slots take texts as they are, so only texts the library made of digits,
    "-", "/", "s" and spaces (coordinates and words).  Made once per shape."""
    return _json_text(record, _RECORD).replace("null", "%s")


def _json_chunks(payload: dict) -> Iterator[str]:
    """json.dumps(payload, indent=2, sort_keys=True) + "\\n" in chunks, one per key.
    A value that is an iterator is a listing of finished record texts (`_json_template`),
    printed as an array one chunk per record, so a lazy listing is never held whole."""
    sep = "{"
    for key, value in sorted(payload.items()):
        yield f"{sep}\n  {_json_string(key)}: "
        if isinstance(value, Iterator):
            start = "["
            for record in value:
                yield start + _RECORD + record
                start = ","
            yield "[]" if start == "[" else "\n  ]"
        else:
            yield _json_text(value, "\n  ")
        sep = ","
    yield "\n}\n" if payload else "{}\n"


def _csv_chunks(header: str, lines: Iterable[str]) -> Iterator[str]:
    """The header, then the newline-terminated lines 1024 to a chunk.  No field (an int,
    p/q rational, float or |-joined cell names) is one a CSV writer would quote."""
    yield header + "\n"
    lines = iter(lines)
    while chunk := "".join(islice(lines, 1024)):
        yield chunk


# -- subcommand bodies -----------------------------------------------------------
# JSON bodies return their payload and main adds schema_version and command;
# CSV and SVG bodies return their chunks; bodies that write a file return None.


def _cmd_skeleton_sample(args) -> dict | Iterator[str]:
    from math import gcd

    from .scalars import parse_rational
    from .surface import Params, _finite_values, _grid_lifts

    params = Params.parse(args.params)
    span = parse_rational(args.range)
    values, den, lifts = _grid_lifts(params, args.grid, span)  # checks the grid
    texts = [str(v) for v in values]

    def coordinate(y: int) -> str:  # str(Fraction(y, den))
        g = gcd(y, den)
        return str(y // g) if g == den else f"{y // g}/{den // g}"

    rows = ((texts[k % args.grid], texts[k // args.grid], [*map(coordinate, y)],
             sorted(c.value for c in cells)) for k, (y, cells) in enumerate(lifts))
    # |coordinate| < 6|span| + the largest finite |parameter|: where that times den may
    # pass the digit limit, make every row now, so an error comes before any output.
    top = 6 * abs(span) + max([abs(e) for e in _finite_values(params) if e is not None] or [0])
    if (limit := sys.get_int_max_str_digits()) and den * max(top, 1) >= 10**limit:
        rows = list(rows)
    if args.format == "json":
        row = _json_template(cells=(None,), point=("%s",) * 3, v1="%s", v2="%s")
        # A row's 1-3 cell names fill its bare slot, parted as _json_text parts array items.
        sep = _json_text(["%s"] * 2, _RECORD + "  ").split('"%s"')[1]
        return {"params": str(params),
                "rows": (row % (sep.join(map(_json_string, cells)), *x, v1, v2)
                         for v1, v2, x, cells in rows)}
    return _csv_chunks("v1,v2,x1,x2,x3,cells", (f"{v1},{v2},{','.join(x)},{'|'.join(cells)}\n"
                                                for v1, v2, x, cells in rows))


def _cmd_skeleton_svg(args) -> Iterator[str]:
    from .scalars import parse_rational
    from .surface import Params
    from .svgout import skeleton_svg

    params = Params.parse(args.params)
    return skeleton_svg(params, args.grid, parse_rational(args.range))


def _cmd_orbit(args) -> dict:
    from .dynamics import Word, _reflect
    from .surface import Params, _finite_values, _monomials, parse_point

    params = Params.parse(args.params)
    finite = _finite_values(params)
    x = parse_point(args.point)
    word = Word.parse(args.word)
    letters = [*word.applied_order()]
    limit = 10**ORBIT_DIGIT_BOUND
    points = [x]
    values = _monomials(finite, x)  # carried from point to point by each reflection
    for k in range(len(letters) + 1):
        if any(abs(c.numerator) >= limit or c.denominator >= limit for c in points[k]):
            raise ResourceError(f"a coordinate after {k} of {len(letters)} letters exceeds the "
                                f"configured bound of {ORBIT_DIGIT_BOUND} digits")
        if k < len(letters):
            y, values = _reflect(values, finite, letters[k], points[k])
            points.append(y)
    return {
        "params": str(params),
        "start": _point_json(x),
        "word": str(word),
        "steps": [{"generator": f"s{g}", "point": _point_json(p)}
                  for g, p in zip(letters, points[1:])],
        "final": _point_json(points[-1]),
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


def _cmd_rays(args) -> Iterator[str]:
    from .classifier import _ray_patterns
    from .scalars import parse_rational

    half, patterns = _ray_patterns(parse_rational(args.d), args.height)
    # Every coordinate from 0 to the largest (the first pattern's first) is printed:
    # each is formatted now, so one past the digit limit raises before any output.
    texts = [str(half * c) for c in range(patterns[0][0] + 1 if patterns else 0)]
    return _csv_chunks("g1,g2,g3", (f"{texts[a]},{texts[b]},{texts[c]}\n" for a, b, c in patterns))


def _cmd_farey(args) -> dict | None:
    from .classifier import _punctured_half
    from .hyperbolic import _farey_listing
    from .scalars import parse_rational
    from .svgout import farey_svg

    d = parse_rational(args.d)
    if args.svg:
        _emit(farey_svg(d, args.depth), args.svg)
        return None
    column, listing = _farey_listing(args.depth, args.cell)
    half = _punctured_half(d)
    # The text of |d|/2 times each coordinate the line holds (its numerators, reversed the
    # denominators), made once and now, so one past the digit limit raises before output.
    text = {a: str(half * a) for a in set(column)}
    record = _json_template(triple=((None,) * 2,) * 3, vertices=(("%s",) * 2,) * 3, word="%s")
    # The triples of farey_enumerate, in its order, one at a time, with their words.
    records = (record % (l0, l1, m0, m1, r0, r1, text[l0], text[l1], text[m0], text[m1],
                         text[r0], text[r1], word)
               for (l0, m0, r0), (l1, m1, r1), word in listing)
    return {"d": str(d), "cell": args.cell, "triples": records}


def _cmd_tessellation(args) -> None:
    from .svgout import tessellation_svg

    _emit(tessellation_svg(args.depth), args.svg)


def _cmd_pingpong(args) -> Iterator[str]:
    from .hyperbolic import _boundary_lines, _skeleton_lines, partition_table

    if args.stats:
        table = enumerate(partition_table(args.depth, args.side))
        return _csv_chunks("n,count,delta,Delta", [f"{n},{count},{delta:.12f},{big_delta:.12f}\n"
                                                   for n, (count, delta, big_delta) in table])
    if args.side == "boundary":
        return _csv_chunks("p,q", _boundary_lines(args.depth))
    return _csv_chunks("x1,x2,x3", _skeleton_lines(args.depth))


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
    from .arithmetic import _check_lift_word, lift_consistency, surface_from_seed
    from .dynamics import Word
    from .laurent import LaurentPoly

    seeds = [LaurentPoly.parse(part) for part in args.seed.split(",")]
    if len(seeds) != 3:
        raise UsageError("--seed needs exactly 3 comma-separated Laurent polynomials")
    abc = [LaurentPoly.parse(part) for part in args.abc.split(",")]
    if len(abc) != 3:
        raise UsageError("--abc needs exactly 3 comma-separated Laurent polynomials")
    word = Word.parse(args.word)  # a malformed or long word exits before the seed is built
    _check_lift_word(word)
    point = surface_from_seed(*seeds, *abc)
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
    from .arithmetic import zp_numerators
    from .scalars import _int_valuation, parse_rational

    p, d = args.p, parse_rational(args.D)
    triples, pk, K = zp_numerators(p, d)
    powers = [p ** v for v in range(K)]  # p^K divides no n, so v_p(n) < K
    point = _json_template(coords=("%s/%s",) * 3, exponents=(None,) * 3)

    def record(n1: int, n2: int, n3: int) -> str:  # each n / p^K in lowest terms, v_p(n) - K
        v1, v2, v3 = _int_valuation(n1, p), _int_valuation(n2, p), _int_valuation(n3, p)
        a, b, c = powers[v1], powers[v2], powers[v3]
        return point % (n1 // a, pk // a, n2 // b, pk // b, n3 // c, pk // c, v1 - K, v2 - K,
                        v3 - K)
    return {"p": p, "D": str(d), "points": (record(*t) for t in triples)}


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
            result = _json_chunks({"schema_version": SCHEMA_VERSION,
                                   "command": "-".join(args.command_path), **result})
        if result is not None:
            _emit(result, getattr(args, "out", None))
        return 0
    except UsageError as exc:
        code, line = 3, f"usage error: {exc}"
    except (DomainError, ResourceError) as exc:
        code, line = 2, f"error: {exc}"
    except ValueError as exc:
        # CPython prints no int past sys.get_int_max_str_digits() digits; an
        # output value that large is a size past a bound.
        if "integer string conversion" not in str(exc):
            raise
        code, line = 2, (f"error: an output value exceeds the limit of "
                         f"{sys.get_int_max_str_digits()} digits for a numerator or denominator")
    try:  # a stderr that cannot be written loses the line, not the exit status
        if sys.stderr:  # None if closed at start, where print would write to stdout
            print(line, file=sys.stderr, flush=True)
    except OSError:
        _to_devnull(sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
