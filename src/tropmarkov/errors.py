"""Error taxonomy shared by the library and the CLI.

DomainError: input is syntactically fine but outside an operation's domain
(off the skeleton, holomorphic parameters for a meromorphic-only query, ...).
UsageError: malformed input (bad flag syntax, empty argument list, non-prime p).
ResourceError: a configured bound was exceeded (orbit depth, step budget).
"""


class DomainError(ValueError):
    pass


class UsageError(ValueError):
    pass


class ResourceError(RuntimeError):
    pass


def bound_error(what: str, n: int, bound) -> ResourceError:
    """The ResourceError "<what> <n> exceeds the configured bound <bound>"; an n
    with more digits than str() prints (sys.get_int_max_str_digits()) is named
    by its approximate digit count."""
    try:
        text = str(n)
    except ValueError:
        text = f"<an integer of about {round(n.bit_length() * 0.30103)} digits>"
    return ResourceError(f"{what} {text} exceeds the configured bound {bound}")
