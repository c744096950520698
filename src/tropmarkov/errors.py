"""Error taxonomy shared by the library and the CLI.

DomainError: input is syntactically fine but outside an operation's domain
(off the skeleton, holomorphic parameters for a meromorphic-only query, ...).
UsageError: malformed input (bad flag syntax, empty argument list, non-prime p).
ResourceError: a configured bound was exceeded (orbit depth, step budget).

Every user-controlled size (an orbit depth, height, grid, step cap, word length,
box half-width or listing's bytes) goes through one rule, `check_size`.
"""


class DomainError(ValueError):
    pass


class UsageError(ValueError):
    pass


class ResourceError(RuntimeError):
    pass


def _size_text(n: int) -> str:
    """str(n); an n with more digits than str() prints (sys.get_int_max_str_digits())
    is named by its approximate digit count."""
    try:
        return str(n)
    except ValueError:
        return f"<an integer of about {round(n.bit_length() * 0.30103)} digits>"


def bound_error(what: str, n: int, bound) -> ResourceError:
    """The ResourceError "<what> <n> exceeds the configured bound <bound>", n as `_size_text`."""
    return ResourceError(f"{what} {_size_text(n)} exceeds the configured bound {bound}")


def check_size(n, what: str, least: int = 0, bound=None) -> int:
    """n, checked as a size: an int (not a bool, float or str) of at least ``least``,
    a UsageError otherwise, and past ``bound``, if one is given, the `bound_error`."""
    if type(n) is not int:
        raise UsageError(f"{what} must be an int, got {type(n).__name__}")
    if n < least:
        rule = f"at least {least}" if least else "nonnegative"
        raise UsageError(f"{what} must be {rule}, got {_size_text(n)}")
    if bound is not None and n > bound:
        raise bound_error(what, n, bound)
    return n
