"""Exception types shared across the package."""

import functools


class NilcohomError(Exception):
    """Base class for all package errors."""


class ParseError(NilcohomError, ValueError):
    """Malformed input text; carries the character position when known."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class StructureError(NilcohomError):
    """A mathematical validity check failed (Jacobi, J^2, rank, ...)."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class UnsupportedError(NilcohomError):
    """The request is valid but outside the supported configuration."""


class PrecisionUnavailable(NilcohomError):
    """A certified enclosure source was exhausted before reaching the
    requested width."""


def input_errors_as_parse_error(what):
    """Decorator for functions that turn user documents into values:
    the arithmetic and lookup errors a malformed document raises
    (division by zero, bad literals, missing keys or indices, wrong types,
    such as a list where an object belongs) become a ParseError naming
    ``what``; a ParseError passes unchanged."""
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except ParseError:
                raise
            except (ZeroDivisionError, ValueError, LookupError, TypeError,
                    AttributeError) as exc:
                if isinstance(exc, KeyError):
                    detail = f"missing key {exc}"
                elif isinstance(exc, ZeroDivisionError):
                    detail = f"division by zero ({exc})"
                else:
                    detail = str(exc)
                raise ParseError(f"malformed {what}: {detail}") from None
        return wrapper
    return decorate
