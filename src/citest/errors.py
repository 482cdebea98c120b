"""Exception types shared across the package."""

from __future__ import annotations


class CitestError(Exception):
    """Base class for all citest-specific failures."""


class NegativeCitation(CitestError, ValueError):
    """A citation count below zero was supplied."""

    def __init__(self, index: int, value: int):
        self.index = index
        self.value = value
        super().__init__(f"citation at position {index} is negative ({quoted(value)})")


class ParseError(CitestError, ValueError):
    """Input stream could not be parsed under the declared format.

    ``line`` is the 1-based file line, or ``None`` for input without lines.
    """

    def __init__(self, line: int | None, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(reason if line is None else f"line {line}: {reason}")


class RankOutOfRange(CitestError, IndexError):
    """Requested rank lies outside the profile."""


class EmptyCore(CitestError):
    """The profile has h = 0, so core-dependent indices are undefined."""


class DegenerateCore(CitestError):
    """Excess magnitude e is zero: every core entry equals h, intervals collapse."""


class InsufficientTail(CitestError):
    """A rank prefix is too short to certify the requested quantity.

    ``needed_rank`` is the first rank whose value could not be pinned down.
    """

    def __init__(self, known_ranks: int, needed_rank: int, what: str):
        self.needed_rank = needed_rank
        super().__init__(
            f"prefix of {known_ranks} ranks is insufficient to certify {what}; "
            f"rank {needed_rank} (at minimum) is required"
        )


class WrongCase(CitestError):
    """Operation applies to a different defect-classification case."""


class GroundTruthUnavailable(CitestError):
    """Error metrics need the full profile; only a prefix is known."""


class ResourceLimit(CitestError):
    """Requested computation exceeds the size ceiling."""

    def __init__(self, n: int, ceiling: int):
        super().__init__(f"{shown('n', n)} exceeds the ceiling of {ceiling}")


class NegativeArgument(CitestError, ValueError):
    """A non-negative integer argument was required."""


def at_least(name: str, value, low: int) -> None:
    """Raise ``NegativeArgument`` (``n must be >= 0, got -2``) when ``value < low``."""
    if value < low:
        raise NegativeArgument(f"{name} must be >= {low}, got {quoted(value)}")


def integer_argument(text: str, low: int | None = None, high: int | None = None) -> int:
    """A command-line integer, with the integer grammar of input files.

    ASCII digits after an optional '-', within ``low``..``high`` when given;
    else ``ValueError``, worded as argparse prints it after the argument's
    name (``invalid int value: 'x'``).
    """
    if not (text.removeprefix("-").isdigit() and text.isascii()):
        raise ValueError(f"invalid int value: {text!r}")
    try:
        value = int(text)
    except ValueError:  # int() refuses a digit string past its limit
        raise ValueError(f"{text!r} has too many digits") from None
    if low is not None and value < low:
        raise ValueError(f"must be >= {low}, got {quoted(value, 'argument')}")
    if high is not None and value > high:
        raise ValueError(f"must be <= {high}, got {quoted(value, 'argument')}")
    return value


def shown(name: str, value) -> str:
    """``m=5``, or ``a 31-digit m`` for a value too long to echo (see ``_size``)."""
    size = _size(value)
    return f"a {size} {name}" if size else f"{name}={value!r}"


def quoted(value, noun: str = "value") -> str:
    """``'x'`` or ``-2``, or ``a 100000-character value`` for a value too long to echo."""
    size = _size(value)
    return f"a {size} {noun}" if size else repr(value)


def _size(value) -> str:
    """``''`` for a value a message may echo, else ``31-digit`` or ``5000-character``.

    Echoed are ints up to 20 digits and other values up to 20 characters: a
    string's own length, or the length of its repr for anything else.  A
    value without a repr (a ``Fraction`` past ``int()``'s digit limit) is
    named by its type: ``Fraction``.
    """
    if isinstance(value, int):
        if abs(value) < 10**20:
            return ""
        # str(n) refuses n past int()'s digit limit, so the digits are counted
        # from the bit length: 1233/4096 is just below log10(2), so k starts at
        # or below the answer
        n = abs(value)
        k = (n.bit_length() - 1) * 1233 // 4096 + 1
        while n >= 10**k:
            k += 1
        return f"{k}-digit"
    try:
        length = len(value if isinstance(value, str) else repr(value))
    except ValueError:  # repr() of a number past int()'s digit limit
        return type(value).__name__
    return f"{length}-character" if length > 20 else ""
