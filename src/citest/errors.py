"""Exception types shared across the package."""

from __future__ import annotations


class CitestError(Exception):
    """Base class for all citest-specific failures."""


class NegativeCitation(CitestError, ValueError):
    """A citation count below zero was supplied."""

    def __init__(self, index: int, value: int):
        self.index = index
        self.value = value
        super().__init__(f"citation at position {index} is negative ({value})")


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

    ``known_ranks`` is how many ranks were available, ``needed_rank`` the first
    rank whose value could not be pinned down.
    """

    def __init__(self, known_ranks: int, needed_rank: int, what: str = ""):
        self.known_ranks = known_ranks
        self.needed_rank = needed_rank
        detail = f" to certify {what}" if what else ""
        super().__init__(
            f"prefix of {known_ranks} ranks is insufficient{detail}; "
            f"rank {needed_rank} (at minimum) is required"
        )


class IndexUnderflow(CitestError):
    """A shifted-index row was requested for an empty or all-zero suffix."""


class WrongCase(CitestError):
    """Operation applies to a different defect-classification case."""


class GroundTruthUnavailable(CitestError):
    """Error metrics need the full profile; only a prefix is known."""


class ResourceLimit(CitestError):
    """Requested computation exceeds the configured size ceiling."""

    def __init__(self, n: int, ceiling: int):
        self.n = n
        self.ceiling = ceiling
        super().__init__(f"n={n} exceeds the configured ceiling of {ceiling}")


class NegativeArgument(CitestError, ValueError):
    """A non-negative integer argument was required."""
