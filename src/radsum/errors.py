"""Exception hierarchy, and the one check for integer arguments.

The split mirrors the CLI exit codes: input problems (1), enumeration size
limits (2), and mathematical-soundness failures (3).  Soundness failures are
kept distinct so pipelines can tell "bug in the bound machinery" apart from
plain misuse.
"""

from typing import Optional


class RadsumError(Exception):
    """Base class for all package errors."""


class InputError(RadsumError, ValueError):
    """Invalid user input: bad values, malformed grammar, out-of-range args."""


class DegenerateVectorError(InputError):
    """All-zero weight input; no direction to normalize."""


class WrongCaseError(InputError):
    """An operation was applied to a weight vector of the other proof case."""


class SizeLimitError(RadsumError):
    """Instance exceeds the configured enumeration limit."""

    def __init__(self, n: int, limit: int, what: str = "enumeration"):
        self.n = n
        self.limit = limit
        super().__init__(f"instance too large: n={n} exceeds the {what} limit {limit}")


class SoundnessError(RadsumError):
    """A certified bound or verified lemma failed its mathematical guarantee."""


def _check_int(value, name: str, lo: int, hi: Optional[int] = None) -> int:
    """``value`` when it is a plain ``int`` (bools rejected) in ``[lo, hi]``
    (no upper end when ``hi`` is None); otherwise an ``InputError``.  The one
    check for every integer argument taken from outside."""
    if type(value) is not int or value < lo or (hi is not None and value > hi):
        span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise InputError(f"invalid input: {name} must be an integer {span}, got {value!r}")
    return value
