"""Exception types raised across the library.

Every dilink failure derives from DilinkError, and its class names its
kind: an InputError refuses malformed input (CLI exit 2); a
ConstructionFailed is a step failing on valid input, exact when it
proves that what was sought does not exist, so that no retry can find
it (CLI exit 3, or 1 for CycleNotFound); PipelineFailed ends a pipeline
and lists its attempts (CLI exit 3).  A kind has a subclass only where
a caller tells it apart: the input checks (BadParameter, LabelOutOfRange,
LoopArc), check-degrees' report (NotOriented) and the CLI's exit code
(CycleNotFound).  Otherwise the message names the step, the path or
the ladder that failed.
"""


class DilinkError(Exception):
    """Base class for all dilink errors."""


class InputError(DilinkError):
    """The arguments are malformed or outside the function's domain."""


class ConstructionFailed(DilinkError):
    """A step failed on valid input; ``exact`` when that proves absence."""

    def __init__(self, message: str = "", exact: bool = False):
        self.exact = exact
        super().__init__(message)


class LoopArc(InputError):
    """An arc (v, v) was supplied; loops are not representable."""


class LabelOutOfRange(InputError):
    """A vertex label falls outside 0..n-1."""


class BadParameter(InputError):
    """Any other refused argument: a parameter out of its range, a digraph
    too small or too large for the request, or a path, size or count that
    does not fit the structure it is given to."""


class NotOriented(InputError):
    """The digraph contains a digon but an orientation was required."""


class CycleNotFound(ConstructionFailed):
    """No cycle of the requested length was found; exact when a Hall
    violator or the subset table on at most 14 vertices proves none."""


class PipelineFailed(DilinkError):
    """An end-to-end pipeline failed.  ``attempts`` holds one (stage, reason)
    per attempt, in order (a gate that refuses the input is the only entry),
    and ``stage`` names the step at which the last one failed."""

    def __init__(self, stage: str, message: str = "", attempts: tuple = ()):
        self.stage = stage
        self.attempts = tuple(attempts) or ((stage, message),)
        super().__init__(message or f"pipeline failed at stage {stage!r}")
