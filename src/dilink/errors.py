"""Exception types raised across the library.

Every dilink failure derives from DilinkError, and its class names its
kind: an InputError refuses malformed input (CLI exit 2); a
ConstructionFailed is a step failing on valid input, exact when it
proves that what was sought does not exist, so that no retry can find
it (CLI exit 3, or 1 for CycleNotFound); PipelineFailed ends a pipeline
and lists its attempts (CLI exit 3).  Errors that identify a particular
request or stage carry that information as an attribute.
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
    """A numeric parameter violates its admissible range."""


class TooSmall(InputError):
    """The digraph has too few vertices for the requested check."""


class NotOriented(InputError):
    """The digraph contains a digon but an orientation was required."""


class TooLargeForExact(InputError):
    """Exact certification was requested above the subset-enumeration cap."""


class TooLargeForOracle(InputError):
    """The brute-force oracle was invoked above its size cap."""


class InvalidPath(InputError):
    """A vertex sequence is not a valid path of the digraph."""


class NotEmbedded(InputError):
    """A ladder's rungs are not contiguous subpaths of a single host path."""


class PathNotDisjoint(InputError):
    """An absorbee path meets the host structure outside its endpoints."""


class EndpointMismatch(InputError):
    """A supplied path does not start/end at the required vertices."""


class CoverConstructionFailed(ConstructionFailed):
    """No verified covering pair set was found, or none exists (exact)."""


class LadderConstructionFailed(ConstructionFailed):
    """A ladder could not be built for a terminal pair."""

    def __init__(self, index: int, message: str = ""):
        self.index = index
        super().__init__(message or f"could not build ladder #{index}")


class AbsorberConstructionFailed(ConstructionFailed):
    """One absorber attempt failed; the message names the step and why."""


class TooManyPaths(InputError):
    """More paths were supplied than the absorber's multiplicity d."""


class NoCoveringPair(ConstructionFailed):
    """No unused covering pair is available for a path's endpoints."""

    def __init__(self, index: int, message: str = ""):
        self.index = index
        super().__init__(message or f"no unused covering pair for path #{index}")


class NotDisjoint(InputError):
    """Supplied paths overlap each other or the absorber."""


class CycleNotFound(ConstructionFailed):
    """No cycle of the requested length was found; exact when a Hall
    violator or the subset table on at most 14 vertices proves none."""


class SizesExceedCycle(InputError):
    """Requested segment sizes sum to more than the cycle length."""


class OrdersDontSumToN(InputError):
    """Tiling orders do not sum to the number of vertices."""


class PipelineFailed(DilinkError):
    """An end-to-end pipeline failed.  ``attempts`` holds one (stage, reason)
    per attempt, in order (a gate that refuses the input is the only entry),
    and ``stage`` names the step at which the last one failed."""

    def __init__(self, stage: str, message: str = "", attempts: tuple = ()):
        self.stage = stage
        self.attempts = tuple(attempts) or ((stage, message),)
        super().__init__(message or f"pipeline failed at stage {stage!r}")
