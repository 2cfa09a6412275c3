"""Exception types raised across the library.

Every library-specific failure derives from DilinkError so callers can
catch one base class.  Errors that identify a particular request or stage
carry that information as an attribute.
"""


class DilinkError(Exception):
    """Base class for all dilink errors.  ``exact`` is True only when the
    message proves that what was sought does not exist, so that no retry
    can find it."""

    def __init__(self, message: str = "", exact: bool = False):
        self.exact = exact
        super().__init__(message)


class LoopArc(DilinkError):
    """An arc (v, v) was supplied; loops are not representable."""


class LabelOutOfRange(DilinkError):
    """A vertex label falls outside 0..n-1."""


class BadParameter(DilinkError):
    """A numeric parameter violates its admissible range."""


class TooSmall(DilinkError):
    """The digraph has too few vertices for the requested check."""


class NotOriented(DilinkError):
    """The digraph contains a digon but an orientation was required."""


class TooLargeForExact(DilinkError):
    """Exact certification was requested above the subset-enumeration cap."""


class TooLargeForOracle(DilinkError):
    """The brute-force oracle was invoked above its size cap."""


class InvalidPath(DilinkError):
    """A vertex sequence is not a valid path of the digraph."""


class NotEmbedded(DilinkError):
    """A ladder's rungs are not contiguous subpaths of a single host path."""


class PathNotDisjoint(DilinkError):
    """An absorbee path meets the host structure outside its endpoints."""


class EndpointMismatch(DilinkError):
    """A supplied path does not start/end at the required vertices."""


class CoverConstructionFailed(DilinkError):
    """No verified covering pair set was found, or none exists (exact)."""


class LadderConstructionFailed(DilinkError):
    """A ladder could not be built for a terminal pair."""

    def __init__(self, index: int, message: str = ""):
        self.index = index
        super().__init__(message or f"could not build ladder #{index}")


class AbsorberConstructionFailed(DilinkError):
    """One absorber attempt failed; the message names the step and why."""


class TooManyPaths(DilinkError):
    """More paths were supplied than the absorber's multiplicity d."""


class NoCoveringPair(DilinkError):
    """No unused covering pair is available for a path's endpoints."""

    def __init__(self, index: int, message: str = ""):
        self.index = index
        super().__init__(message or f"no unused covering pair for path #{index}")


class NotDisjoint(DilinkError):
    """Supplied paths overlap each other or the absorber."""


class CycleNotFound(DilinkError):
    """No cycle of the requested length was found; exact when a Hall
    violator or a completed exhaustive search proves that none exists."""


class SizesExceedCycle(DilinkError):
    """Requested segment sizes sum to more than the cycle length."""


class OrdersDontSumToN(DilinkError):
    """Tiling orders do not sum to the number of vertices."""


class PipelineFailed(DilinkError):
    """An end-to-end pipeline failed.  ``attempts`` holds one (stage, reason)
    per attempt, in order (a gate that refuses the input is the only entry),
    and ``stage`` names the step at which the last one failed."""

    def __init__(self, stage: str, message: str = "", attempts: tuple = ()):
        self.stage = stage
        self.attempts = tuple(attempts) or ((stage, message),)
        super().__init__(message or f"pipeline failed at stage {stage!r}")
