"""Exception types shared across the package.

Every operation raises a subclass of FreesetError so callers (and the CLI,
which maps them to exit code 2 or 3) can distinguish bad input from internal
degeneracy.
"""


class FreesetError(Exception):
    """Base class for all package errors."""


# ---------------------------------------------------------------------------
# Embedded-graph construction and surgery
# ---------------------------------------------------------------------------

class NonPlanarRotation(FreesetError):
    """Rotation system fails the Euler identity V - E + F = 2."""


class MultiEdgeOrLoop(FreesetError):
    pass


class Disconnected(FreesetError):
    pass


class TooSmall(FreesetError):
    pass


class UnknownElement(FreesetError):
    pass


# ---------------------------------------------------------------------------
# Curve certificates
# ---------------------------------------------------------------------------

class InvalidCurve(FreesetError):
    """A certificate failed validation; message carries the locus."""


class InconsistentSides(InvalidCurve):
    """A crossing re-enters the face it left."""


class NotOnBoundary(FreesetError):
    pass


class NotACycle(FreesetError):
    pass


class TooFew(FreesetError):
    pass


class NotIndependent(FreesetError):
    pass


class NotCaressed(FreesetError):
    pass


# ---------------------------------------------------------------------------
# Extractors
# ---------------------------------------------------------------------------

class NotTriangulation(FreesetError):
    pass


class NotMaximalOuterplane(FreesetError):
    pass


class ChainTooShort(FreesetError):
    pass


class AntichainTooShort(FreesetError):
    pass


class BadLevelAssignment(FreesetError):
    pass


class NotSpanningTree(FreesetError):
    pass


class NoIndependentPair(FreesetError):
    pass


# ---------------------------------------------------------------------------
# Geometric realization
# ---------------------------------------------------------------------------

class SingularSystem(FreesetError):
    pass


class DegenerateOutput(FreesetError):
    """An exact check failed on a drawing the program built; the message
    names the stage and the violation."""


class YNotOnOuterFace(FreesetError):
    pass


class SizeMismatch(FreesetError):
    pass


class MergeConflict(FreesetError):
    pass


# ---------------------------------------------------------------------------
# Applications / oracle / IO
# ---------------------------------------------------------------------------

class TooLarge(FreesetError):
    pass


class VertexSetMismatch(FreesetError):
    pass


class GraphFormatError(FreesetError):
    """Syntax error in a text format; message includes the line number."""


class UnreadableFile(FreesetError):
    """An input file could not be read as text; the message names it."""


class UnwritableFile(FreesetError):
    """An output file or directory could not be written; the message names
    it."""


class BadSpec(FreesetError):
    pass


class Unverified(FreesetError):
    """``violation``: the DrawingViolation found, if a check ran."""

    def __init__(self, message: str, violation=None):
        super().__init__(message)
        self.violation = violation
