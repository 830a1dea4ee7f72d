"""Exception types shared across the package."""


class DegmapError(Exception):
    """Base class for every error this package raises on bad input."""


class NotSquare(DegmapError):
    pass


class SymmetryMismatch(DegmapError):
    pass


class NotUnimodular(DegmapError):
    """The matrix has |det| != 1, so it cannot be a closed-manifold pairing."""


class AntisymmetricInput(DegmapError):
    pass


class CapExceeded(DegmapError):
    """A complete definite enumeration was requested above the supported rank."""


class UnknownPreset(DegmapError):
    pass


class InvalidManifold(DegmapError):
    pass


class DimensionMismatch(DegmapError):
    pass


class ModelMismatch(DegmapError):
    pass


class ShapeMismatch(DegmapError):
    pass


class OddN(DegmapError):
    pass


class NonIntegralHopf(DegmapError):
    """The infinite-order coefficient does not scale to an integer Hopf invariant."""


class UsageError(DegmapError):
    """The command line names no subcommand, or a flag or value it does not take."""


class ZeroK(DegmapError):
    pass


class ConditionNotMet(DegmapError):
    """The requested degree fails the multiplicity condition for self-maps."""


class NotApplicable(DegmapError):
    """The query asks for a sufficiency claim outside the supported hypotheses."""


class WitnessRejected(DegmapError):
    """Internal consistency failure: a claimed witness does not verify."""
