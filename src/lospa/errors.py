"""Exception types raised by the lospa library."""


class LospaError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(LospaError):
    """Two objects that must share a dimension (state dim or target count) do not."""


class NonFiniteValue(LospaError):
    """A NaN or infinity was found where only finite reals are allowed."""


class CapExceeded(LospaError):
    """The brute-force solver was asked for more targets than its cap allows."""


class InvalidCost(LospaError):
    """A cost matrix entry is non-finite, or the matrix is not square."""


class DuplicateLabel(LospaError):
    """Two targets in one labelled set carry the same label."""


class LabelMismatch(LospaError):
    """A label lookup or a pair of labelled sets does not line up."""


class ParseError(LospaError):
    """A trajectory file could not be parsed; the message names the record."""


class InconsistentShape(LospaError):
    """Target count or state dimension varies where it must stay constant."""


class TimestepMismatch(LospaError):
    """Two trajectories do not cover the same time indices."""
