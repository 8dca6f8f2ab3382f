"""Exception types shared across the library."""


class GxstplcError(Exception):
    """Base class for all library-specific failures."""


class DuplicateNodes(GxstplcError):
    """Evaluation points that must be distinct collide."""


class ScaleExceeded(GxstplcError):
    """An exhaustive procedure was asked to enumerate too large a space."""


class DegeneratePattern(GxstplcError):
    """A storage pattern cannot support the requested thresholds."""


class DegenerateInput(GxstplcError):
    """Augmentation was given a degenerate capacity result, or a round a
    negative seed."""


class DegenerateConfig(GxstplcError):
    """A scheme configuration admits no retrievable message symbols."""


class FieldTooSmall(GxstplcError):
    """The requested field cannot hold enough distinct evaluation points."""


class DimensionMismatch(GxstplcError):
    """Banks or vectors disagree with the configuration's shapes."""


class UnknownDemo(GxstplcError):
    """No built-in demo is registered under the requested name."""


class MalformedPattern(GxstplcError, ValueError):
    """A pattern document has the wrong structure or a non-integer entry."""


class InvariantViolation(GxstplcError):
    """An identity the construction guarantees failed to hold."""
