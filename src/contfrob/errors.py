"""Exception types shared across the toolkit."""


class ContfrobError(Exception):
    """Base class for all toolkit errors."""


class EvalDomainError(ContfrobError):
    """A field or modulus was evaluated outside its valid domain."""


class ParseError(ContfrobError):
    """Malformed expression, modulus record, or config text."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class SingularIntegrandError(ContfrobError):
    """Quadrature integrand hit a zero of the modulus at an interior point."""


class InsufficientDataError(ContfrobError):
    """Too few samples to populate an estimation bucket."""


class ResolutionError(ContfrobError):
    """Grid too coarse for the requested smoothing scale."""


class MarginError(ContfrobError):
    """Smoothing scale too large for the domain extent."""


class TransversalityError(ContfrobError):
    """Frame not transverse to the vertical subspace at a point."""


class EscapeError(ContfrobError):
    """Trajectory left the domain box before the requested time."""

    def __init__(self, message, exit_time=None):
        super().__init__(message)
        self.exit_time = exit_time
        self.node = None


class ConeError(ContfrobError):
    """Transported plane field lost transversality to the expanding cone."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class BranchCrossingError(ContfrobError):
    """Separable solve would cross a zero of G and leave its branch."""


class DegenerateSubspaceError(ContfrobError):
    """Sampled subspace basis is rank-deficient."""


class RangeError(ContfrobError, ValueError):
    """A numeric parameter lies outside the range its construction needs."""


class StepCountError(ContfrobError):
    """An iteration count (k, k_max) is outside its valid range."""
