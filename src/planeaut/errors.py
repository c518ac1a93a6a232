"""Exception types shared across the library.

Domain failures (poles, non-invertible maps, missing roots) get their own
classes so callers and the CLI can map them to exit codes without string
matching.
"""


class PlaneAutError(Exception):
    """Base class for all domain errors raised by this package."""


class RingMismatchError(PlaneAutError):
    """Operands live over different coefficient rings."""


class ArityMismatchError(PlaneAutError):
    """Operands have different numbers of variables or components."""


class ParseError(PlaneAutError):
    """Rejected input text; carries the offending position."""

    def __init__(self, message: str, pos: int | None = None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)


class PoleAtZeroError(PlaneAutError):
    """Evaluation at t = 0 requested for an object with a pole there."""

    def __init__(self, message: str = "pole at t = 0", valuation=None):
        self.valuation = valuation
        super().__init__(message)


class NoPoleError(PlaneAutError):
    """An operation that needs a pole at t = 0 got a pole-free family."""


class FieldExtensionRequiredError(PlaneAutError):
    """The answer exists only after a field extension of the base field."""


class NotInvertibleError(PlaneAutError):
    """Map is not invertible over the coefficient ring in use."""


class NonUnitError(NotInvertibleError):
    """Division by a non-unit of K[t, 1/t]; a family's descent can stop on
    this alone while its inverse exists over K[t, 1/t]."""


class NotSpecialError(PlaneAutError):
    """Operation requires Jacobian determinant exactly 1."""


class NotAlgebraicError(PlaneAutError):
    """Operation requires an algebraic element (bounded degree growth)."""


class NoIndeterminacyError(PlaneAutError):
    """Degree-1 maps have no indeterminacy at infinity."""


class UnsupportedFieldError(PlaneAutError):
    """Operation not defined over the given coefficient field."""
