"""Exception types shared across the library."""


class RelcatError(Exception):
    """Base class for all library errors."""


class UsageError(RelcatError):
    """Malformed or out-of-range input; the CLI exits 2 on it and its subclasses."""


class NotPrime(UsageError):
    pass


class DegreeOutOfRange(UsageError):
    pass


class DivisionByZero(RelcatError):
    pass


class ShapeMismatch(RelcatError):
    pass


class TooLarge(RelcatError):
    """A feasibility guard was exceeded (desk-scale enumeration bound)."""


class ArityMismatch(UsageError):
    pass


class FieldMismatch(UsageError):
    pass


class NotRelInfty(RelcatError):
    pass


class UnknownGenerator(UsageError):
    pass


class InvalidPermutation(RelcatError):
    pass


class MissingUnit(RelcatError):
    """A unit-dependent map was requested from a structure without one."""


class RequiresEvaluation(UsageError):
    """A symbolic coefficient reached a context that needs a numeric value."""


class ParseError(UsageError):
    """Syntax error in a morphism expression; carries the source position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ScalarParseError(UsageError):
    pass
