"""Exception types shared across the library, and the one work budget that
evaluation steps and randomized trials are charged to (``charge``)."""


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


# Steps of about 1 us a command may charge, so a few seconds: hat_f, the unit
# path and the lemma suite ran at 0.5-2.7 us an evaluation step, most near
# 1 us, and trials are priced in us (2-vCPU x86-64 VM, Python 3.11).
WORK_BUDGET = 2**22


def charge(spent: int, source: str, work: str) -> int:
    """TooLarge, naming the source and its work, if spent passes WORK_BUDGET;
    returns spent, so a caller can keep a running sum."""
    if spent > WORK_BUDGET:
        raise TooLarge(
            f"{source}: {work}, more than the work budget of {WORK_BUDGET} steps of about 1 us"
        )
    return spent


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
