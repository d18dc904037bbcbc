"""Exception hierarchy.

Every error carries a ``cli_code`` so the command line front end can map
failures onto its exit-code contract: 2 = bad input/config, 1 = a
mathematical expectation was refuted, 3 = a resource cap was exceeded.
"""


class SchemeForgeError(Exception):
    cli_code = 2


# --- bad input / configuration -------------------------------------------

class NotPrime(SchemeForgeError):
    pass


class DegreeZero(SchemeForgeError):
    pass


class InvalidElement(SchemeForgeError):
    pass


class NotCoprime(SchemeForgeError):
    pass


class NotADivisor(SchemeForgeError):
    pass


class IndexOutOfRange(SchemeForgeError):
    pass


class PartitionInvalid(SchemeForgeError):
    pass


class MalformedPartition(SchemeForgeError):
    pass


class EvenCharacteristic(SchemeForgeError):
    pass


class BadDiscriminant(SchemeForgeError):
    pass


class NoSolution(SchemeForgeError):
    """The (b, c) search came up empty: an index-2 precondition is violated."""


class PreconditionViolated(SchemeForgeError):
    pass


class TemplatePreconditionViolated(SchemeForgeError):
    pass


class ParseError(SchemeForgeError):
    pass


# --- mathematical refutations ---------------------------------------------

class NotAScheme(SchemeForgeError):
    cli_code = 1


class SingularP(SchemeForgeError):
    """A verified scheme produced a singular eigenmatrix: internal inconsistency."""
    cli_code = 1


class OrientationAmbiguous(SchemeForgeError):
    cli_code = 1


class NoOrbitMemberVerifies(SchemeForgeError):
    cli_code = 1


# --- resource caps ----------------------------------------------------------

class FieldTooLarge(SchemeForgeError):
    cli_code = 3


class TooLargeForOracle(SchemeForgeError):
    cli_code = 3


class BudgetExceeded(SchemeForgeError):
    cli_code = 3


BUDGET = 1 << 30  # bytes of any one stage's estimated working set


def check_budget(need: int, what: str) -> None:
    """BudgetExceeded, before the caller allocates, if ``need`` bytes exceed
    BUDGET; ``what`` is the subject and verb, "the closure search on Z_40 needs"."""
    if need > BUDGET:
        raise BudgetExceeded(f"{what} ~{need >> 20} MiB, over the "
                             f"{BUDGET >> 20} MiB budget")
