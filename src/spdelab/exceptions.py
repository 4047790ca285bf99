"""Exception taxonomy shared across the package: one class per non-zero exit
code of the command line, whose message names the guard that fired."""


class SpdeLabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(SpdeLabError, ValueError):
    """A refused request (exit 1): an argument outside the documented domain,
    a memory guard, too few data points or a zero reference."""


class NumericalError(SpdeLabError):
    """A failed factorization or solve (exit 2)."""


class StatisticalAlarm(SpdeLabError):
    """A Monte Carlo check flagged an inequality-violation candidate (exit 3).

    Raised only after the automatic rerun at increased sample size also
    produced a degenerate estimate.
    """
