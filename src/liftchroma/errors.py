"""Exception hierarchy shared by all liftchroma modules."""


class LiftChromaError(Exception):
    """Base class for all errors raised by this package."""


class InvalidGraphError(LiftChromaError, ValueError):
    """A graph violates a structural invariant (loop, degree mismatch, size)."""


class TooLargeError(LiftChromaError):
    """An enumeration would exceed its configured cap."""


class BudgetExhaustedError(LiftChromaError):
    """A search ran out of its node budget.

    This signals "unknown", never a wrong answer; callers running sampling
    campaigns should record the instance as censored.
    """


class DivergentSeriesError(LiftChromaError, ValueError):
    """A series was requested outside its convergence region."""


class DomainError(LiftChromaError, ValueError):
    """Inputs violate a mathematical hypothesis of the requested formula."""


class DegenerateEdgeError(DomainError):
    """An edge's overlap normaliser vanished (fully correlated endpoints)."""


class UndefinedRatioError(LiftChromaError, ZeroDivisionError):
    """A ratio estimator's denominator summed to zero."""


class SingularHessianError(LiftChromaError):
    """The restricted Hessian determinant is zero or has the wrong sign."""


class InvalidConfigError(LiftChromaError, ValueError):
    """A campaign configuration failed validation."""
