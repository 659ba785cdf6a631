"""Exception types raised across the package.

Every exception derives from EpcagError so callers can catch the whole
family at the CLI boundary and map it to a nonzero exit code.
"""


class EpcagError(Exception):
    pass


# linear core

class NonFiniteError(EpcagError):
    pass


class OverflowRiskError(EpcagError):
    pass


class NotHurwitzError(EpcagError):
    pass


class HorizonTooShortError(EpcagError):
    pass


class EnvelopeRequiredError(EpcagError):
    # raised when the matrix is too large for eigenvalue-based estimation
    pass


# schedule

class BadFractionError(EpcagError):
    pass


class BadStepError(EpcagError):
    pass


# discrete driver

class OutOfDomainError(EpcagError):
    pass


class OutOfRangeError(EpcagError):
    pass


class BranchEscapeError(EpcagError):
    pass


class NoConvergenceError(EpcagError):
    pass


class RangeMismatchError(EpcagError):
    pass


class OrbitCoverageError(EpcagError):
    # a solve window needs driver values outside the stored range and the
    # orbit declares no limit to extend with
    pass


# system assembly and solver

class ContractViolatedError(EpcagError):
    pass


class DimensionMismatchError(EpcagError):
    pass


class AssumptionFailureError(EpcagError):
    pass


class InnerDivergenceError(EpcagError):
    pass


# asymptotics

class GridMismatchError(EpcagError):
    pass


class DegenerateTailError(EpcagError):
    pass


class PremiseFailureError(EpcagError):
    pass


# config / output

class ParseError(EpcagError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(EpcagError):
    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class IoError(EpcagError):
    pass
