"""Exception hierarchy.

Three families, matching the CLI exit codes: bad user input (exit 2),
numerical failure (exit 3), and internal invariant violations (exit 4).
"""


class SubsetCIError(Exception):
    """Base class for all package errors."""


class InputError(SubsetCIError):
    """Caller-supplied data or arguments are invalid (CLI exit code 2)."""


class NumericalError(SubsetCIError):
    """A numerical precondition failed or a computation degenerated (exit 3)."""


class InvariantViolation(SubsetCIError):
    """An internal consistency check failed; indicates a bug (exit 4)."""


# ---- input errors ----------------------------------------------------------

class DimensionMismatch(InputError):
    pass


class IndexOutOfRange(InputError):
    pass


class IndexNotInModel(InputError):
    pass


class ZeroEta(InputError):
    pass


class InvalidRho(InputError):
    pass


class ParseError(InputError):
    def __init__(self, message, row=None, column=None):
        loc = ""
        if row is not None:
            loc += f" at row {row}"
        if column is not None:
            loc += f", column {column!r}"
        super().__init__(message + loc)
        self.row = row
        self.column = column


class IoError(InputError):
    pass


# ---- numerical errors ------------------------------------------------------

class RankDeficient(NumericalError):
    def __init__(self, message, model=None):
        if model is not None:
            message = f"{message} (model {model})"
        super().__init__(message)
        self.model = model


class NonPositiveRSS(NumericalError):
    def __init__(self, message, model=None):
        if model is not None:
            message = f"{message} (model {model})"
        super().__init__(message)
        self.model = model


class AICcDegenerate(NumericalError):
    pass


class NonPositiveDF(NumericalError):
    pass


class NotSelectedModel(NumericalError):
    pass


class ObservationOutsideRegion(NumericalError):
    pass


class RegionMassUnderflow(NumericalError):
    pass


class BracketFailure(NumericalError):
    pass
