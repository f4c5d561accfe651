"""Exception hierarchy.

Two families matter for the CLI exit status: InputError (bad files, bad
data or bad flag values, exit code 2) and ContractError (API misuse or
broken internal contracts, exit code 3).
"""


class HgaClustError(Exception):
    """Base class for all errors raised by this package."""


class InputError(HgaClustError):
    """Problem with user-supplied data or configuration."""


class MalformedInputError(InputError):
    """A CSV file that cannot be parsed; message names row and column."""


class SchemaError(InputError):
    """Columns or labels do not match the expected heart schema."""


class UnimputableError(InputError):
    """A column has no observed values to impute from."""


class InsufficientDataError(InputError):
    """Fewer rows than the operation needs."""


class ContractError(HgaClustError):
    """A precondition or internal invariant was violated."""


class DimensionError(ContractError):
    """Requested more components than the data has."""


class InfeasibleError(ContractError):
    """More clusters than points."""
