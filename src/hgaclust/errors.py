"""Exception hierarchy.

The package's own errors are two, both subclasses of HgaClustError, one
for each failing CLI exit status: InputError (bad files, bad data or bad
flag values, exit code 2) and ContractError (API misuse or broken
internal contracts, exit code 3). The message tells the cases apart.
"""


class HgaClustError(Exception):
    """Base class for all errors raised by this package."""


class InputError(HgaClustError):
    """Problem with user-supplied data or configuration."""


class ContractError(HgaClustError):
    """A precondition or internal invariant was violated."""
