"""Error taxonomy shared across the package.

Two failure families are distinguished so callers (and the CLI) can map
them to distinct exit codes: bad inputs or configuration on one side,
numerical breakdown at runtime on the other.
"""


class InputError(ValueError):
    """A caller-supplied value violates a documented precondition."""


class NumericError(ArithmeticError):
    """A computation produced or encountered a non-finite value."""
