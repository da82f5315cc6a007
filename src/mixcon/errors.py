"""Error taxonomy shared across the package.

Two failure families are distinguished so callers (and the CLI) can map
them to distinct exit codes: bad inputs or configuration on one side,
numerical breakdown at runtime on the other.
"""

import math


class InputError(ValueError):
    """A caller-supplied value violates a documented precondition."""


class NumericError(ArithmeticError):
    """A computation produced or encountered a non-finite value."""


def check_ints(what: str, *values) -> None:
    """Raise InputError unless every value is an int; a bool or a float
    with an integral value is not one."""
    for value in values:
        if type(value) is not int:
            raise InputError(f"{what} must be of type int, not {value!r}")


def check_floats(what: str, *values) -> None:
    """Raise InputError unless every value is a finite real number; a bool,
    which JSON ``true`` and ``false`` load as, is not one, and neither is
    the NaN or infinity that JSON ``NaN`` and ``Infinity`` load as."""
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InputError(f"{what} must be a number, not {value!r}")
        if not math.isfinite(value):
            raise InputError(f"{what} must be finite, not {value!r}")
