"""Error types shared across the package, and its one integrality check.

Both inherit from ValueError so callers that do not care about the
distinction can catch a single class.  The CLI maps DomainError to
exit code 1 and CapacityError to exit code 1 as well, reserving 2
for argument parsing problems.
"""


class DomainError(ValueError):
    """Input violates a documented precondition (bad value, not bad size)."""


class CapacityError(ValueError):
    """Input is valid but would exceed a configured resource bound."""


def exact_int(value) -> int:
    """``value`` as an int, or DomainError naming it unless it is integral:
    3, 3.0 and a numpy int64 pass, and 2.5 is refused, not truncated."""
    n = int(value)
    if n != value:
        raise DomainError(f"not an integer: {value!r}")
    return n
