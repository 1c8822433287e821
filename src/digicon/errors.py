"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """A parameter is outside its documented domain."""


class NotConvexError(ValueError):
    """An operation required a digitally convex input set and got something else."""


class NotMemberError(ValueError):
    """A cyclic string is not in the block-constrained family it was claimed to be in."""


class NotImageError(ValueError):
    """A binary array is not a fixed image of the minimum transform."""


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed its budget.

    Carries the cap that would be required so callers can rerun with a
    larger budget.
    """

    def __init__(self, required: int, limit: int, what: str = "subsets"):
        self.required = required
        self.limit = limit
        super().__init__(
            f"needs {required} {what} but the budget allows {limit}; "
            f"rerun with max_subsets >= {required}"
        )


class BfileParseError(ValueError):
    """A sequence file line could not be parsed; carries the 1-based line number."""

    def __init__(self, line_number: int, line: str, reason: str):
        self.line_number = line_number
        self.line = line
        super().__init__(f"line {line_number}: {reason}: {line!r}")


class EmptyOverlapError(ValueError):
    """A sequence comparison found no shared indices to compare."""
