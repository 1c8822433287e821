"""Exception types shared across the package, and the base classes that
give its record classes their value semantics."""

import operator


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
        from .sequences import _int_text  # here, as sequences imports this module
        self.required = required
        self.limit = limit
        text = _int_text(required)  # a refused count may pass str(int)'s 4300-digit cap
        super().__init__(f"needs {text} {what} but the budget allows {limit}; "
                         f"rerun with max_subsets >= {text}")


class BfileParseError(ValueError):
    """A sequence file line could not be parsed; carries the 1-based line number."""

    def __init__(self, line_number: int, line: str, reason: str):
        self.line_number = line_number
        self.line = line
        super().__init__(f"line {line_number}: {reason}: {line!r}")


class EmptyOverlapError(ValueError):
    """A sequence comparison found no shared indices to compare."""


def _frozen_error(message: str) -> Exception:
    # dataclasses pulls in inspect and ast: import it on this failing call only
    from dataclasses import FrozenInstanceError
    return FrozenInstanceError(message)


class Record:
    """Value semantics for a record class, as a dataclass gives them,
    without importing dataclasses at start-up.

    A subclass names in _fields the fields that equality compares, and in
    _shown the fields that its repr prints, when these differ.  Records are
    equal when they are of the same class and their compared fields are,
    and print as ``Class(field=value, ...)``.  A Record is unhashable;
    a FrozenRecord is hashable and immutable.
    """

    _fields: tuple[str, ...] = ()
    _shown: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        if "_fields" in vars(cls):
            # record -> the tuple of its compared fields, read in C
            get = operator.attrgetter(*cls._fields)
            cls._key = staticmethod(get if len(cls._fields) > 1 else lambda record: (get(record),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __repr__(self) -> str:
        return "{}({})".format(type(self).__qualname__, ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._shown or self._fields))


class FrozenRecord(Record):
    """A Record that hashes as the tuple of its compared fields, and whose
    attributes, once its __init__ has set them with object.__setattr__,
    cannot be assigned or deleted: that raises
    dataclasses.FrozenInstanceError, as a frozen dataclass does."""

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise _frozen_error(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise _frozen_error(f"cannot delete field {name!r}")
