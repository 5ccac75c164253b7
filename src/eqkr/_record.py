"""Value semantics for the package's small slotted records.

A record names its fields in ``__slots__`` and writes its own
``__init__``; this base class supplies what the fields determine:
equality of the field tuple between records of one class, the repr
``Name(field=value, ...)`` and, for a frozen record, a hash of the field
tuple and refusal of assignment.  A mutable record is unhashable.
"""

from __future__ import annotations


class Record:
    """A mutable record: compares by its fields, unhashable."""

    __slots__ = ()
    __hash__ = None

    def _init(self, *values):
        """Set the fields, in ``__slots__`` order, from ``__init__`` (past
        the refusal of a frozen record)."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, since a frozen record
        # refuses the attribute-by-attribute restore of slotted state
        return self.__class__, self._fields()


class FrozenRecord(Record):
    """A record whose fields are set once, in ``__init__``; assignment
    after that raises AttributeError."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
