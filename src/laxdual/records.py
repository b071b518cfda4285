"""Plain records, without `dataclasses`.

Importing `dataclasses` loads `inspect`, `ast`, `dis` and `tokenize`, about
a third of what every command-line run spent importing the package.  A record
names its fields in `__slots__`, in constructor order, and writes its own
`__init__`; these bases derive equality and repr from the slots.  A record
equals only a record of its own class, never a tuple.  No record is hashable
(defining `__eq__` sets `__hash__` to None), and none defines copying or
pickling.
"""


class Record:
    """A mutable record: equal by field values, unhashable."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class FrozenRecord(Record):
    """An immutable record; `__init__` sets each field once with
    `object.__setattr__`."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of immutable {type(self).__name__}")
