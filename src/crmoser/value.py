"""The base of the slotted value types: equality, hash and repr over their fields.

A value type lists its fields in `__slots__`, in constructor order, and its
own `__init__` checks the arguments and stores them with `_fill`.  A
`Frozen` type refuses every later assignment or deletion, as `Poly` and
`HermitianForm` refuse assignment, and hashes by its fields; a plain
`Value` is mutable and unhashable.
"""

from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls):
        if cls.__slots__:  # once per value type: its slots' setters and a reader of its fields
            cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)
            cls._fields = attrgetter(*cls.__slots__)

    def _fill(self, *values) -> None:
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Frozen(Value):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __hash__(self):
        return hash(self._fields(self))
