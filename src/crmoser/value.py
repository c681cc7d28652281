"""The base of the slotted value types: equality, hash and repr over their fields.

A value type lists its fields in `__slots__`, in constructor order, and its
own `__init__` checks the arguments and stores them with `_fill`; a dunder
slot such as `__weakref__` is not a field.  A hot constructor may call the
fields' setters `_setters` one by one instead.  A `Frozen` type refuses
every later assignment or deletion, and hashes by its fields; a plain
`Value` is mutable and unhashable.  The kernel's own types (`Poly`,
`Matrix`, `HermitianForm`, `GaussianRational`) are `Frozen` too, and keep
their own equality where it is not field by field.
"""

from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls):
        fields = [name for name in cls.__slots__ if not name.startswith("__")]
        if fields:  # once per value type: its fields' setters and a reader of its fields
            cls._setters = tuple(getattr(cls, name).__set__ for name in fields)
            cls._fields = attrgetter(*fields)

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
