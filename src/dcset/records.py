"""Frozen value records over `__slots__`, with no code generated at import.

A record class names its fields, in constructor order, as the public names of
its `__slots__`; private slots, and a `__dict__` slot where
`functools.cached_property` needs one, hold derived state that is not a field.
Constructors set slots through `object.__setattr__`.  `Record` supplies what a
frozen dataclass would:

* assigning or deleting an attribute raises AttributeError;
* two instances of one class are equal when their tuples of field values are,
  and an instance hashes as that tuple (so a record holding an array or a
  list is unhashable); `class C(Record, eq=False)` keeps identity equality
  and hashing instead;
* the repr reads `Name(field=value, ...)`;
* `copy` and `pickle` restore the slots without assigning to them.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    """Base of the package's immutable value classes; see the module docstring."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        if not eq:
            cls.__eq__ = object.__eq__
            cls.__hash__ = object.__hash__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setstate__(self, state) -> None:
        # object.__getstate__ gives (__dict__ or None, slot values) for slots.
        inst, slots = state
        for name, value in slots.items():
            object.__setattr__(self, name, value)
        if inst:
            self.__dict__.update(inst)
