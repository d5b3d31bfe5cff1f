"""Frozen value records over `__slots__`, with no code generated at import.

A record class names its fields, in constructor order, as the public names of
its `__slots__`; private slots, and a `__dict__` slot where
`functools.cached_property` needs one, hold derived state that is not a field.
`Record` supplies what a frozen dataclass would:

* one shared constructor binds the fields in order, positionally or by name,
  and raises TypeError, naming the class, for an unknown, repeated, missing or
  extra field; a class that checks or converts its arguments, or gives a field
  a default, does so in its own `__init__` and ends with
  `super().__init__(...)`; private slots are set by the class itself;
* assigning or deleting an attribute raises AttributeError;
* two instances of one class are equal when their tuples of field values are,
  and an instance hashes as that tuple (so a record holding an array or a
  list is unhashable); `class C(Record, eq=False)` keeps identity equality
  and hashing instead;
* the repr reads `Name(field=value, ...)`;
* `copy` and `pickle` restore the slots without assigning to them.

A class may instead declare `_fields` itself, to name a derived field that is
not a slot: a `functools.cached_property` of that name forms the value from
private state on its first read, and the constructor, which stores the field
in the instance `__dict__`, takes the property's place for that instance.  A
class that builds an instance without the field's value sets its other
fields through `Record.__setstate__(instance, (None, {name: value, ...}))`.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    """Base of the package's immutable value classes; see the module docstring."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        if not eq:
            cls.__eq__ = object.__eq__
            cls.__hash__ = object.__hash__

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for name, value in zip(self._fields, args):
            object.__setattr__(self, name, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values in order, from a call that is not one value per field."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__qualname__}() takes {len(fields)} fields, got {len(args)}")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{cls.__qualname__}() has no field {name!r}")
            if name in values:
                raise TypeError(f"{cls.__qualname__}() got field {name!r} twice")
            values[name] = value
        missing = [name for name in fields if name not in values]
        if missing:
            raise TypeError(f"{cls.__qualname__}() missing field(s) {', '.join(map(repr, missing))}")
        return tuple(values[name] for name in fields)

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
