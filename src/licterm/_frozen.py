"""Base class of the package's immutable value types that are not named tuples.

A subclass lists its fields in ``_fields`` and sets them in its own
``__init__``, with ``object.__setattr__`` where the class has slots and
into ``vars(self)`` where it needs a ``__dict__`` for a cached property.
Instances of one class compare
equal when their fields are equal, hash as the tuple of their fields,
print as ``Name(field=value, ...)`` and refuse attribute assignment.
Written out here, this costs no start-up; generating the same methods
with the standard library's class decorator would import ``inspect``
and compile each class's methods at import, several milliseconds of
every command's start-up.
"""

from __future__ import annotations


class Frozen:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # The fields are the constructor's positional parameters, in order.
        return type(self), self._values()
