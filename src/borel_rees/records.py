"""Value semantics for plain classes, without generated code.

A class lists its fields in _fields, in constructor order, and writes its
own __init__. Record compares two instances of one class on the tuple of
those fields and reprs them in the familiar Name(field=value, ...) format,
leaving out the fields named in _hidden; a Record is mutable and
unhashable. Frozen is the package's one immutable value: it adds the hash
of the field tuple, refuses assignment and deletion with AttributeError,
and pickles and copies through its constructor, called with the field
tuple. Its __init__ therefore writes through object.__setattr__ or a
slot's own setter. A subclass may override __eq__, __hash__ and __repr__
(the monomials do, on hot paths), never the guard or the pickle. A
functools.cached_property (which writes the instance __dict__ directly)
still works on a Frozen, and is rebuilt after unpickling, not pickled.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _hidden: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._fields if name not in self._hidden)
        return f"{self.__class__.__qualname__}({shown})"


class Frozen(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
