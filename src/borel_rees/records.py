"""Value semantics for plain classes, without generated code.

A class declares its fields once, in _fields, in constructor order, and
Record's one __init__ takes them: positionally or by keyword, each field
at most once. A field left out is filled from _defaults, which maps a
field to a zero-argument factory (int, bool, list) called once per
instance, so two instances never share a default list; a missing,
repeated or unknown field is a TypeError. The constructor writes through
object.__setattr__, so it serves Frozen classes too. __signature__ lists
the fields for inspect.signature and help(), defaults shown as their
factories' values; it imports inspect only when asked, and is None for a
class with its own __init__. Those are the classes whose constructor does
more than store: StronglyStableIdeal sorts its generators, Monomial and
PresMonomial normalize their input, MarkedBinomial checks its rule, and
PresVar (with its precomputed keys) and MixedMonomial write hot slots
through their own setters.

Record compares two instances of one class on the tuple of those fields
and reprs them in the familiar Name(field=value, ...) format, leaving out
the fields named in _hidden; a Record is mutable and unhashable. Frozen is
the package's one immutable value: it adds the hash of the field tuple,
refuses assignment and deletion with AttributeError, and pickles and
copies through its constructor, called with the field tuple. A hand-written
__init__ on a Frozen therefore writes through object.__setattr__ or a
slot's own setter. A subclass may override __eq__, __hash__ and __repr__
(the monomials do, on hot paths), never the guard or the pickle. A
functools.cached_property (which writes the instance __dict__ directly)
still works on a Frozen, and is rebuilt after unpickling, not pickled.
"""

from __future__ import annotations


class _FieldSignature:
    def __get__(self, instance, owner):
        if owner.__init__ is not Record.__init__:
            return None
        from inspect import Parameter, Signature

        defaults = owner._defaults
        return Signature([
            Parameter(name, Parameter.POSITIONAL_OR_KEYWORD,
                      default=defaults[name]() if name in defaults
                      else Parameter.empty)
            for name in owner._fields])


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _hidden: tuple[str, ...] = ()
    _defaults: dict = {}
    __signature__ = _FieldSignature()

    def __init__(self, *args, **kwargs):
        fields, name = self._fields, self.__class__.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields, "
                            f"got {len(args)} positional values")
        values = dict(zip(fields, args))
        for field, value in kwargs.items():
            if field in values:
                raise TypeError(f"{name}() got field {field!r} twice")
            if field not in fields:
                raise TypeError(f"{name}() has no field {field!r}")
            values[field] = value
        defaults = self._defaults
        for field in fields:
            if field in values:
                value = values[field]
            elif field in defaults:
                value = defaults[field]()
            else:
                raise TypeError(f"{name}() missing field {field!r}")
            object.__setattr__(self, field, value)

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
