"""Immutable value types without `dataclasses`.

Each value type writes its own `__init__`, which checks and canonicalises
its arguments and sets every field once with `object.__setattr__`.  The
`value_type` decorator then adds equality, hash, repr and immutability on
the compared fields.  Frozen dataclasses would make every command import
`dataclasses` (with `inspect`, `ast`, `dis` and `tokenize`) and build each
class's methods from generated source at start-up.

Instances keep a `__dict__` (no `__slots__`), so `cached_property`,
`pickle` and `copy` work on them as on any plain object.
"""

from operator import attrgetter


def value_type(*fields):
    """Class decorator: instances are equal when they are of the same class
    and the named fields are equal, hash as the tuple of those fields (as a
    frozen dataclass does), show them in their repr, and refuse assignment
    and deletion of any attribute.  Fields that the class stores but does
    not name are left out of all three."""
    key = attrgetter(*fields)  # one name gives the bare value, not a 1-tuple

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    if len(fields) == 1:
        def __hash__(self):
            return hash((key(self),))
    else:
        def __hash__(self):
            return hash(key(self))

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def decorate(cls):
        cls.__eq__ = __eq__
        cls.__hash__ = __hash__
        cls.__repr__ = __repr__
        cls.__setattr__ = __setattr__
        cls.__delattr__ = __delattr__
        return cls

    return decorate
