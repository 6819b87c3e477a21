"""Bases of the package's value classes.

A value class names its fields in __slots__, in order, and sets them in
a hand-written __init__, through object.__setattr__ when it is frozen.
Value gives it == by class and fields, a repr of the fields, and no
hash; FrozenValue adds a hash of the fields and refuses assignment.  A
class compared on hot paths spells out __eq__ and __hash__ over its
field tuple, which is faster than the generic pair.  Plain classes keep
the standard library's generated ones out of start-up: that module
imports inspect, ast, dis and tokenize and compiles methods with exec.
"""

from fourfold.errors import FrozenField

__all__ = ["Value", "FrozenValue"]


class Value:
    __slots__ = ()

    def _fields(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        fields = ", ".join("%s=%r" % (name, getattr(self, name)) for name in self.__slots__)
        return "%s(%s)" % (type(self).__qualname__, fields)

    def __reduce__(self):
        # rebuilt through __init__, so copy and pickle assign no frozen field
        return type(self), self._fields()


class FrozenValue(Value):
    __slots__ = ()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise FrozenField("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise FrozenField("cannot delete field %r" % (name,))
