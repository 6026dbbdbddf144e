"""Constructions kept on the immutable object they are built from.

One mechanism: a value is set on the frozen object as an attribute,
with ``object.__setattr__``, so the dataclass fields, equality, hashing
and repr are untouched and no object is hashed to find its value.
``once`` keeps a method's value under its own name, ``remember`` a
construction of a later module than its class, and ``once.keep`` a
value already built (a validator's tables, `topology.pair_atoms`; the
pair set a kernel was built from, `RelationKernel.of_pairs`).

Not ``functools.cached_property``: on Python 3.11 it takes a lock on
every first read, and it writes into the instance dictionary, building
one that the object otherwise does without.  No lock is taken here: a
kept value is a pure function of its object, so a race only computes
it twice.
"""

from __future__ import annotations

import weakref


class once:
    """A method whose value is computed on the first read and kept as an
    attribute, which shadows this non-data descriptor from then on.
    ``func`` is the method, as on ``cached_property``; the value is kept
    under ``name``, the method's own name unless given."""

    def __init__(self, func, name=None):
        self.func = func
        self.name = name or func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.func(obj)
        object.__setattr__(obj, self.name, value)
        return value

    @staticmethod
    def keep(obj, name, value):
        """Keep ``value`` on ``obj`` under ``name``, replacing any there."""
        object.__setattr__(obj, name, value)


def remember(obj, name, build, weak=False):
    """``build(obj)``, computed once per object and kept under ``name``.

    With ``weak`` the object holds only a weak reference: the value is
    shared while something else holds it and is rebuilt after it has
    been collected.  A weak reference does not pickle, so a class that
    remembers weakly leaves such entries out of its pickled state.
    """
    held = getattr(obj, name, None)
    value = held() if weak and held is not None else held
    if value is None:
        value = build(obj)
        once.keep(obj, name, weakref.ref(value) if weak else value)
    return value
