"""Constructions remembered on the immutable object they are built from.

Where a class and a construction on it share a module, the class holds
the construction in a ``cached_property``.  ``remember`` serves the
constructions that live in a later module than their class, and the
tables a validator has already computed for the object it returns (it
hands them over with ``build`` returning the table): the value is kept
in the object's ``__dict__`` beside the ``cached_property`` values, so
the dataclass fields, equality and hashing are untouched and no object
is ever hashed to find its value.  `topology.pair_atoms`, which depends
on a subset as well as on the space, keeps its table, for the last
subset asked for, as an attribute of the space in the same way.
"""

from __future__ import annotations

import weakref


def remember(obj, name, build, weak=False):
    """``build(obj)``, computed once per object and kept under ``name``.

    With ``weak`` the object holds only a weak reference: the value is
    shared while something else holds it and is rebuilt after it has
    been collected.  A weak reference does not pickle, so a class that
    remembers weakly leaves such entries out of its pickled state.
    """
    held = obj.__dict__.get(name)
    value = held() if weak and held is not None else held
    if value is None:
        value = build(obj)
        obj.__dict__[name] = weakref.ref(value) if weak else value
    return value
