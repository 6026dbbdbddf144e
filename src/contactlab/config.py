"""Size budgets, enforced explicitly.

Three independent caps are overridable through the environment.  The
atom width bounds the size of an algebra, and each of the others only
what builds a whole family or passes over every element; the
validators, the axiom flags, the Stone report and the C-semiregularity
predicates are polynomial and read none of them, so they decide at any
width:

* atom width (``CONTACTLAB_ATOM_LIMIT``, default 16) bounds every
  `FiniteBooleanAlgebra`.  An algebra lists none of its 2**n elements,
  so the width bounds its n-row atom tables (kernel rows, atom maps)
  and, with them, the size of an input;
* enumeration width (``CONTACTLAB_ENUM_LIMIT``, default 6) bounds a
  raw element-level relation (its 4**n-pair input, checked against a
  2**n joins table), the element families of `boolean` and the clans
  of an algebra, the points of its dual;
* point budget (``CONTACTLAB_POINT_LIMIT``, default 12) bounds the
  functions that return a whole family of sets of a finite space (all
  regular closed sets, the clopens of a subspace and their closures)
  and the specialization line of the suite.

The command line reads all three before it dispatches.
A budget variable that is set must hold a positive integer written in
ASCII digits only; any other value, including one with blanks, a sign,
underscores or non-ASCII digits, raises CapacityError instead of
silently falling back.  Closed bases need no cap: they are resolved
point by point, in time polynomial in the base.
"""

import os

from .errors import CapacityError

ATOM_LIMIT_ENV = "CONTACTLAB_ATOM_LIMIT"
ENUM_LIMIT_ENV = "CONTACTLAB_ENUM_LIMIT"
POINT_LIMIT_ENV = "CONTACTLAB_POINT_LIMIT"

DEFAULT_ATOM_LIMIT = 16
DEFAULT_ENUM_LIMIT = 6
DEFAULT_POINT_LIMIT = 12


def _read_limit(env_name, default):
    raw = os.environ.get(env_name)
    if raw is None:
        return default
    # Only ASCII digits: int() alone would also take surrounding blanks,
    # a sign, underscores and non-ASCII digits.  It still refuses digit
    # strings longer than the interpreter's conversion limit.
    value = 0
    if raw.isascii() and raw.isdigit():
        try:
            value = int(raw)
        except ValueError:
            pass
    if value <= 0:
        raise CapacityError(f"{env_name}={raw!r} is not a positive integer")
    return value


def atom_limit():
    return _read_limit(ATOM_LIMIT_ENV, DEFAULT_ATOM_LIMIT)


def enum_limit():
    return _read_limit(ENUM_LIMIT_ENV, DEFAULT_ENUM_LIMIT)


def point_limit():
    return _read_limit(POINT_LIMIT_ENV, DEFAULT_POINT_LIMIT)


def require_atom_width(n):
    limit = atom_limit()
    if n > limit:
        raise CapacityError(f"{n} atoms exceeds the algebra width limit {limit}")


def require_enum_width(n):
    limit = enum_limit()
    if n > limit:
        raise CapacityError(f"{n} atoms exceeds the enumeration width limit {limit}")


def require_point_budget(n):
    limit = point_limit()
    if n > limit:
        raise CapacityError(f"{n} points exceeds the point budget {limit}")
