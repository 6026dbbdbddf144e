"""Size budgets, enforced explicitly.

Three independent caps are overridable through the environment:

* atom width (``CONTACTLAB_ATOM_LIMIT``, default 16) bounds plain algebra
  operations on bitmask elements;
* enumeration width (``CONTACTLAB_ENUM_LIMIT``, default 6) bounds anything
  that quantifies over the full 2**n carrier or materialises families;
* point budget (``CONTACTLAB_POINT_LIMIT``, default 12) bounds only the
  functions that return a whole family of sets of a finite space (all
  closed, open, clopen or regular closed sets, the clopens of a subspace
  and their closures); predicates, validators and the regular closed
  algebras, held by their atoms, are outside it.

A budget variable that is set must hold a positive integer; any other
value raises CapacityError instead of silently falling back.

The two fixed caps below bound the exhaustive morphism and permutation
searches and are not overridable.  Closed bases need no cap: they are
resolved point by point, in time polynomial in the base.
"""

import os

from .errors import CapacityError

ATOM_LIMIT_ENV = "CONTACTLAB_ATOM_LIMIT"
ENUM_LIMIT_ENV = "CONTACTLAB_ENUM_LIMIT"
POINT_LIMIT_ENV = "CONTACTLAB_POINT_LIMIT"

DEFAULT_ATOM_LIMIT = 16
DEFAULT_ENUM_LIMIT = 6
DEFAULT_POINT_LIMIT = 12

# point count above which PCS-morphism enumeration is refused
ENUMERATION_POINT_CAP = 6
# point or atom count above which permutation searches are refused
ISOMORPHISM_POINT_CAP = 8


def _read_limit(env_name, default):
    raw = os.environ.get(env_name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = None
    if value is None or value <= 0:
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
