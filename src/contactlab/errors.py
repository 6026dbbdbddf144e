"""Exception types shared across the package."""


class ContactLabError(Exception):
    """Base class for all package errors."""


class CapacityError(ContactLabError):
    """A size budget (atom width, point budget, enumeration width) was exceeded."""


class DomainMismatchError(ContactLabError):
    """Operands live in different algebras/spaces, or an index is out of range."""


class AxiomViolationError(ContactLabError):
    """A relation or family violates a required axiom.

    Carries the axiom tag and, when available, a concrete witness.
    """

    def __init__(self, axiom, witness=None):
        self.axiom = axiom
        self.witness = witness
        if witness is None:
            super().__init__(f"axiom {axiom} violated")
        else:
            super().__init__(f"axiom {axiom} violated, witness {witness!r}")


class PreconditionError(ContactLabError):
    """An operation precondition does not hold."""


class ValidationError(ContactLabError):
    """An invalid composite structure was used where a valid one is required."""


class InternalError(ContactLabError):
    """An internal invariant of the package failed: a bug, not bad input."""


class SchemaError(ContactLabError):
    """A serialized instance does not match its schema."""

    def __init__(self, message, location="$"):
        self.location = location
        super().__init__(f"{location}: {message}")
