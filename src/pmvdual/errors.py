"""Shared exception types, and the key and integer checks of the input
boundary."""


class InvalidElementError(ValueError):
    """An element numerator is outside the chain's range."""


class AxiomViolationError(ValueError):
    """An operation table violates a required axiom.

    Carries the axiom name and a witnessing tuple of elements.
    """

    def __init__(self, axiom, witness):
        super().__init__(f"axiom violated: {axiom}, witness {witness}")
        self.axiom = axiom
        self.witness = witness


class SizeLimitError(ValueError):
    """An exhaustive scan was requested beyond its supported size."""


class BudgetExceededError(RuntimeError):
    """A search exceeded its node budget."""

    def __init__(self, budget):
        super().__init__(f"search budget exceeded (budget = {budget})")
        self.budget = budget


class NotASubalgebraError(ValueError):
    """A pair set is not a subalgebra of the square."""


class MalformedSequenceError(ValueError):
    """A candidate sequence violates the monotonicity or bound constraints."""


class WrongSignatureError(ValueError):
    """A structured space does not carry the relation names expected for its n."""


class NonMemberError(ValueError):
    """A structured space fails the separation-based membership test."""


class MalformedInputError(ValueError):
    """Input data does not have the shape of a space or an algebra."""


def as_int(value, what: str) -> int:
    """value if it is a JSON integer (not a boolean, not a fraction),
    else MalformedInputError naming what value should be."""
    if type(value) is not int:
        raise MalformedInputError(
            f"{what} must be an integer, got {value!r}")
    return value


def require_keys(data: dict, keys, what: str) -> None:
    """MalformedInputError naming the first of keys that data lacks."""
    for key in keys:
        if key not in data:
            raise MalformedInputError(f"{what} must have the key {key!r}")


class InternalConsistencyError(RuntimeError):
    """A value that the duality guarantees to exist could not be found."""
