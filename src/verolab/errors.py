"""Exception types shared across the package.

Every error raised by the library is a subclass of VerolabError, so callers
can catch one base type.  Names mirror the failure they signal.  Only
BudgetExceeded carries a payload: the quantity it refused, the needed and
the allowed counts, from which it writes its own message, and the check
it stopped (harness.run_check names it on the way out; None elsewhere).
It is raised by linalg.check_budget, the one budget gate, and nowhere
else.
"""


class VerolabError(Exception):
    """Base class for all verolab errors."""


class NonPrimeP(VerolabError, ValueError):
    """Field order is not a prime power, or p is not prime."""


class FieldMismatch(VerolabError, ValueError):
    """Operands belong to different fields."""


class DivisionByZero(VerolabError, ZeroDivisionError):
    """Division or inversion of the zero element."""


class InfiniteField(VerolabError, ValueError):
    """Enumeration requested over Q."""


class LengthMismatch(VerolabError, ValueError):
    """Vector length does not match the expected dimension."""


class AmbientMismatch(VerolabError, ValueError):
    """Subspaces live in different ambient spaces or fields."""


class BudgetExceeded(VerolabError, RuntimeError):
    """A count past its budget: needed of quantity against allowed (see linalg.check_budget)."""

    def __init__(self, quantity: str, needed: int | str, allowed: int) -> None:
        try:
            shown = f"{needed}"
        except ValueError:  # an int past the int-to-str conversion limit
            shown = f"2^{needed.bit_length() - 1} or more"
        super().__init__(f"{shown} {quantity} exceed budget {allowed}")
        self.quantity, self.needed, self.allowed = quantity, needed, allowed
        self.check: str | None = None


class BadCharacteristic(VerolabError, ValueError):
    """A required multinomial coefficient vanishes in the field."""


class DegreeMismatch(VerolabError, ValueError):
    """Polynomial degrees incompatible with the operation."""


class OddQForHyperoval(VerolabError, ValueError):
    """Hyperovals exist only in even characteristic."""


class SingularT(VerolabError, ValueError):
    """An invertible linear map was required."""


class UnknownCheck(VerolabError, KeyError):
    """Check id not present in the registry."""


class DuplicateMember(VerolabError, ValueError):
    """A subspace family was given two equal members."""


class BadParams(VerolabError, ValueError):
    """A search parameter lies outside its valid range."""
