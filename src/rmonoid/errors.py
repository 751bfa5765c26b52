"""Exception types shared across the package."""

__all__ = [
    "RMonoidError", "SpecError", "CapExceeded", "NotRTrivial",
    "ConsistencyError", "StabilizationError",
]


class RMonoidError(Exception):
    """Base class for all package-specific errors."""


class SpecError(RMonoidError, ValueError):
    """Malformed input: bad JSON spec, bad table, bad transformation data."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")


class CapExceeded(RMonoidError, RuntimeError):
    """A monoid has more elements than the configured element cap."""

    def __init__(self, cap: int, partial_size: int):
        self.cap = cap
        self.partial_size = partial_size
        super().__init__(
            f"element cap of {cap} exceeded: at least {partial_size} elements"
        )


class NotRTrivial(RMonoidError, ValueError):
    """A construction that requires an R-trivial monoid was given one that is not.

    Carries a witness pair (x, y) of distinct elements with x <= y and y <= x.
    """

    def __init__(self, witness: tuple[int, int]):
        self.witness = witness
        super().__init__(
            f"monoid is not R-trivial: elements {witness[0]} and {witness[1]} "
            f"generate the same right ideal"
        )


class ConsistencyError(RMonoidError, RuntimeError):
    """An internal theorem check failed; indicates a bug or corrupted input."""


class StabilizationError(RMonoidError, RuntimeError):
    """Repeated powers of an algebra element never stabilized within the cap."""

    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"powers did not stabilize within {cap} steps")
