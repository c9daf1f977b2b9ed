"""Exception types shared across the package."""

import math


class PhaseprojError(Exception):
    """Base class for all package errors."""


class ValidationError(PhaseprojError):
    """Invalid construction input: bad cubes, partitions or configs."""


class ResolutionError(PhaseprojError):
    """Grid too coarse for the requested construction.

    Carries the minimal per-axis sample count that would satisfy the
    violated requirement, when that is computable.
    """

    def __init__(self, message, required_samples=None):
        super().__init__(message)
        self.required_samples = required_samples

    @classmethod
    def needing(cls, message, samples):
        """The error for a grid that needs `samples` points per axis,
        rounded up to a power of two; the message ends with that count."""
        need = 1 << (max(math.ceil(samples), 1) - 1).bit_length()
        return cls(f"{message}; need at least N={need}", required_samples=need)


class InternalConsistencyError(PhaseprojError):
    """A derived structure failed a property that holds by construction.

    Raised only by self-checks; seeing one means an indexing or
    rasterization bug, not bad user input.
    """
