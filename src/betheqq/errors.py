"""Exception types shared across the package."""

from __future__ import annotations


class BetheqqError(Exception):
    """Base class for all errors raised by this package."""


class InvalidCartanType(BetheqqError):
    """Family/rank combination outside the legal range."""


class UnsupportedType(BetheqqError):
    """Operation not defined for this Lie type (e.g. folding C_n or F_4)."""


class ZeroDenominator(BetheqqError):
    """A rational function was built with a zero denominator."""


class InconsistentSystem(BetheqqError, ValueError):
    """No polynomial q^-_i completes the given q^+ family for color i.

    Equivalent to failure of the Bethe equations at the roots of color i.
    """

    def __init__(self, color: int, message: str = ""):
        self.color = color
        super().__init__(message or f"no polynomial completion for color {color}")


class PoleCollision(BetheqqError):
    """A residual denominator vanishes (coincident roots or root on a singularity)."""


class NoConvergence(BetheqqError):
    """Iterations ran out before the residual tolerance was met."""


class SingularJacobian(BetheqqError):
    """Newton's direction is singular, too long or not finite."""


class BadPartition(BetheqqError, ValueError):
    """Root-assignment data or target twist unusable for infinite-system seeding."""


class PathCollision(BetheqqError):
    """Two tracked roots merged during continuation."""


class ChainBroken(BetheqqError):
    """A Backlund chain step failed; carries the partial trace."""

    def __init__(self, step: int, cause: Exception, trace=None):
        self.step = step
        self.cause = cause
        self.trace = trace
        super().__init__(f"chain broke at step {step}: {cause}")


class FactorizationFailed(BetheqqError):
    """Matrix not in the open Bruhat cell B+ w0 N+ (zero pivot met)."""


class ParseError(BetheqqError):
    """Malformed input file or scalar literal."""
