"""Error taxonomy.

Every failure mode that callers are expected to catch has its own class; all
inherit from :class:`WachdeformError`.  Errors carry enough context (order,
valuation, cap) to reproduce the failing step.
"""
from __future__ import annotations

__all__ = [
    "WachdeformError",
    "ParamMismatch",
    "DivisionByNonUnit",
    "ZeroInput",
    "RamifiedUnsupported",
    "OutOfConvergenceDomain",
    "InexactDivision",
    "SeedSingular",
    "PrecisionExhausted",
    "MalformedFile",
    "VersionMismatch",
    "NotAGenerator",
    "ValuationFloorUnreachable",
    "DefectNotDivisible",
    "NeumannDivergence",
    "BoundViolated",
    "PreconditionFails",
    "DomainError",
    "NonpositiveValuation",
    "NormViolation",
]


class WachdeformError(Exception):
    """Base class for all library errors."""


# --- element arithmetic -----------------------------------------------------

class ParamMismatch(WachdeformError):
    """Operands live over different base rings (p, e, or precision model)."""


class DivisionByNonUnit(WachdeformError):
    """Division requested by an element of positive (or unknown) valuation."""


class ZeroInput(WachdeformError):
    """Operation undefined on (something indistinguishable from) zero."""


class RamifiedUnsupported(WachdeformError):
    """Operation only implemented for the unramified case e = 1."""


class OutOfConvergenceDomain(WachdeformError):
    """Series argument outside its disc of convergence."""


class InexactDivision(WachdeformError):
    """Internal: a division that theory promises to be exact left a remainder
    at working precision.  Surfacing one of these means either a precision
    bug or a genuinely non-integral quantity."""


# --- module construction / verification -------------------------------------

class SeedSingular(WachdeformError):
    """Order-by-order seed solve hit a non-invertible linear system.

    Attributes
    ----------
    order : the x-degree at which the solve failed.
    """

    def __init__(self, order: int, message: str = ""):
        self.order = order
        super().__init__(message or f"seed solve singular at x-order {order}")


class PrecisionExhausted(WachdeformError):
    """Working precision no longer suffices to support any verdict."""


class MalformedFile(WachdeformError):
    """Persisted module data failed structural validation."""


class VersionMismatch(WachdeformError):
    """Persisted module data has an unsupported format version."""


# --- deformation ------------------------------------------------------------

class NotAGenerator(WachdeformError):
    """Chosen chi(gamma) does not topologically generate 1 + pZ_p times the
    Teichmuller part (fails mod p or mod p^2 test)."""


class ValuationFloorUnreachable(WachdeformError):
    """A computed quantity misses the valuation floor the theory demands."""


class DefectNotDivisible(WachdeformError):
    """Commutation defect is not divisible by x^k as required."""


class NeumannDivergence(WachdeformError):
    """Fixed-point iteration for a corrector term failed to contract."""


class BoundViolated(WachdeformError):
    """Requested perturbation is larger than the certified-congruence bound
    allows; refusal, not failure."""


class PreconditionFails(WachdeformError):
    """Inputs violate a stated precondition (e.g. m < alpha(k-1))."""


# --- characters / analytic side ---------------------------------------------

class DomainError(WachdeformError):
    """Argument outside the domain of a p-adic character or power map."""


class NonpositiveValuation(WachdeformError):
    """Scaling radius or exponent must be positive."""


class NormViolation(WachdeformError):
    """Coefficient sequence violates the sup-norm bound it must satisfy."""
