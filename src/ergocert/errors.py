"""Semantic exception hierarchy.

Certificates computed from invalid constants are meaningless, so domain
violations raise typed errors instead of clamping or returning NaN.
"""


class ErgoCertError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParams(ErgoCertError, ValueError):
    """Inputs violate a documented contract (domain, ordering, shape)."""


class NoSignChange(ErgoCertError):
    """Root bracket does not straddle the target value."""


class NoConvergence(ErgoCertError):
    """Iteration budget exhausted before the requested tolerance was met."""


class EmptyDomain(ErgoCertError):
    """Search interval is empty (hi <= lo)."""


class OutOfRange(ErgoCertError):
    """Scalar argument lies outside the region where a formula is finite."""


class GammaOutOfRange(OutOfRange):
    """Decay factor gamma must lie strictly between rho and 1."""


class CouplingFails(ErgoCertError):
    """Bivariate drift rate lambda_1 >= 1; the small set must be enlarged."""


class MonotoneViolation(InvalidParams):
    """Drift rate >= 1; the supplied tuning gives no geometric drift."""


class TruncationTooSmall(ErgoCertError):
    """Finite truncation leaves more stationary tail mass than allowed."""


class PeriodicSupport(InvalidParams):
    """Increment distribution has gcd(support) > 1; no limit exists."""


class HypothesisViolated(ErgoCertError):
    """Increment distribution fails the (beta, R, L) assumptions."""
