"""Comparison estimates computed from the same one-step constants.

Two flavours are implemented:

  * the operator-theoretic route, represented through its key renewal
    functional zeta_C = sup_{|z|<=1} |(1-z) u(z)| (the published estimate
    ``mt_zeta`` and the sharpened ``mtb_zeta``); the constants needed to
    turn zeta_C into a rate have no closed form, so no rate is derived here;
  * the coupling route, whose rate follows from a bivariate drift condition
    with the inflated rate lambda_1 = lambda + b / (1 + min V off C).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import NU_NONE, split_exponents
from .errors import CouplingFails, InvalidParams

__all__ = ["CouplingInput", "mt_zeta", "mtb_zeta", "coupling_rho"]


@dataclass(frozen=True)
class CouplingInput:
    """Constants for the coupling-method rate.

    lam            univariate drift rate lambda,
    b              sup over C of PV - lambda V,
    v_min_outside  min{V(x) : x not in C},
    big_k          sup over C of PV (may exceed the value for a smaller C),
    beta_tilde     minorization constant on the (possibly enlarged) C.
    """

    lam: float
    b: float
    v_min_outside: float
    big_k: float
    beta_tilde: float

    def __post_init__(self) -> None:
        if not (0.0 < self.lam < 1.0):
            raise InvalidParams(f"lambda must lie in (0, 1), got {self.lam}")
        if not (0.0 < self.b < math.inf):
            raise InvalidParams(f"b must be positive and finite, got {self.b}")
        if not (1.0 <= self.v_min_outside < math.inf):
            raise InvalidParams(f"min V off C must be finite and >= 1, got {self.v_min_outside}")
        if not (0.0 < self.beta_tilde < 1.0):
            raise InvalidParams(f"beta_tilde must lie in (0, 1), got {self.beta_tilde}")
        if not (self.beta_tilde < self.big_k < math.inf):
            raise InvalidParams(f"K must be finite and exceed beta_tilde, got {self.big_k}")

    @property
    def lambda1(self) -> float:
        """Bivariate drift rate lambda + b / (1 + min V off C)."""
        return _lambda1(self.lam, self.b, self.v_min_outside)


def _validate_zeta_args(lam: float, big_k: float, beta: float) -> None:
    if not (0.0 < lam < 1.0):
        raise InvalidParams(f"lambda must lie in (0, 1), got {lam}")
    if not (lam < big_k < math.inf):
        raise InvalidParams(f"K must be finite and exceed lambda, got K={big_k}, lambda={lam}")
    if not (0.0 < beta <= 1.0):
        raise InvalidParams(f"beta must lie in (0, 1], got {beta}")


def mt_zeta(lam: float, big_k: float, beta: float) -> float:
    """Splitting-technique bound (32 - 8 beta^2)/beta^3 * ((K-l)/(1-l))^2."""
    _validate_zeta_args(lam, big_k, beta)
    ratio = (big_k - lam) / (1.0 - lam)
    return (32.0 - 8.0 * beta * beta) / beta**3 * ratio * ratio


def mtb_zeta(lam: float, big_k: float, beta: float) -> float:
    """Sharpened bound 1 + 2 log((K-l)/(1-l)) / (beta log(1/l)).

    Obtained by evaluating the renewal-sequence modulus estimate on the unit
    circle instead of splitting the forward recurrence chain. Equals 1 when
    K - lambda = 1 - lambda (the log term vanishes).
    """
    _validate_zeta_args(lam, big_k, beta)
    return 1.0 + 2.0 * math.log((big_k - lam) / (1.0 - lam)) / (beta * math.log(1.0 / lam))


def _lambda1(lam, b, v_min_outside):
    # CouplingInput.lambda1 on floats or arrays.
    return lam + b / (1.0 + v_min_outside)


def _coupling_rate(lam1, big_k, beta_tilde):
    # The rate of coupling_rho on floats or arrays with lambda_1 < 1.
    return 1.0 / split_exponents(lam1, big_k, beta_tilde, NU_NONE)[2]


def coupling_rho(c_in: CouplingInput) -> float:
    """Coupling-method rate 1/R0_hat.

    R0_hat is the radius cap of the split-chain construction with lambda_1
    substituted for lambda. Requires the stronger condition lambda_1 < 1;
    when it fails the small set must be enlarged (CouplingFails).
    """
    lam1 = c_in.lambda1
    if lam1 >= 1.0:
        raise CouplingFails(
            f"lambda_1 = {lam1:.6g} >= 1; enlarge C until min V off C is big enough"
        )
    return _coupling_rate(lam1, c_in.big_k, c_in.beta_tilde)
