"""Second arrangements of the M and K1 formulas, the references of the
identity tests.

The paper prints each constant in two algebraically equal forms. The
package computes M in the decay factor gamma and K1 in nested form; these
are the other forms, transcribed independently: M in the series variable
r = 1/gamma, and K1 as a single fraction.
"""

from ergocert.kendall import KendallParams, _k1_parts


def _m_atomic_r(lam: float, big_k: float, r: float, k_factor: float) -> float:
    q = 1.0 - r * lam
    t1 = r * max(lam, big_k - r * lam) / q
    t2 = r * r * big_k * (big_k - r * lam) / q * k_factor
    t3 = r * (big_k - r * lam) * max(lam, big_k - lam) / (q * (1.0 - lam))
    t4 = lam * r * (big_k - 1.0) / (q * (1.0 - lam))
    return t1 + t2 + t3 + t4


def _m_nonatomic_r(
    lam: float,
    big_k: float,
    bt: float,
    a1: float,
    a2: float,
    r: float,
    k_factor: float,
) -> float:
    q = 1.0 - r * lam
    d = 1.0 - (1.0 - bt) * r**a1
    t1 = r * max(lam, big_k - r * lam) / q
    t2 = r * r * big_k * (big_k - r * lam - bt * q) / (q * d)
    t3 = bt * r ** (a2 + 2.0) * big_k * (big_k - r * lam) / (q * d * d) * k_factor
    t4 = (
        r ** (a2 + 1.0)
        * (big_k - r * lam)
        / (q * d * d)
        * (bt * max(lam, big_k - lam) / (1.0 - lam) + (1.0 - bt) * (r**a1 - 1.0) / (r - 1.0))
    )
    t5 = r ** (a2 + 1.0) * lam * (big_k - 1.0) / ((1.0 - lam) * q * d)
    t6 = (
        r
        * (big_k - lam - bt * (1.0 - lam))
        / ((1.0 - lam) * d)
        * ((r**a2 - 1.0) / (r - 1.0) + (1.0 - bt) * (r**a1 - 1.0) / (bt * (r - 1.0)))
    )
    return t1 + t2 + t3 + t4 + t5 + t6


def k1_single_fraction(r: float, p: KendallParams) -> float:
    """The single-fraction arrangement of ``kendall.k1``."""
    a_term, denominator, log_n_term = _k1_parts(r, p)
    return (2.0 * p.beta + log_n_term - a_term) / ((r - 1.0) * denominator)
