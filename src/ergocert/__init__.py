"""Explicit geometric-convergence certificates for Markov chains.

Feed in one-step drift and minorization constants, get back a certified
rate rho and constant M with sup_{|g|<=V} |P^n g(x) - pi(g)| <= M V(x)
gamma^n, plus independent oracles that check the certificates on exactly
solvable benchmark chains.
"""

from .bounds import (
    Certificate,
    DriftMinorization,
    certificate,
    rho_general,
    rho_positive,
    rho_reversible,
)
from .competitors import CouplingInput, coupling_rho, mt_zeta, mtb_zeta
from .kendall import (
    KendallParams,
    k1,
    k2_series_bound,
    solve_r1,
    solve_r2_reversible,
)
from .models import (
    ContractingNormal,
    MetropolisNormal,
    ReflectingWalk,
    TruncatedChain,
    binomial_modification,
    contracting_coupling_input,
    contracting_params,
    mh_coupling_input,
    mh_normal_lambda,
    mh_normal_params,
    reflecting_walk_params,
    reflecting_walk_rho_exact,
    walk_truncated_chain,
)
from .numerics import maximize_scalar, solve_monotone, std_normal_cdf

# The oracles of ``verify`` need numpy, which the certificates never load:
# ``verify`` and its names below are imported on first access (PEP 562).
_VERIFY_NAMES = frozenset({
    "IncrementDistribution",
    "RenewalSequence",
    "certificate_domination",
    "kendall_check",
    "mc_regeneration",
    "renewal_from_increments",
    "run_all_suites",
    "run_kendall_suite",
    "run_matrix_suite",
    "run_mc_suite",
})


def __getattr__(name: str):
    if name == "verify" or name in _VERIFY_NAMES:
        # import_module, not ``from . import verify``: that form looks the
        # name up on this package first and would land here again. Imported
        # here, importlib stays out of dir(ergocert).
        import importlib

        verify = importlib.import_module(".verify", __name__)
        return verify if name == "verify" else getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), "verify", *_VERIFY_NAMES})


__version__ = "0.1.0"
