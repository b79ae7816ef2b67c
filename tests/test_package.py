"""The package namespace: ``verify`` and its re-exported names resolve on
first access, to the objects of ``ergocert.verify``."""

import pytest

import ergocert
from ergocert import verify

VERIFY_NAMES = (
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
)


def test_verify_names_are_the_objects_of_verify():
    from ergocert import renewal_from_increments, run_all_suites

    assert ergocert.verify is verify
    assert run_all_suites is verify.run_all_suites
    assert renewal_from_increments is verify.renewal_from_increments
    for name in VERIFY_NAMES:
        assert getattr(ergocert, name) is getattr(verify, name), name
        assert name in dir(ergocert)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ergocert.no_such_name
    with pytest.raises(ImportError):
        from ergocert import no_such_name  # noqa: F401
    assert not hasattr(ergocert, "run_all_suite")
