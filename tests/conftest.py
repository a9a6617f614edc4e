"""Shared fixtures: one exact table per synthetic mode and one jacobi table
at a reduced precision that keeps the module tests fast.  Acceptance tests
build their own tables at the pinned precisions."""

import pytest

from dckp.numerics import TolerancePolicy
from dckp import moments, detkit

JAC_PREC = 60
JAC_GUARD = 20


@pytest.fixture(scope="session")
def generic_ctx():
    return detkit.DetContext(moments.synthetic_generic(1, 9, tmax=3), 9)


@pytest.fixture(scope="session")
def structured_ctx():
    return detkit.DetContext(moments.synthetic_structured(1, 9, tmax=3), 9)


@pytest.fixture(scope="session")
def jacobi_policy():
    return TolerancePolicy(precision_digits=JAC_PREC, guard_digits=JAC_GUARD)


@pytest.fixture(scope="session")
def jacobi_ctx(jacobi_policy):
    return detkit.DetContext(moments.build_jacobi(9, jacobi_policy, tmax=3), 9)
