"""Scalar layer: tolerance policy, residuals, serialization round trips."""

from fractions import Fraction

import mpmath as mp
import pytest

from dckp.numerics import (WORKING_MARGIN, ConfigError, TolerancePolicy,
                           digits_of_agreement, fmt_scalar, parse_scalar,
                           relative_residual, selfcheck_ln2)

# ---- Tolerance policy ----

def test_policy_rejects_guard_at_or_above_precision():
    with pytest.raises(ConfigError):
        TolerancePolicy(precision_digits=40, guard_digits=40)
    with pytest.raises(ConfigError):
        TolerancePolicy(precision_digits=0, guard_digits=0)


def test_policy_rejects_negative_guard():
    # a negative guard would ask for more digits than the precision carries
    with pytest.raises(ConfigError, match="nonnegative"):
        TolerancePolicy(precision_digits=30, guard_digits=-1)
    assert TolerancePolicy(precision_digits=30, guard_digits=0).guard_digits == 0


def test_policy_derived_quantities():
    pol = TolerancePolicy(precision_digits=120, guard_digits=40)
    assert pol.working_dps == 120 + WORKING_MARGIN
    with mp.workdps(pol.working_dps):
        assert mp.almosteq(mp.log10(pol.rel_tol()), -80)
    # the one guard default: min(40, precision // 3)
    assert TolerancePolicy().guard_digits == 40
    assert TolerancePolicy(precision_digits=30).guard_digits == 10


# ---- Residuals ----

def test_relative_residual_exact():
    r = relative_residual(Fraction(1, 2), Fraction(8))
    assert r == Fraction(1, 16)
    # floor at 1 when the scale is tiny
    assert relative_residual(Fraction(1, 2), Fraction(1, 100)) == Fraction(1, 2)
    # an exact zero is zero whatever the scale, even a zero one
    for scale in (Fraction(8), Fraction(0)):
        r = relative_residual(Fraction(0), scale)
        assert r == 0 and isinstance(r, Fraction)
    assert relative_residual(Fraction(-3), Fraction(0)) == Fraction(3)


def test_relative_residual_float():
    with mp.workdps(30):
        r = relative_residual(mp.mpf("0.5"), mp.mpf(8))
        assert mp.almosteq(r, mp.mpf(1) / 16)


def test_digits_of_agreement():
    with mp.workdps(50):
        assert digits_of_agreement(mp.mpf(1), mp.mpf(1)) == mp.inf
        d = digits_of_agreement(mp.mpf(1) + mp.mpf(10) ** -20, mp.mpf(1))
        assert 19 < d < 21


def test_digits_of_agreement_keeps_high_precision_inputs():
    # called at ambient dps 15, must not re-round 60-digit arguments
    with mp.workdps(80):
        a = mp.ln(2)
        b = a + mp.mpf(10) ** -60
    d = digits_of_agreement(a, b)
    assert 55 < d < 65


# ---- Serialization ----

def test_fraction_round_trip():
    for fr in (Fraction(0), Fraction(-7, 3), Fraction(10**40 + 1, 10**39)):
        assert parse_scalar(fmt_scalar(fr), True) == fr
    assert fmt_scalar(Fraction(3)) == "3/1"


def test_float_round_trip_full_precision():
    prec = 120
    with mp.workdps(prec + WORKING_MARGIN):
        x = mp.pi / 7
    # formatting runs OUTSIDE any working-precision context on purpose:
    # fmt_scalar must not re-round through the ambient dps
    s = fmt_scalar(x, prec)
    y = parse_scalar(s, False, prec)
    assert digits_of_agreement(x, y) >= prec - 2


# ---- Constants ----

def test_selfcheck_ln2():
    ok, d = selfcheck_ln2(TolerancePolicy(precision_digits=80, guard_digits=20))
    assert ok and d >= 78
