"""Scalar layer: exact rationals, arbitrary-precision floats, tolerances, serialization.

Two scalar regimes coexist:
  - exact mode: fractions.Fraction, residuals compared to literal zero;
  - float mode: mpmath.mpf at a working precision of precision_digits plus an
    internal engine margin, residuals compared to rel_tol = 10^-(precision-guard),
    both from the TolerancePolicy that a moment table is built at and carries.
No interval arithmetic and no symbolic constants anywhere.
"""

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import mpmath as mp
from mpmath.libmp import from_man_exp, round_nearest

# Engine margin added on top of the user-facing precision when setting mp.dps.
# Covers the worst measured cancellation in the moment ladder (about 5 digits)
# with room to spare.
WORKING_MARGIN = 15


class ConfigError(ValueError):
    """Invalid run configuration (bad precision/guard, unknown mode, ...)."""


class DegeneracyError(ArithmeticError):
    """A pivot or normalizing determinant vanished where the theory needs it nonzero."""


class ExtentError(IndexError):
    """A determinant or functional asked for moments beyond the built table."""


# ---- Tolerance policy ----

@dataclass(frozen=True)
class TolerancePolicy:
    """Float-mode tolerances. rel_tol is derived, never set directly.

    guard_digits defaults to min(40, precision_digits // 3), so scaled-down
    precisions keep a meaningful tolerance without explicit tuning.  rel_tol
    is computed on first use and kept on the instance, outside the fields,
    so equality and repr see only the two digit counts.
    """
    precision_digits: int = 120
    guard_digits: int = None

    def __post_init__(self):
        if self.precision_digits <= 0:
            raise ConfigError("precision_digits must be positive")
        if self.guard_digits is None:
            object.__setattr__(self, "guard_digits",
                               min(40, self.precision_digits // 3))
        if self.guard_digits < 0:
            raise ConfigError("guard digits (%d) must be nonnegative"
                              % self.guard_digits)
        if self.guard_digits >= self.precision_digits:
            raise ConfigError("guard digits (%d) must be smaller than precision "
                              "digits (%d)" % (self.guard_digits,
                                               self.precision_digits))

    @property
    def working_dps(self):
        return self.precision_digits + WORKING_MARGIN

    def rel_tol(self):
        tol = self.__dict__.get("_rel_tol")
        if tol is None:
            digits = self.precision_digits - self.guard_digits
            with mp.workdps(self.working_dps):
                tol = mp.mpf(10) ** -digits
            object.__setattr__(self, "_rel_tol", tol)
        return tol


# ---- Exact rationals over one denominator, floats over one power of two ----

def _integers(values):
    """Exact rationals (anything with .numerator and .denominator) as
    (integer numerators, their least common denominator).  Values that share
    most of their denominators, like the entries of one frame row or one
    determinant-family vector, keep it short where the product of all of
    them would not be."""
    den = lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


def _dyadic(v):
    """An int or a finite mpf as (integer, exponent), v the integer times 2
    to the exponent, exactly; None for a NaN or an infinity."""
    if type(v) is int:
        return v, 0
    sign, man, exp, _ = v._mpf_
    if not man and exp:         # mpf's special values: mantissa 0, exp != 0
        return None
    return -man if sign else man, exp


def _rounded(num, den, e, prec):
    """num / den times 2^e, integers, rounded once to prec bits: a quotient
    of prec plus two bits, with a sticky bit for its remainder."""
    if den < 0:
        num, den = -num, -den
    shift = max(0, prec + 2 + den.bit_length() - abs(num).bit_length())
    q, r = divmod(abs(num) << shift, den)
    q = q << 1 | (r > 0)
    return mp.make_mpf(from_man_exp(-q if num < 0 else q, e - shift - 1, prec,
                                    round_nearest))


# ---- Residuals ----

def worse(v, worst):
    """Whether v replaces `worst`, None at the start, as the largest of a
    running maximum: a NaN always does, and no later value replaces it, so
    a NaN anywhere makes the maximum NaN whatever the order."""
    return worst is None or v != v or v > worst


def relative_residual(diff, scale):
    """|diff| / max(1, scale), scale a magnitude: the one floor rule of every
    relative residual (the catalog's, the six equations', the lattice's two
    checks and digits_of_agreement).  Exact in, exact out; a float one is
    rounded at the caller's working precision."""
    return abs(diff) / max(1, scale)


def digits_of_agreement(a, b):
    """Common decimal digits of a and b relative to max(1,|b|); large when equal."""
    av = a if isinstance(a, mp.mpf) else mp.mpf(a)
    bv = b if isinstance(b, mp.mpf) else mp.mpf(b)
    diff = av - bv
    if diff == 0:
        return mp.inf
    return float(-mp.log10(relative_residual(diff, abs(bv))))


# ---- Serialization ----

def fmt_scalar(x, precision_digits=None):
    """Fraction -> "p/q" (denominator always explicit); mpf -> fixed-length decimal."""
    if isinstance(x, Fraction):
        return "%d/%d" % (x.numerator, x.denominator)
    return mp.nstr(x, precision_digits or mp.mp.dps, strip_zeros=False)


def parse_scalar(s, exact, precision_digits=None):
    """Inverse of fmt_scalar for the given regime: a float at the working
    precision of precision_digits."""
    if exact:
        return Fraction(s)
    with mp.workdps(precision_digits + WORKING_MARGIN):
        return mp.mpf(s)


def csv_text(header, rows):
    """A header row and data rows as one CSV document (default dialect)."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


# ---- Self-check ----

def selfcheck_ln2(policy):
    """ln2 at P and at P+20 digits agree to at least P-2 digits."""
    with mp.workdps(policy.precision_digits):
        a = mp.ln(2)
    with mp.workdps(policy.precision_digits + 20):
        b = mp.ln(2)
        d = digits_of_agreement(a, b)
    return d >= policy.precision_digits - 2, d
