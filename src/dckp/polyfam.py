"""Polynomial families P, Q, R as monic coefficient vectors from determinant
cofactors.

A polynomial is the tuple of its coefficients, low-to-high degree with
coeffs[n] = 1, each built once per DetContext (detkit.derived).
"""

import mpmath as mp
from mpmath.libmp import from_man_exp, round_nearest

from .numerics import DegeneracyError, ExtentError, _dyadic
from . import detkit


def eval_poly(coeffs, x):
    """The polynomial with coefficients `coeffs`, low to high, at x (Horner).
    At an mpf x it is exact on integers, each coefficient and x an integer
    times a power of two, and the value is rounded once to the ambient
    precision; a NaN or an infinity among them gives NaN."""
    if not isinstance(x, mp.mpf):
        acc = 0
        for v in reversed(coeffs):
            acc = acc * x + v
        return acc
    parts = [_dyadic(v) for v in (x, *coeffs)]
    if None in parts:
        return mp.nan
    (xm, xe), acc, e = parts[0], 0, 0
    for cm, ce in reversed(parts[1:]):
        acc, e = acc * xm, e + xe
        if ce >= e:
            acc += cm << ce - e
        else:
            acc, e = (acc << e - ce) + cm, ce
    return mp.make_mpf(from_man_exp(acc, e, mp.mp.prec, round_nearest))


# ---- Construction ----

# lowest order of each family, P, Q and R in that order; P_{-1} = [] is no
# monic polynomial
LOWEST_ORDER = {fam: max(spec.start, 0)
                for fam, spec in detkit.FAMILY_SPECS.items()
                if spec.lead is not None}


@detkit.derived
def poly(ctx, family, n, s, t):
    """Coefficients of the monic member of family P, Q or R at (n, s, t),
    low to high, built once per context.

    P_n = tau_n^{-1} det[m cols 0..n-1 | x^i]; Q_n the same on the column-
    shifted table; R_n = sigma_{n-1}^{-1} det[m cols 0..n-2 | phi | x^i]
    (n >= 1).  Each raw vector and its normalizer, its x^n coefficient, come
    from detkit.FAMILY_SPECS.
    """
    low = LOWEST_ORDER.get(family)
    if low is None:
        raise ValueError("unknown family %r (one of P, Q, R)" % (family,))
    spec = detkit.FAMILY_SPECS[family]
    if n < low:
        raise ExtentError("%s_%d: polynomial order must be >= %d"
                          % (family, n, low))
    lead, shift = spec.lead
    den = detkit.eval_det(ctx, lead, n + shift, s, t)
    raw = detkit.eval_det(ctx, family, n, s, t)
    if den == 0:
        raise DegeneracyError("normalizer of %s_%d vanishes at (s=%d,t=%d)"
                              % (family, n, s, t))
    return tuple(c / den for c in raw)
