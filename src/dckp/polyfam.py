"""Polynomial families P, Q, R as monic coefficient vectors from determinant
cofactors.

Coefficient vectors are low-to-high degree with coeffs[n] = 1, each built
once per DetContext (detkit.derived).
"""

from dataclasses import dataclass

from .numerics import DegeneracyError, ExtentError
from . import detkit

# ---- Coefficient container ----

@dataclass(frozen=True)
class PolyCoeffs:
    family: str                 # P | Q | R
    n: int
    s: int
    t: int
    coeffs: tuple               # low -> high, length n+1, monic


def _vec(f):
    """Accept PolyCoeffs, or any sequence of coefficients."""
    if isinstance(f, PolyCoeffs):
        return f.coeffs
    return list(f)


def eval_poly(f, x):
    c = _vec(f)
    acc = 0
    for v in reversed(c):
        acc = acc * x + v
    return acc


# ---- Construction ----

# lowest order of each family, P, Q and R in that order; Praw_{-1} = [] is no
# monic polynomial
LOWEST_ORDER = {fam: max(spec.start, 0)
                for fam, spec in detkit.FAMILY_SPECS.items()
                if spec.lead is not None}


@detkit.derived
def poly(ctx, family, n, s, t):
    """Monic member of family P, Q or R at (n, s, t), built once per context.

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
    with ctx.wp():
        coeffs = tuple(c / den for c in raw)
    return PolyCoeffs(family, n, s, t, coeffs)
