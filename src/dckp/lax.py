"""Truncated Lax-pair realizations and the six-equation compatibility system.

Operators act on the semi-infinite column of monic polynomials and are
truncated to K x K bands.  With Lam the upward shift (ones on the
superdiagonal) and capital letters the diagonal coefficient matrices:

    L = (I + A Lam^-1)^-1 (Lam + A - B - C Lam^-1 + A Lam^-1 B - A Lam^-1 C Lam^-1)
    N = (I + alpha Lam^-1)^-1 (Lam + beta)
    M = (I + E Lam^-1)^-1 (I + D Lam^-1)

The unit lower-bidiagonal inverses are applied by forward substitution, so a
truncation defect lives only in the last row; products of two operators are
then exact on the interior block [1, K-3] used for compatibility residuals,
and only that block of each product is formed.
OPERATORS gives each operator as data: its subdiagonal coefficient and the
bands of its band matrix, stencils over the recurrence coefficients.  L's
entry is the four-term recurrence itself, identities.RECURRENCE, which the
catalog's 4trr reads too.  One `build` evaluates the table, once per
DetContext and (op, K, s, t) (detkit.derived), and the compatibility and
eigenfunction residuals share each operator; no caller mutates one.
The six scalar compatibility equations are evaluated per variant: the three
that survive adjudication verbatim, and repaired forms for the other three,
each a stencil over the coefficients, held with the equation's lowest n in
one table (SIX_EQUATIONS), whose signed products (DetContext.factors) go to
the catalog's one reducer, identities._residual, which returns each
equation's (residual_abs, residual_rel) as it does a catalog record's.
`family_reads` derives the family reads from the same stencils and tables.
"""

from fractions import Fraction

from .numerics import ConfigError, DegeneracyError, ExtentError, fmt_scalar
from . import detkit, polyfam
from .identities import RECURRENCE, _adjudicate, _residual

EIGEN_SAMPLES = (Fraction(1, 7), Fraction(1, 5), Fraction(1, 3),
                 Fraction(1, 2), Fraction(2, 3))


# ---- Dense K x K helpers ----

def _zeros(K, zero):
    return [[zero for _ in range(K)] for _ in range(K)]


def _matmul(A, B, zero, lo, hi):
    """Rows and columns lo..hi of A B, each entry summed over k in order."""
    block = range(lo, hi + 1)
    out = []
    for i in block:
        row = [zero] * len(block)
        for a, Bk in zip(A[i], B):
            if a == 0:
                continue
            for c, j in enumerate(block):
                row[c] = row[c] + a * Bk[j]
        out.append(row)
    return out


def _forward_solve(sub, T, zero):
    """X with (I + diag(sub) Lam^-1) X = T; row i couples only to row i-1."""
    K = len(T)
    X = _zeros(K, zero)
    for j in range(K):
        prev = zero
        for i in range(K):
            v = T[i][j] - sub[i] * prev
            X[i][j] = v
            prev = v
    return X


def _maxabs(R, zero):
    top = zero
    for row in R:
        for v in row:
            if abs(v) > top:
                top = abs(v)
    return top


# ---- Construction ----

def _check_K(K):
    if K < 5:
        raise ConfigError("operator truncation needs K >= 5, got %d" % K)


# each operator (I + diag(sub) Lam^-1)^-1 T as its subdiagonal coefficient
# sub and the bands of T, stencils: T[i][i + o] is bands[o] at n = i
OPERATORS = {"L": RECURRENCE, "N": ("alpha", {1: "+ 1", 0: "+ beta"}),
             "M": ("e", {-1: "+ d", 0: "+ 1"})}


@detkit.derived
def build(ctx, op, K, s, t):
    """Operator `op` of OPERATORS truncated to K x K at (s, t).  It reads
    its subdiagonal coefficient over all n first, then its bands in order,
    the order family_reads assumes where it cuts L's reads at sigma_tilde."""
    _check_K(K)
    name, bands = OPERATORS[op]
    sub = [ctx.coeff(name, n, s, t) for n in range(K)]
    zero = ctx.zero()
    T = _zeros(K, zero)
    for o, band in bands.items():
        for i in range(max(0, -o), K - max(0, o)):
            T[i][i + o] = ctx._sum(detkit.stencil(band), i, s, t)
    return _forward_solve(sub, T, zero)


# ---- Compatibility residuals ----

def _products(s, t):
    """The operators (op, s, t) of each product P Q - Pb Qb of
    compat_residuals at (s, t), as (P, Q, Pb, Qb)."""
    return {"compat_MN": (("M", s + 1, t), ("N", s, t + 1), ("N", s, t),
                          ("M", s, t)),
            "compat_LN": (("L", s + 1, t), ("N", s, t), ("N", s, t),
                          ("L", s, t)),
            "compat_ML": (("M", s, t), ("L", s, t + 1), ("L", s, t),
                          ("M", s, t))}


def compat_residuals(ctx, K, s, t):
    """Max-abs interior residuals of the three discrete zero-curvature products.

    compat_MN: M^{s+1,t} N^{s,t+1} - N^{s,t} M^{s,t}
    compat_LN: L^{s+1,t} N^{s,t}   - N^{s,t} L^{s,t}
    compat_ML: M^{s,t}   L^{s,t+1} - L^{s,t} M^{s,t}

    Each product builds only the operators it needs, each operator once per
    context; a product whose coefficient data is out of reach for the mode
    (singles lost after a t-step) is reported as None rather than aborting
    the others.
    """
    _check_K(K)
    zero = ctx.zero()
    lo, hi = 1, K - 3
    out = {}
    for name, ops in _products(s, t).items():
        try:
            P, Q, Pb, Qb = [build(ctx, op, K, *site) for op, *site in ops]
        except (ExtentError, DegeneracyError) as exc:
            out[name] = None
            out[name + "_skipped"] = type(exc).__name__ + ": " + str(exc)
            continue
        with ctx.wp():
            R1 = _matmul(P, Q, zero, lo, hi)
            R2 = _matmul(Pb, Qb, zero, lo, hi)
            out[name] = _maxabs([[a - b for a, b in zip(r1, r2)]
                                 for r1, r2 in zip(R1, R2)], zero)
    out["interior"] = [lo, hi]
    out["K"] = K
    return out


# ---- Eigenfunction residuals ----

def _poly_stack(ctx, K, s, t, x):
    vals = []
    with ctx.wp():
        for n in range(K):
            vals.append(polyfam.eval_poly(polyfam.poly(ctx, "P", n, s, t), x))
    return vals


def _apply(Op, vec, zero):
    K = len(Op)
    return [sum((Op[i][k] * vec[k] for k in range(K) if Op[i][k] != 0), zero)
            for i in range(K)]


def eigen_residuals(ctx, K, s, t):
    """Pointwise operator action on the polynomial column at EIGEN_SAMPLES.

    L is an eigenvalue relation at the base site, N maps the site to (s+1,t)
    scaled by x, and M pulls the (s,t+1) column back to (s,t).  Rows 0..K-2
    are truncation-exact; row K-1 is excluded.
    """
    zero = ctx.zero()
    L, N, M = (build(ctx, op, K, s, t) for op in "LNM")
    out = {"L_eigen": zero, "N_shift": zero, "M_shift": zero, "K": K}
    with ctx.wp():
        for x in EIGEN_SAMPLES:
            xv = ctx.one() * x
            col00 = _poly_stack(ctx, K, s, t, xv)
            col10 = _poly_stack(ctx, K, s + 1, t, xv)
            col01 = _poly_stack(ctx, K, s, t + 1, xv)
            for name, Op, src, dst, fac in (
                    ("L_eigen", L, col00, col00, xv),
                    ("N_shift", N, col00, col10, xv),
                    ("M_shift", M, col01, col00, ctx.one())):
                img = _apply(Op, src, zero)
                for i in range(K - 1):
                    r = abs(img[i] - fac * dst[i])
                    if r > out[name]:
                        out[name] = r
    return out


# ---- Six compatibility equations ----

# each equation's lowest n (eq4 and eq6 read index n-1) and the form of each
# of its variants, a stencil over the recurrence coefficients whose signed
# products must sum to zero
_EQ4 = "+ ( + g[s+1] - alpha[t+1] ) f[n-1,t+1] - e[s+1] g[n-1,s+1]"
SIX_EQUATIONS = {
    "eq1": (0, {"printed": "+ g[s+1] + f[t+1] - f - g[n+1]"}),
    "eq2": (0, {"printed": "+ f[n+1] - b[s+1] - f + b[n+1]"}),
    "eq3": (0, {"printed": "+ g - b[t+1] - g[n+1] + b"}),
    "eq4": (1, {"printed": _EQ4 + " - ( + g[n-1] - alpha ) f[n-1] + e g[n-1]",
                "repaired": _EQ4 + " - ( + f - e[n+1] ) g + alpha f[n-1]"}),
    "eq5": (0, {"printed": "+ c[s+1] + b[s+1] f - alpha[n+1] f - c[n+1] + f b"
                           " + alpha f[n-1]",
                "repaired": "+ chat[s+1] + b[s+1] f + alpha[n+1] f - chat[n+1]"
                            " - f b - alpha f[n-1]"}),
    "eq6": (1, {"printed": "+ c[n-1,t+1] - g b[n-1,t+1] + e g[n-1] - c[n-1]"
                           " + g[n-1] b[n-1] - e[n-1] g[n-1]",
                "repaired": "+ chat[t+1] + g b[n-1,t+1] + e g[n-1] - chat"
                            " - e[n+1] g - b g"}),
}


def evaluate_equation(ctx, eq, n, s, t, variant="repaired"):
    """(residual_abs, residual_rel) of one compatibility equation at one
    site, from the catalog's reducer; an equation with one form serves it
    for every variant."""
    if eq not in SIX_EQUATIONS:
        raise ValueError("unknown equation id: %r" % (eq,))
    _, forms = SIX_EQUATIONS[eq]
    form = forms["printed"] if len(forms) == 1 else forms.get(variant)
    if form is None:
        raise ValueError("equation %r has no variant %r" % (eq, variant))
    with ctx.wp():
        return _residual(ctx, [ctx.factors(detkit.stencil(form), n, s, t)])


def verify_six_equations(ctx, nmax, s, t, policy=None):
    """Per-variant residual report for the six compatibility equations.

    eq1..eq3 hold verbatim; eq4..eq6 carry both the printed form and the
    repaired form that survives adjudication, with the chosen variant in the
    metadata.  The repaired eq6 reaches the t-advanced recurrence data, which
    exists only where singles are recomputable (weight-backed tables).
    Verdicts and the printed rel_tol are those of the table's policy; a
    `policy` given must be that one (perfbench/job.py passes it).
    """
    own = ctx.base.policy
    if policy is not None and policy != own:
        raise ValueError("policy %r is not the one the table was built at, %r"
                         % (policy, own))
    report = {"site": {"s": s, "t": t, "nmax": nmax, "mode": ctx.base.mode,
                       "rel_tol": None if ctx.exact else fmt_scalar(own.rel_tol(), 8)},
              "equations": {}}
    for eq, (n_min, variants) in SIX_EQUATIONS.items():
        report["equations"][eq] = _adjudicate(
            ctx, lambda v, n, s, t: evaluate_equation(ctx, eq, n, s, t, v),
            variants, [(n, s, t) for n in range(n_min, nmax + 1)],
            ("max_residual_abs", "max_residual_rel", "sites", "skipped", "passes"))
    return report


# ---- Reads ----

# the reads of each operator, in build's order, and of an eigen column's P_n,
# its normalizer tau_n and Praw_n, as stencils
_READS = {op: " ".join(["+ " + sub, *bands.values()])
          for op, (sub, bands) in OPERATORS.items()}
_READS["P"] = "+ tau P"


def family_reads(K, smax, tmax, singles):
    """The family reads (family, n, s, t) of compat_residuals and
    eigen_residuals at K at s <= smax, t <= tmax and of verify_six_equations
    at n < K at (0, 0), derived by detkit.stencil_reads from the forms and
    from _READS at n = K - 1, their highest reads.  An evaluation (a
    product, eigen_residuals at a site, a form at an n) stops at its first
    read of sigma_tilde at a t not in `singles` (the table's single_by_t),
    where it raises ExtentError, and so do its reads.  At K < 5, or on an
    empty grid, they read nothing."""
    if K < 5 or smax < 0 or tmax < 0:
        return []

    def served(evaluation):
        reads = [read for text, n, s, t in evaluation for read in
                 detkit.stencil_reads(detkit.stencil(text), n, s, t)]
        for i, (family, _, _, t) in enumerate(reads):
            if family == "sigma_tilde" and t not in singles:
                return reads[:i]
        return reads

    evaluations = [[(form, n, 0, 0)] for n_min, forms in SIX_EQUATIONS.values()
                   for form in forms.values() for n in range(n_min, K)]
    for s in range(smax + 1):
        for t in range(tmax + 1):
            # compat_residuals' products; eigen_residuals builds L, N and M
            # at (s, t), then reads the P columns at (s, t), (s+1, t) and
            # (s, t+1)
            for ops in list(_products(s, t).values()) + [(
                    ("L", s, t), ("N", s, t), ("M", s, t), ("P", s, t),
                    ("P", s + 1, t), ("P", s, t + 1))]:
                evaluations.append([(_READS[op], K - 1, u, v)
                                    for op, u, v in ops])
    return list(dict.fromkeys(read for evaluation in evaluations  # once each
                              for read in served(evaluation)))
