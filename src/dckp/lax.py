"""Truncated Lax-pair realizations and the six-equation compatibility system.

Operators act on the semi-infinite column of monic polynomials and are
truncated to K x K bands.  With Lam the upward shift (ones on the
superdiagonal) and capital letters the diagonal coefficient matrices:

    L = (I + A Lam^-1)^-1 (Lam + A - B - C Lam^-1 + A Lam^-1 B - A Lam^-1 C Lam^-1)
    N = (I + alpha Lam^-1)^-1 (Lam + beta)
    M = (I + E Lam^-1)^-1 (I + D Lam^-1)

The unit lower-bidiagonal inverses are applied by forward substitution, so a
truncation defect lives only in the last row; products of two operators are
then exact on the interior block [1, K-3] used for compatibility residuals.
Each entry of that block of P Q - Pb Qb, and each row of an eigen relation
at each sample x, is one part of signed products, operator entries times
operator entries or P column values; they go to the catalog's one reducer,
identities._residual, whose residual_abs over a product's parts is its
residual: a float one an exact sum, rounded once.  A P column (the monic
P_n at one x, polyfam.eval_poly: exact on integers, rounded once) is
evaluated once per context, site and x.
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
`evaluations` lists what these evaluate, as the same stencils and tables,
for detkit.orders_read to derive a lax context's sweep bounds from.
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
    its subdiagonal coefficient over all n first, then its bands in order:
    the order of its `_READS` stencil, which detkit.orders_read cuts at L's
    first read of sigma_tilde where the table has no singles."""
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

    Each entry of the block is one part of the reducer, the signed products
    of its row of P and column of Q and of Pb and Qb, and each product's
    residual is the reducer's residual_abs.  Each product builds only the
    operators it needs, each operator once per context; a product whose
    coefficient data is out of reach for the mode (singles lost after a
    t-step) is reported as None rather than aborting the others.
    """
    _check_K(K)
    lo, hi = 1, K - 3
    block = range(lo, hi + 1)
    out = {}
    for name, ops in _products(s, t).items():
        try:
            P, Q, Pb, Qb = [build(ctx, op, K, *site) for op, *site in ops]
        except (ExtentError, DegeneracyError) as exc:
            out[name] = None
            out[name + "_skipped"] = type(exc).__name__ + ": " + str(exc)
            continue
        parts = [[(sign, (a, B[k][j]))
                  for sign, A, B in ((1, P, Q), (-1, Pb, Qb))
                  for k, a in enumerate(A[i]) if a != 0]
                 for i in block for j in block]
        with ctx.wp():
            out[name] = _residual(ctx, parts)[0]
    out["interior"] = [lo, hi]
    out["K"] = K
    return out


# ---- Eigenfunction residuals ----

@detkit.derived
def _column(ctx, K, s, t, x):
    """The monic P_n(x), n < K, at (s, t), each rounded once
    (polyfam.eval_poly)."""
    xv = ctx.one() * x
    return [polyfam.eval_poly(polyfam.poly(ctx, "P", n, s, t), xv)
            for n in range(K)]


def eigen_residuals(ctx, K, s, t):
    """Pointwise operator action on the polynomial column at EIGEN_SAMPLES.

    L is an eigenvalue relation at the base site, N maps the site to (s+1,t)
    scaled by x, and M pulls the (s,t+1) column back to (s,t).  Rows 0..K-2
    are truncation-exact; row K-1 is excluded.  Each row at each x is one
    part of the reducer, the signed products of the operator row with the
    column and of the factor with the target's entry, and each relation's
    residual is the reducer's residual_abs over all of them.
    """
    L, N, M = (build(ctx, op, K, s, t) for op in "LNM")
    parts = {"L_eigen": [], "N_shift": [], "M_shift": []}
    with ctx.wp():
        for x in EIGEN_SAMPLES:
            xv = ctx.one() * x
            col00 = _column(ctx, K, s, t, x)
            col10 = _column(ctx, K, s + 1, t, x)
            col01 = _column(ctx, K, s, t + 1, x)
            for name, Op, src, dst, fac in (
                    ("L_eigen", L, col00, col00, xv),
                    ("N_shift", N, col00, col10, xv),
                    ("M_shift", M, col01, col00, ctx.one())):
                parts[name] += [[(1, (a, v)) for a, v in zip(Op[i], src)
                                 if a != 0] + [(-1, (fac, dst[i]))]
                                for i in range(K - 1)]
        out = {name: _residual(ctx, p)[0] for name, p in parts.items()}
    out["K"] = K
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
# its normalizer tau_n and the cofactor vector P_n, as stencils
_READS = {op: detkit.stencil(" ".join(["+ " + sub, *bands.values()]))
          for op, (sub, bands) in OPERATORS.items()}
_READS["P"] = detkit.stencil("+ tau P")


def evaluations(K, smax, tmax):
    """What compat_residuals and eigen_residuals at K at s <= smax,
    t <= tmax and verify_six_equations at n < K at (0, 0) evaluate, for
    detkit.orders_read: each form at each n, each product of
    compat_residuals and eigen_residuals at each site, as its _READS at
    n = K - 1, their highest reads, in the order it reads them.  At K < 5
    they evaluate nothing; on an empty (s, t) grid, the six equations
    alone."""
    if K < 5:
        return []
    out = [[(detkit.stencil(form), n, 0, 0)]
           for n_min, forms in SIX_EQUATIONS.values()
           for form in forms.values() for n in range(n_min, K)]
    for s in range(smax + 1):
        for t in range(tmax + 1):
            # compat_residuals' products; eigen_residuals builds L, N and M
            # at (s, t), then reads the P columns at (s, t), (s+1, t) and
            # (s, t+1)
            for ops in list(_products(s, t).values()) + [(
                    ("L", s, t), ("N", s, t), ("M", s, t), ("P", s, t),
                    ("P", s + 1, t), ("P", s, t + 1))]:
                out.append([(_READS[op], K - 1, u, v) for op, u, v in ops])
    return out
