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
Each operator is built once per DetContext and (K, s, t) (detkit.derived)
and shared by the compatibility and eigenfunction residuals; no caller
mutates one.
The six scalar compatibility equations are evaluated per variant: the three
that survive adjudication verbatim, and repaired forms for the other three.
"""

from fractions import Fraction

from .numerics import ConfigError, DegeneracyError, ExtentError, fmt_scalar
from . import detkit, polyfam
from .identities import _adjudicate, _policy_for, _with_relative

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


def family_reads(K, smax, tmax):
    """The family reads (family, n, s, t), each at its highest n, of
    compat_residuals and eigen_residuals at K at every s <= smax, t <= tmax
    and of verify_six_equations at n <= K - 1 at (0, 0): what a context
    serving them declares (detkit.orders_of).  At K < 5, or on an empty
    grid, they read nothing.

    L at a site reads a_k, b_k, c_k for k < K (tau and tau_tilde to K,
    sigma_tilde to K - 1), N alpha_k and beta_k (xi and tau to K, tau at
    s+1 to K - 1), M d_k and e_k (sigma and tau to K - 1, tau at t+1 to
    K - 1), and an eigen column P_k and its tau_k for k < K.  The six
    equations read the coefficients at (0, 0) up to k = K, one order more
    there, and at the neighbouring sites no more than Lax at (0, 0) does."""
    if K < 5 or smax < 0 or tmax < 0:
        return []
    reads = [(f, K + 1, 0, 0) for f in ("tau", "xi", "tau_tilde")]
    reads += [(f, K, 0, 0) for f in ("sigma", "sigma_tilde")]
    for s in range(smax + 1):
        for t in range(tmax + 1):
            # L at (s, t), (s+1, t), (s, t+1), with the P columns there
            for u, v in ((s, t), (s + 1, t), (s, t + 1)):
                reads += [("tau", K, u, v), ("tau_tilde", K, u, v),
                          ("sigma_tilde", K - 1, u, v), ("P", K - 1, u, v)]
            for v in (t, t + 1):            # N at (s, t), (s, t+1)
                reads += [("xi", K, s, v), ("tau", K, s, v),
                          ("tau", K - 1, s + 1, v)]
            for u in (s, s + 1):            # M at (s, t), (s+1, t)
                reads += [("sigma", K - 1, u, t), ("tau", K - 1, u, t),
                          ("tau", K - 1, u, t + 1)]
    return reads


def _operator(ctx, sub, bands):
    """(I + diag(sub) Lam^-1)^-1 T, T the K x K band matrix whose entry (i,
    i + o) is bands[o](i); its callers are derived, so it runs under
    ctx.wp()."""
    K, zero = len(sub), ctx.zero()
    T = _zeros(K, zero)
    for o, band in bands.items():
        for i in range(max(0, -o), K - max(0, o)):
            T[i][i + o] = band(i)
    return _forward_solve(sub, T, zero)


@detkit.derived
def build_L(ctx, K, s, t):
    _check_K(K)
    a = [ctx.coeff_a(n, s, t) for n in range(K)]
    b = [ctx.coeff_b(n, s, t) for n in range(K)]
    c = [ctx.coeff_c(n, s, t) for n in range(K)]
    return _operator(ctx, a, {1: lambda i: ctx.one(),
                              0: lambda i: a[i] - b[i],
                              -1: lambda i: a[i] * b[i - 1] - c[i],
                              -2: lambda i: -a[i] * c[i - 1]})


@detkit.derived
def build_N(ctx, K, s, t):
    _check_K(K)
    alpha = [ctx.coeff_alpha(n, s, t) for n in range(K)]
    beta = [ctx.coeff_beta(n, s, t) for n in range(K)]
    return _operator(ctx, alpha, {1: lambda i: ctx.one(),
                                  0: lambda i: beta[i]})


@detkit.derived
def build_M(ctx, K, s, t):
    _check_K(K)
    d = [ctx.coeff_d(n, s, t) for n in range(K)]
    e = [ctx.coeff_e(n, s, t) for n in range(K)]
    return _operator(ctx, e, {0: lambda i: ctx.one(), -1: lambda i: d[i]})


# ---- Compatibility residuals ----

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
    parts = {
        "compat_MN": ((build_M, s + 1, t), (build_N, s, t + 1),
                      (build_N, s, t), (build_M, s, t)),
        "compat_LN": ((build_L, s + 1, t), (build_N, s, t),
                      (build_N, s, t), (build_L, s, t)),
        "compat_ML": ((build_M, s, t), (build_L, s, t + 1),
                      (build_L, s, t), (build_M, s, t)),
    }
    out = {}
    for name, ops in parts.items():
        try:
            P, Q, Pb, Qb = [build(ctx, K, *site) for build, *site in ops]
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
    L, N, M = (build(ctx, K, s, t) for build in (build_L, build_N, build_M))
    out = {"L_eigen": zero, "N_shift": zero, "M_shift": zero, "K": K}
    with ctx.wp():
        for x in EIGEN_SAMPLES:
            xv = x if ctx.exact else ctx.one() * x
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

# each equation's lowest n (eq4 and eq6 read index n-1) and its variants
SIX_EQUATIONS = {"eq1": (0, ("printed",)), "eq2": (0, ("printed",)),
                 "eq3": (0, ("printed",)), "eq4": (1, ("printed", "repaired")),
                 "eq5": (0, ("printed", "repaired")),
                 "eq6": (1, ("printed", "repaired"))}


def _eq_terms(ctx, eq, n, s, t, variant):
    """Signed product terms of one scalar compatibility equation."""
    def f0(k): return ctx.coeff_f(k, s, t)
    def f2(k): return ctx.coeff_f(k, s, t + 1)
    def g0(k): return ctx.coeff_g(k, s, t)
    def g1(k): return ctx.coeff_g(k, s + 1, t)
    def b0(k): return ctx.coeff_b(k, s, t)
    def b1(k): return ctx.coeff_b(k, s + 1, t)
    def b2(k): return ctx.coeff_b(k, s, t + 1)
    def al0(k): return ctx.coeff_alpha(k, s, t)
    def al2(k): return ctx.coeff_alpha(k, s, t + 1)
    def e0(k): return ctx.coeff_e(k, s, t)
    def e1(k): return ctx.coeff_e(k, s + 1, t)
    def c0c(k): return ctx.coeff_c(k, s, t)
    def c1c(k): return ctx.coeff_c(k, s + 1, t)
    def c2c(k): return ctx.coeff_c(k, s, t + 1)
    def ch0(k): return ctx.coeff_chat(k, s, t)
    def ch1(k): return ctx.coeff_chat(k, s + 1, t)
    def ch2(k): return ctx.coeff_chat(k, s, t + 1)
    zero = ctx.zero()

    if eq == "eq1":
        return [g1(n), f2(n), -f0(n), -g0(n + 1)]
    if eq == "eq2":
        return [f0(n + 1), -b1(n), -f0(n), b0(n + 1)]
    if eq == "eq3":
        return [g0(n), -b2(n), -g0(n + 1), b0(n)]
    if eq == "eq4":
        if variant == "printed":
            return [(g1(n) - al2(n)) * f2(n - 1), -e1(n) * g1(n - 1),
                    -(g0(n - 1) - al0(n)) * f0(n - 1), e0(n) * g0(n - 1)]
        return [(g1(n) - al2(n)) * f2(n - 1), -e1(n) * g1(n - 1),
                -(f0(n) - e0(n + 1)) * g0(n), al0(n) * f0(n - 1)]
    if eq == "eq5":
        tail = al0(n) * f0(n - 1) if n >= 1 else zero
        if variant == "printed":
            return [c1c(n), b1(n) * f0(n), -al0(n + 1) * f0(n), -c0c(n + 1),
                    f0(n) * b0(n), tail]
        return [ch1(n), b1(n) * f0(n), al0(n + 1) * f0(n), -ch0(n + 1),
                -f0(n) * b0(n), -tail]
    if eq == "eq6":
        if variant == "printed":
            return [c2c(n - 1), -g0(n) * b2(n - 1), e0(n) * g0(n - 1),
                    -c0c(n - 1), g0(n - 1) * b0(n - 1), -e0(n - 1) * g0(n - 1)]
        return [ch2(n), g0(n) * b2(n - 1), e0(n) * g0(n - 1),
                -ch0(n), -e0(n + 1) * g0(n), -b0(n) * g0(n)]
    raise ValueError("unknown equation id: %r" % (eq,))


def evaluate_equation(ctx, eq, n, s, t, variant="repaired"):
    """(residual_abs, scale terms) of one compatibility equation at one site."""
    with ctx.wp():
        terms = _eq_terms(ctx, eq, n, s, t, variant)
        return abs(sum(terms[1:], terms[0])), [abs(v) for v in terms]


def verify_six_equations(ctx, nmax, s, t, policy=None):
    """Per-variant residual report for the six compatibility equations.

    eq1..eq3 hold verbatim; eq4..eq6 carry both the printed form and the
    repaired form that survives adjudication, with the chosen variant in the
    metadata.  The repaired eq6 reaches the t-advanced recurrence data, which
    exists only where singles are recomputable (weight-backed tables).
    """
    policy = _policy_for(ctx, policy)
    report = {"site": {"s": s, "t": t, "nmax": nmax, "mode": ctx.base.mode,
                       "rel_tol": None if ctx.exact else fmt_scalar(policy.rel_tol(), 8)},
              "equations": {}}
    for eq, (n_min, variants) in SIX_EQUATIONS.items():
        report["equations"][eq] = _adjudicate(
            ctx, lambda v, n, s, t: _with_relative(
                ctx, *evaluate_equation(ctx, eq, n, s, t, v)),
            variants, [(n, s, t) for n in range(n_min, nmax + 1)], policy,
            ("max_residual_abs", "max_residual_rel", "sites", "skipped", "passes"))
    return report
