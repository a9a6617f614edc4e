"""Lax operators: band structure, compatibility products, eigen relations,
six scalar equations with variant adjudication."""

from collections import Counter
from fractions import Fraction

import mpmath as mp
import pytest
from mpmath import libmp

from dckp.numerics import ConfigError, ExtentError, TolerancePolicy, _integers
from dckp import detkit, identities, lax, moments, polyfam

# ---- Operator structure ----

def test_operator_truncation_requires_k5(generic_ctx, structured_ctx):
    for name in lax.OPERATORS:
        with pytest.raises(ConfigError, match="needs K >= 5, got 4"):
            lax.build(generic_ctx, name, 4, 0, 0)
        op = lax.build(structured_ctx, name, 5, 0, 0)
        assert len(op) == 5 and all(len(row) == 5 for row in op)


def test_n_operator_maps_p_column(structured_ctx):
    # row i of N applied to [P_k(x)] equals x P_i^{s+1}(x) off the last row
    c = structured_ctx
    K = 5
    N = lax.build(c, "N", K, 0, 0)
    x = Fraction(1, 3)
    p0 = [polyfam.eval_poly(polyfam.poly(c, "P", k, 0, 0), x) for k in range(K)]
    p1 = [polyfam.eval_poly(polyfam.poly(c, "P", k, 1, 0), x) for k in range(K)]
    for i in range(K - 1):
        img = sum(N[i][k] * p0[k] for k in range(K))
        assert img == x * p1[i], i


# ---- The recurrence written once ----

def _hand_operator(ctx, op, K, s, t):
    """L, N or M at (s, t) from its bands written out by hand."""
    def coeffs(*names):
        return [[ctx.coeff(name, n, s, t) for n in range(K)] for name in names]

    one, zero = ctx.one(), ctx.zero()
    if op == "L":
        a, b, c = coeffs("a", "b", "c")
        sub, bands = a, {1: lambda i: one, 0: lambda i: a[i] - b[i],
                         -1: lambda i: a[i] * b[i - 1] - c[i],
                         -2: lambda i: -a[i] * c[i - 1]}
    elif op == "N":
        alpha, beta = coeffs("alpha", "beta")
        sub, bands = alpha, {1: lambda i: one, 0: lambda i: beta[i]}
    else:
        d, e = coeffs("d", "e")
        sub, bands = e, {0: lambda i: one, -1: lambda i: d[i]}
    T = [[zero] * K for _ in range(K)]
    with ctx.wp():
        for o, band in bands.items():
            for i in range(max(0, -o), K - max(0, o)):
                T[i][i + o] = band(i)
        return lax._forward_solve(sub, T, zero)


def _hand_4trr(ctx, n, s, t):
    """4trr's (sign, (coefficient,), vector) terms written out by hand."""
    def pvec(k):
        coeffs = list(polyfam.poly(ctx, "P", k, s, t)) if k >= 0 else []
        return _integers(coeffs) if ctx.exact else coeffs

    a_n, b_n, b_nm1, c_n, c_nm1 = (
        ctx.coeff(name, m, s, t) for name, m in (
            ("a", n), ("b", n), ("b", n - 1), ("c", n), ("c", n - 1)))
    one, x = ctx.one(), lambda vec: identities._shift_x(ctx, vec)
    return [(1, (one,), x(pvec(n))), (1, (a_n,), x(pvec(n - 1))),
            (-1, (one,), pvec(n + 1)), (-1, (a_n - b_n,), pvec(n)),
            (-1, (a_n * b_nm1 - c_n,), pvec(n - 1)),
            (1, (a_n * c_nm1,), pvec(n - 2))]


def _reads_known(products):
    """Whether every factor of a stencil is an integer, a group of known
    reads, or a read of a family, a coefficient or x."""
    return all(isinstance(f, int)
               or (_reads_known(f) if not isinstance(f[0], str)
                   else f[0] in detkit.FAMILY_SPECS
                   or f[0] in detkit.COEFFICIENTS or f[0] == "x")
               for _, factors in products for f in factors)


@pytest.mark.parametrize("fixture, sites", [
    ("structured_ctx", {"L": [(0, 0), (1, 0)], "N": [(0, 0), (1, 1)],
                        "M": [(0, 0), (1, 1)]}),
    ("jacobi_ctx", {op: [(0, 0), (1, 1)] for op in "LNM"})])
def test_recurrence_and_operators_match_the_hand_formulas(
        request, monkeypatch, fixture, sites):
    # OPERATORS and identities.RECURRENCE against the band formulas they
    # replaced: equal on exact data, bit-equal on float data, where mpf
    # equality compares exact values
    ctx = request.getfixturevalue(fixture)
    for op, at in sites.items():
        for s, t in at:
            assert (lax.build(ctx, op, 6, s, t)
                    == _hand_operator(ctx, op, 6, s, t))
    seen = []
    comb = identities._comb
    monkeypatch.setattr(identities, "_comb", lambda ctx, terms:
                        seen.append(terms) or comb(ctx, terms))
    for n in range(1, 4):
        for s in range(2):
            with ctx.wp():
                got = identities._ev_4trr(ctx, n, s, 0)
                hand = _hand_4trr(ctx, n, s, 0)
                assert [(sign * coef, vec) for sign, (coef,), vec in seen.pop()] \
                    == [(sign * coef, vec) for sign, (coef,), vec in hand]
                assert got == comb(ctx, hand)
    texts = [num + (" + " + den if den else "")
             for num, den, _ in detkit.COEFFICIENTS.values()]
    texts += [form for _, forms in lax.SIX_EQUATIONS.values()
              for form in forms.values()]
    texts += ["+ " + sub + " " + " ".join(bands.values())
              for sub, bands in lax.OPERATORS.values()]
    assert all(_reads_known(detkit.stencil(text)) for text in texts)


# ---- Compatibility products ----

def test_structured_compat_exact_zero(structured_ctx):
    out = lax.compat_residuals(structured_ctx, 6, 0, 0)
    assert out["compat_MN"] == 0
    assert out["compat_LN"] == 0
    # L at t+1 needs recurrence data at t+1: singles are gone after a t-step
    assert out["compat_ML"] is None and "compat_ML_skipped" in out
    assert out["interior"] == [1, 3]


def test_generic_compat_mn_only(generic_ctx):
    out = lax.compat_residuals(generic_ctx, 6, 0, 0)
    assert out["compat_MN"] == 0
    assert out["compat_LN"] is None     # L needs single moments
    assert out["compat_ML"] is None


def test_jacobi_compat_all_three(jacobi_ctx, jacobi_policy):
    out = lax.compat_residuals(jacobi_ctx, 5, 0, 0)
    tol = jacobi_policy.rel_tol()
    for name in ("compat_MN", "compat_LN", "compat_ML"):
        assert out[name] is not None and out[name] < tol, name


def test_operators_built_once_per_context(jacobi_ctx, monkeypatch):
    # compat_residuals and eigen_residuals at one site share one build of
    # each operator: L at (s, t), (s+1, t), (s, t+1), N at (s, t), (s, t+1)
    # and M at (s, t), (s+1, t), however often they are called
    ctx = detkit.DetContext(jacobi_ctx.base, jacobi_ctx.orders)
    built = Counter()

    class Counting(dict):       # each build looks its operator up once
        def __getitem__(self, op):
            built[op] += 1
            return dict.__getitem__(self, op)

    monkeypatch.setattr(lax, "OPERATORS", Counting(lax.OPERATORS))
    for _ in range(2):
        lax.compat_residuals(ctx, 5, 0, 0)
        lax.eigen_residuals(ctx, 5, 0, 0)
    assert built == {"L": 3, "N": 2, "M": 2}


def test_unbuildable_operator_is_skipped_every_time(structured_ctx):
    # L at t+1 raises on structured data; nothing is kept, so it raises again
    for _ in range(2):
        out = lax.compat_residuals(structured_ctx, 6, 0, 0)
        assert out["compat_ML"] is None and "compat_ML_skipped" in out
        with pytest.raises(ExtentError):
            lax.build(structured_ctx, "L", 6, 0, 1)


# ---- Eigen relations ----

def test_structured_eigen_exact_zero(structured_ctx):
    out = lax.eigen_residuals(structured_ctx, 5, 0, 0)
    assert out["L_eigen"] == 0
    assert out["N_shift"] == 0
    assert out["M_shift"] == 0


def test_generic_eigen_unavailable(generic_ctx):
    with pytest.raises(ExtentError):
        lax.eigen_residuals(generic_ctx, 5, 0, 0)


def test_jacobi_eigen_small(jacobi_ctx, jacobi_policy):
    out = lax.eigen_residuals(jacobi_ctx, 5, 0, 0)
    tol = jacobi_policy.rel_tol()
    for name in ("L_eigen", "N_shift", "M_shift"):
        assert out[name] < tol, name


def _exact(v):
    neg, man, exp, _ = v._mpf_
    return (-1) ** neg * man * Fraction(2) ** exp


def _rounded_once(v):
    return mp.make_mpf(libmp.from_rational(v.numerator, v.denominator,
                                           mp.mp.prec, libmp.round_nearest))


def test_float_lax_residuals_are_exact_sums_rounded_once(jacobi_ctx):
    # each compat and eigen value is the largest |entry| of its exact
    # residual, recomputed in Fractions from the same rounded operators and
    # P columns, rounded once at the working precision
    ctx, K, lo, hi = jacobi_ctx, 6, 1, 3
    for s, t in ((0, 0), (1, 0)):
        comp = lax.compat_residuals(ctx, K, s, t)
        eig = lax.eigen_residuals(ctx, K, s, t)
        with ctx.wp():
            for name, ops in lax._products(s, t).items():
                P, Q, Pb, Qb = [[[_exact(v) for v in row]
                                 for row in lax.build(ctx, op, K, *site)]
                                for op, *site in ops]
                worst = max(abs(sum(P[i][k] * Q[k][j] - Pb[i][k] * Qb[k][j]
                                    for k in range(K)))
                            for i in range(lo, hi + 1)
                            for j in range(lo, hi + 1))
                assert comp[name]._mpf_ == _rounded_once(worst)._mpf_, name
            L, N, M = ([[_exact(v) for v in row]
                        for row in lax.build(ctx, op, K, s, t)]
                       for op in "LNM")
            worst = {"L_eigen": 0, "N_shift": 0, "M_shift": 0}
            for x in lax.EIGEN_SAMPLES:
                col00, col10, col01 = (
                    [_exact(v) for v in lax._column(ctx, K, *site, x)]
                    for site in ((s, t), (s + 1, t), (s, t + 1)))
                xv = _exact(ctx.one() * x)
                for name, Op, src, dst, fac in (
                        ("L_eigen", L, col00, col00, xv),
                        ("N_shift", N, col00, col10, xv),
                        ("M_shift", M, col01, col00, 1)):
                    for i in range(K - 1):
                        r = abs(sum(a * v for a, v in zip(Op[i], src))
                                - fac * dst[i])
                        worst[name] = max(worst[name], r)
            for name, v in worst.items():
                assert eig[name]._mpf_ == _rounded_once(Fraction(v))._mpf_, \
                    name


def test_a_nan_operator_entry_makes_its_residuals_nan():
    # L[2][2] at (0, 0) enters compat_LN and compat_ML and L_eigen; the
    # other three do not read L at (0, 0) and keep their clean values
    policy = TolerancePolicy(30, 10)
    table = moments.build_jacobi(11, policy, tmax=2)
    clean = detkit.DetContext(table, table.K)
    ctx = detkit.DetContext(table, table.K)
    lax.build(ctx, "L", 6, 0, 0)[2][2] = mp.nan
    comp = lax.compat_residuals(ctx, 6, 0, 0)
    eig = lax.eigen_residuals(ctx, 6, 0, 0)
    want_comp = lax.compat_residuals(clean, 6, 0, 0)
    want_eig = lax.eigen_residuals(clean, 6, 0, 0)
    assert mp.isnan(comp["compat_LN"]) and mp.isnan(comp["compat_ML"])
    assert comp["compat_MN"] == want_comp["compat_MN"]
    assert mp.isnan(eig["L_eigen"])
    assert (eig["N_shift"], eig["M_shift"]) \
        == (want_eig["N_shift"], want_eig["M_shift"])


# ---- Six scalar equations ----

def test_structured_six_equations_adjudication(structured_ctx):
    rep = lax.verify_six_equations(structured_ctx, 3, 0, 0)
    eqs = rep["equations"]
    for eq in ("eq1", "eq2", "eq3"):
        assert eqs[eq]["chosen"] == "printed", eq
        assert eqs[eq]["variants"]["printed"]["max_residual_abs"] == "0/1"
    for eq in ("eq4", "eq5"):
        assert eqs[eq]["chosen"] == "repaired", eq
        assert not eqs[eq]["variants"]["printed"]["passes"], eq
    # repaired eq6 needs recurrence data at t+1: out of reach without a weight
    assert eqs["eq6"]["chosen"] is None
    assert eqs["eq6"]["variants"]["repaired"]["sites"] == 0
    assert eqs["eq6"]["variants"]["repaired"]["skipped"] > 0


def test_jacobi_six_equations_adjudication(jacobi_ctx, jacobi_policy):
    rep = lax.verify_six_equations(jacobi_ctx, 3, 0, 0, policy=jacobi_policy)
    eqs = rep["equations"]
    for eq in ("eq1", "eq2", "eq3"):
        assert eqs[eq]["chosen"] == "printed", eq
    for eq in ("eq4", "eq5", "eq6"):
        assert eqs[eq]["chosen"] == "repaired", eq
        assert eqs[eq]["variants"]["repaired"]["passes"], eq
        assert not eqs[eq]["variants"]["printed"]["passes"], eq


def test_equation_n_minimums(structured_ctx):
    # eq4/eq6 reach index n-1 coefficients and start at n = 1; eq1..eq3
    # carry only their printed form
    assert {eq: n_min for eq, (n_min, _) in lax.SIX_EQUATIONS.items()} \
        == {"eq1": 0, "eq2": 0, "eq3": 0, "eq4": 1, "eq5": 0, "eq6": 1}
    assert {eq for eq, (_, variants) in lax.SIX_EQUATIONS.items()
            if list(variants) == ["printed"]} == {"eq1", "eq2", "eq3"}
    res, rel = lax.evaluate_equation(structured_ctx, "eq5", 0, 0, 0,
                                     variant="repaired")
    assert res == 0 and rel == 0
    with pytest.raises(ValueError):
        lax.evaluate_equation(structured_ctx, "eq9", 1, 0, 0)


def test_equation_variants_are_those_of_the_table(structured_ctx):
    # an equation with one form serves it for every variant; one with two
    # forms knows only their names
    c = structured_ctx
    assert (lax.evaluate_equation(c, "eq1", 2, 0, 0, "repaired")
            == lax.evaluate_equation(c, "eq1", 2, 0, 0, "printed"))
    with pytest.raises(ValueError, match="no variant 'confirmed'"):
        lax.evaluate_equation(c, "eq4", 1, 0, 0, "confirmed")
