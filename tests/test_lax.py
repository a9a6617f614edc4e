"""Lax operators: band structure, compatibility products, eigen relations,
six scalar equations with variant adjudication."""

from collections import Counter
from fractions import Fraction

import pytest

from dckp.numerics import ConfigError, ExtentError
from dckp import detkit, lax, polyfam

# ---- Operator structure ----

def test_operator_truncation_requires_k5(generic_ctx, structured_ctx):
    for build in (lax.build_L, lax.build_N, lax.build_M):
        with pytest.raises(ConfigError, match="needs K >= 5, got 4"):
            build(generic_ctx, 4, 0, 0)
        op = build(structured_ctx, 5, 0, 0)
        assert len(op) == 5 and all(len(row) == 5 for row in op)


def test_n_operator_maps_p_column(structured_ctx):
    # row i of N applied to [P_k(x)] equals x P_i^{s+1}(x) off the last row
    c = structured_ctx
    K = 5
    N = lax.build_N(c, K, 0, 0)
    x = Fraction(1, 3)
    p0 = [polyfam.eval_poly(polyfam.poly(c, "P", k, 0, 0), x) for k in range(K)]
    p1 = [polyfam.eval_poly(polyfam.poly(c, "P", k, 1, 0), x) for k in range(K)]
    for i in range(K - 1):
        img = sum(N[i][k] * p0[k] for k in range(K))
        assert img == x * p1[i], i


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
    kind = {frozenset((1, 0, -1, -2)): "L", frozenset((1, 0)): "N",
            frozenset((0, -1)): "M"}
    built = Counter()
    build = lax._operator

    def counting(ctx, sub, bands):
        built[kind[frozenset(bands)]] += 1
        return build(ctx, sub, bands)

    monkeypatch.setattr(lax, "_operator", counting)
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
            lax.build_L(structured_ctx, 6, 0, 1)


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
            if variants == ("printed",)} == {"eq1", "eq2", "eq3"}
    res, scales = lax.evaluate_equation(structured_ctx, "eq5", 0, 0, 0,
                                        variant="repaired")
    assert res == 0 and scales
    with pytest.raises(ValueError):
        lax.evaluate_equation(structured_ctx, "eq9", 1, 0, 0)
