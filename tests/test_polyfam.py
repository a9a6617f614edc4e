"""Polynomial families and functionals: construction, orthogonality relations,
closed-form oracles, degeneracy reporting."""

from collections import Counter
from fractions import Fraction

import mpmath as mp
import pytest
from mpmath import libmp

from dckp.numerics import DegeneracyError, ExtentError, digits_of_agreement
from dckp import detkit, moments, polyfam


def _L_functional(ctx, f, s, t):
    """sum_i f_i phi_i^{s,t}, the sqrt2-weighted endpoint functional."""
    return _pair(ctx, f, lambda i: ctx.ph(i, s, t))


def _weighted_integral(ctx, f, s, t):
    """sum_i f_i u_i^{s,t}, the plain integral against the weight."""
    return _pair(ctx, f, lambda i: ctx.u(i, s, t))


def _pair(ctx, f, vec):
    with ctx.wp():
        return sum((fi * vec(i) for i, fi in enumerate(f) if fi != 0),
                   ctx.zero())


def _inner(ctx, f, g, s, t):
    """Cauchy-kernel pairing sum_{i,j} f_i g_j m_{ij}^{s,t} of two
    coefficient sequences."""
    with ctx.wp():
        return sum((fi * gj * ctx.m(i, j, s, t)
                    for i, fi in enumerate(f) if fi != 0
                    for j, gj in enumerate(g) if gj != 0), ctx.zero())


# ---- Construction basics ----

def test_p0_is_one(generic_ctx):
    p = polyfam.poly(generic_ctx, "P", 0, 0, 0)
    assert p == (Fraction(1),)
    q = polyfam.poly(generic_ctx, "Q", 0, 1, 1)
    assert q == (Fraction(1),)


def test_families_are_monic(generic_ctx):
    for fam, n0 in (("P", 0), ("Q", 0), ("R", 1)):
        for n in range(n0, 4):
            pc = polyfam.poly(generic_ctx, fam, n, 0, 0)
            assert len(pc) == n + 1
            assert pc[n] == 1, (fam, n)


def test_extent_and_family_validation(generic_ctx):
    with pytest.raises(ExtentError):
        polyfam.poly(generic_ctx, "P", -1, 0, 0)
    with pytest.raises(ExtentError):
        polyfam.poly(generic_ctx, "R", 0, 0, 0)
    with pytest.raises(ValueError):
        polyfam.poly(generic_ctx, "S", 1, 0, 0)


def test_degenerate_normalizer_reported():
    tab = moments.synthetic_generic(1, 5, tmax=1)
    tab.bimoments[0][0] = Fraction(0)   # tau_1 = m_00 = 0
    ctx = detkit.DetContext(tab, tab.K)
    for _ in range(2):      # an error is not memoized
        with pytest.raises(DegeneracyError):
            polyfam.poly(ctx, "P", 1, 0, 0)


def test_poly_normalizes_once_per_context(monkeypatch):
    ctx = detkit.DetContext(moments.synthetic_structured(3, 9, tmax=1), 9)
    raw = Counter()
    eval_det = detkit.eval_det

    def counting(c, family, n, s, t):
        if family in polyfam.LOWEST_ORDER:
            raw[(family, n, s, t)] += 1
        return eval_det(c, family, n, s, t)

    monkeypatch.setattr(detkit, "eval_det", counting)
    first = {(fam, n): polyfam.poly(ctx, fam, n, 1, 0)
             for fam, low in polyfam.LOWEST_ORDER.items()
             for n in range(low, 4)}
    again = {key: polyfam.poly(ctx, *key, 1, 0) for key in first}
    assert again == first
    # one raw vector, so one division, per (family, n, s, t)
    assert raw == {(fam, n, 1, 0): 1 for fam, n in first}


def test_eval_poly_horner():
    assert polyfam.eval_poly([Fraction(1), Fraction(-3), Fraction(2)],
                             Fraction(1, 2)) == Fraction(0)
    assert polyfam.eval_poly((Fraction(-1), Fraction(1)), Fraction(5)) == 4
    # at an mpf x: the exact value of the same dyadic numbers, rounded once,
    # also where the terms cancel: (X - a)^3 near its root, which a Horner
    # rounded at every step reads as 3.9e-34, not 1.6e-34
    def exact(v):
        neg, man, exp, _ = mp.mpf(v)._mpf_
        return (-1) ** neg * man * Fraction(2) ** exp

    with mp.workdps(30):
        a = mp.mpf(1) / 7
        for coeffs, x in (
                ([mp.mpf(1) / 3, -mp.mpf(10) ** 20 / 7, mp.mpf(2) ** -90, 5],
                 a),
                ([-a ** 3, 3 * a ** 2, -3 * a, 1], a * (1 + mp.mpf(2) ** -40))):
            value = sum(exact(c) * exact(x) ** k
                        for k, c in enumerate(coeffs))
            assert polyfam.eval_poly(coeffs, x) == mp.mpf(
                libmp.from_rational(value.numerator, value.denominator,
                                    mp.mp.prec, libmp.round_nearest))
            assert mp.isnan(polyfam.eval_poly(coeffs + [mp.nan], x))


# ---- Orthogonality (exact, generic data) ----

def _unit(j):
    return [0] * j + [1]


def test_p_orthogonality_and_norm(generic_ctx):
    c = generic_ctx
    for n in range(4):
        P = polyfam.poly(c, "P", n, 0, 0)
        for j in range(n):
            assert _inner(c, P, _unit(j), 0, 0) == 0, (n, j)
        assert _inner(c, P, _unit(n), 0, 0) == c.coeff("h", n, 0, 0)
        assert _inner(c, P, P, 0, 0) == c.coeff("h", n, 0, 0)


def test_q_orthogonality_shifted_slots(generic_ctx):
    c = generic_ctx
    for n in range(4):
        Q = polyfam.poly(c, "Q", n, 0, 0)
        for j in range(1, n + 1):
            assert _inner(c, Q, _unit(j), 0, 0) == 0, (n, j)
        assert (_inner(c, Q, _unit(n + 1), 0, 0)
                == (detkit.eval_det(c, "xi", n + 1, 0, 0)
                    / detkit.eval_det(c, "xi", n, 0, 0)))


def test_r_orthogonality_and_L_annihilation(generic_ctx):
    c = generic_ctx
    for n in range(1, 4):
        R = polyfam.poly(c, "R", n, 0, 0)
        assert _L_functional(c, R, 0, 0) == 0
        for j in range(n - 1):
            assert _inner(c, R, _unit(j), 0, 0) == 0, (n, j)


def test_r_is_p_plus_e_times_previous(generic_ctx):
    c = generic_ctx
    for n in range(1, 4):
        R = polyfam.poly(c, "R", n, 0, 0)
        P = polyfam.poly(c, "P", n, 0, 0)
        Pm = list(polyfam.poly(c, "P", n - 1, 0, 0)) + [Fraction(0)]
        e = c.coeff("e", n, 0, 0)
        assert tuple(a + e * b for a, b in zip(P, Pm)) == R


def test_p_at_zero_is_signed_xi_ratio(generic_ctx):
    c = generic_ctx
    for n in range(4):
        P = polyfam.poly(c, "P", n, 0, 0)
        assert (polyfam.eval_poly(P, Fraction(0))
                * detkit.eval_det(c, "tau", n, 0, 0)
                == (-1) ** n * detkit.eval_det(c, "xi", n, 0, 0))


def test_L_of_p_is_sigma_ratio(generic_ctx):
    c = generic_ctx
    for n in range(4):
        P = polyfam.poly(c, "P", n, 0, 0)
        assert (_L_functional(c, P, 0, 0)
                == (detkit.eval_det(c, "sigma", n, 0, 0)
                    / detkit.eval_det(c, "tau", n, 0, 0)))


def test_weighted_integral_is_sigtilde_ratio(structured_ctx):
    c = structured_ctx
    for n in range(4):
        P = polyfam.poly(c, "P", n, 0, 0)
        assert (_weighted_integral(c, P, 0, 0)
                == (detkit.eval_det(c, "sigma_tilde", n, 0, 0)
                    / detkit.eval_det(c, "tau", n, 0, 0)))


# ---- Float mode oracles ----

def test_jacobi_p1_closed_form(jacobi_ctx, jacobi_policy):
    P1 = polyfam.poly(jacobi_ctx, "P", 1, 0, 0)
    with jacobi_ctx.wp():
        d = digits_of_agreement(P1[0], -1 / (4 * mp.ln(2)))
    assert P1[1] == 1
    assert d >= jacobi_policy.precision_digits - 8


def test_jacobi_orthogonality_float(jacobi_ctx, jacobi_policy):
    c = jacobi_ctx
    tol = jacobi_policy.rel_tol()
    with c.wp():
        for n in range(4):
            P = polyfam.poly(c, "P", n, 1, 1)
            h = c.coeff("h", n, 1, 1)
            for m in range(n):
                Pm = polyfam.poly(c, "P", m, 1, 1)
                assert abs(_inner(c, P, Pm, 1, 1)) / h < tol, (n, m)
            assert abs(_inner(c, P, P, 1, 1) / h - 1) < tol, n
