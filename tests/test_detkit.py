"""Determinant kernel and family evaluators: exact vs float agreement, edge
conventions, closed-form oracles, coefficient ratios."""

import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from dckp.numerics import DegeneracyError, ExtentError, digits_of_agreement
from dckp import detkit, moments

# ---- Determinant kernels ----

def _rand_matrix(rng, n):
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            for _ in range(n)]


def test_det_exact_known_values():
    assert detkit.det_exact([]) == 1
    assert detkit.det_exact([[Fraction(3, 2)]]) == Fraction(3, 2)
    M = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    assert detkit.det_exact(M) == -2
    singular = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert detkit.det_exact(singular) == 0


def test_det_exact_desnanot_jacobi():
    """det(A) det(core) = det(A11) det(Ann) - det(A1n) det(An1) on random data."""
    rng = random.Random("dj:0")
    for _ in range(5):
        A = _rand_matrix(rng, 4)

        def minor(drop_rows, drop_cols):
            return detkit.det_exact(
                [[A[i][j] for j in range(4) if j not in drop_cols]
                 for i in range(4) if i not in drop_rows])

        lhs = detkit.det_exact(A) * minor({0, 3}, {0, 3})
        rhs = (minor({0}, {0}) * minor({3}, {3})
               - minor({0}, {3}) * minor({3}, {0}))
        assert lhs == rhs


def test_det_float_matches_exact():
    rng = random.Random("detfloat:0")
    for trial in range(50):
        n = rng.randint(1, 5)
        A = _rand_matrix(rng, n)
        ex = detkit.det_exact(A)
        with mp.workdps(55):
            Af = [[mp.mpf(v.numerator) / v.denominator for v in row] for row in A]
        fl = detkit.det_float(Af, 40)
        with mp.workdps(40):
            if ex == 0:
                assert abs(fl) < mp.mpf(10) ** -25
            else:
                assert digits_of_agreement(fl, mp.mpf(ex.numerator) / ex.denominator) >= 25


def test_det_float_reports_exact_zero_pivot():
    with pytest.raises(DegeneracyError):
        detkit.det_float([[mp.mpf(0), mp.mpf(0)], [mp.mpf(0), mp.mpf(0)]], 30)


# ---- Edge conventions ----

def test_family_edge_conventions(generic_ctx):
    c = generic_ctx
    assert c.tau(-1, 0, 0) == 0 and c.tau(0, 0, 0) == 1
    assert c.xi(-1, 0, 0) == 0 and c.xi(0, 0, 0) == 1
    assert c.tauhat(0, 0, 0) == 1
    assert c.sigma(-1, 0, 0) == 0 and c.sigma(0, 0, 0) == c.ph(0, 0, 0)
    assert c.psi(0, 0, 0) == c.ph(0, 0, 0)
    assert c.sigtilde(-1, 0, 0) == 1 and c.sigtilde(-2, 0, 0) == 0
    assert c.tautilde(0, 0, 0) == 0 and c.tautilde(-1, 0, 0) == 0
    assert c.tau(1, 0, 0) == c.m(0, 0, 0, 0)
    assert c.tautilde(1, 0, 0) == c.m(1, 0, 0, 0)


def test_coefficient_edges(structured_ctx):
    c = structured_ctx
    assert c.coeff_a(0, 0, 0) == 0
    assert c.coeff_c(0, 0, 0) == 0
    assert c.coeff_alpha(0, 0, 0) == 0
    assert c.psub(0, 0, 0) == 0
    assert c.coeff_d(0, 0, 0) == 0
    assert c.coeff_e(0, 0, 0) == 0
    assert c.coeff_g(0, 0, 0) == 0


def test_extent_errors(generic_ctx):
    c = generic_ctx
    with pytest.raises(ExtentError):
        c.m(20, 0, 0, 0)
    with pytest.raises(ExtentError):
        c.m(0, 0, 0, 9)   # beyond the evolved table stack
    with pytest.raises(ExtentError):
        c.u(0, 0, 0)      # generic mode has no singles
    with pytest.raises(ExtentError):
        c.Praw(-2, 0, 0)


# ---- Closed-form oracles on the true weight ----

def test_jacobi_family_closed_forms(jacobi_ctx, jacobi_policy):
    c = jacobi_ctx
    with c.wp():
        L = mp.ln(2)
        checks = (
            (c.tau(1, 0, 0), 2 * L),
            (c.tau(2, 0, 0), mp.mpf(4) / 3 * L * (1 - L) - mp.mpf(1) / 4),
            (c.sigma(0, 0, 0), mp.sqrt(2) * L),
            (c.psub(1, 0, 0), -1 / (4 * L)),
            (c.coeff_c(1, 0, 0),
             (mp.mpf(4) / 3 * L * (1 - L) - mp.mpf(1) / 4) / (4 * L ** 2)),
        )
        worst = min(digits_of_agreement(a, b) for a, b in checks)
    assert worst >= jacobi_policy.precision_digits - 8


def test_jacobi_positivity_small_grid(jacobi_ctx):
    c = jacobi_ctx
    with c.wp():
        for n in range(4):
            for s in range(2):
                for t in range(2):
                    assert c.tau(n, s, t) > 0
                    assert c.xi(n, s, t) > 0


# ---- Coefficient identities ----

def _alpha_difference(c, n, s, t):
    """alpha_n as beta_n - xi_{n+1} xi_n / (tau_{n+1} tau_n^{s+1})."""
    return c.coeff_beta(n, s, t) - (c.xi(n + 1, s, t) * c.xi(n, s, t)
                                    / (c.tau(n + 1, s, t) * c.tau(n, s + 1, t)))


def test_alpha_forms_agree_exactly(generic_ctx, structured_ctx):
    # the ratio and beta-difference forms of alpha_n agree exactly iff the
    # tau/xi bilinear identity holds at (n, s, t)
    for c in (generic_ctx, structured_ctx):
        for n in range(1, 4):
            for s in range(2):
                assert c.coeff_alpha(n, s, 0) == _alpha_difference(c, n, s, 0), \
                    (n, s)


def test_chat_definition(structured_ctx):
    c = structured_ctx
    for n in range(1, 4):
        assert c.coeff_chat(n, 0, 0) == (c.coeff_c(n, 0, 0)
                                         - 2 * c.coeff_a(n, 0, 0)
                                         * c.coeff_b(n - 1, 0, 0))
    assert c.coeff_chat(0, 0, 0) == 0


def test_norm_is_tau_ratio(generic_ctx):
    c = generic_ctx
    for n in range(3):
        assert c.norm(n, 0, 0) == c.tau(n + 1, 0, 0) / c.tau(n, 0, 0)


# ---- Literal-matrix oracle for every family ----

def _literal(ctx, family, n, s, t, det):
    """Each family's matrix written out from the detkit module docstring,
    with its edge values; cofactor families by Laplace expansion along the
    x^i column."""
    def m(i, j):
        return ctx.m(i, j, s, t)

    def ph(i):
        return ctx.ph(i, s, t)

    if family in ("tau", "xi", "tau_hat"):
        c = {"tau": 0, "xi": 1, "tau_hat": 2}[family]
        if n <= 0:
            return 1 if n == 0 else 0
        return det([[m(i, j + c) for j in range(n)] for i in range(n)])
    if family in ("sigma", "psi"):
        c = 1 if family == "psi" else 0
        if n < 0:
            return 0
        return det([[m(i, j + c) for j in range(n)] + [ph(i)]
                    for i in range(n + 1)])
    if family == "sigma_row":
        if n < 0:
            return 0
        return det([[m(i + 1, j) for j in range(n)] + [ph(i + 1)]
                    for i in range(n + 1)])
    if family == "sigma_tilde":
        if n < 0:
            return 1 if n == -1 else 0
        return det([[m(i, j) for j in range(n)] + [ctx.u(i, s, t)]
                    for i in range(n + 1)])
    if family == "tau_tilde":
        if n <= 0:
            return 0
        return det([[m(i, j) for j in range(n)]
                    for i in list(range(n - 1)) + [n]])
    if family in ("P", "Q"):
        c = 1 if family == "Q" else 0
        if n < -1:
            raise ExtentError("polynomial order below -1")

        def row(i):
            return [m(i, j + c) for j in range(n)]
    else:
        if n < 1:
            raise ExtentError("third-family polynomial needs order >= 1")

        def row(i):
            return [ph(i)] + [m(i, j) for j in range(n - 1)]
    minors = [det([row(i) for i in range(n + 1) if i != k]) for k in range(n + 1)]
    with ctx.wp():
        return [d if (k + n) % 2 == 0 else -d for k, d in enumerate(minors)]


def _check_against_literal(ctx, det, ss, ts, ns=range(-2, 5)):
    assert set(detkit.FAMILY_SPECS) == {
        "tau", "xi", "tau_hat", "sigma", "psi", "sigma_row", "sigma_tilde",
        "tau_tilde", "P", "Q", "R"}
    checked = 0
    for family in detkit.FAMILY_SPECS:
        for n in ns:
            for s in ss:
                for t in ts:
                    try:
                        want = _literal(ctx, family, n, s, t, det)
                    except ExtentError:
                        with pytest.raises(ExtentError):
                            detkit.eval_det(ctx, family, n, s, t)
                        continue
                    got = detkit.eval_det(ctx, family, n, s, t)
                    assert got == want, (family, n, s, t)
                    checked += 1
    return checked


def test_families_match_literal_matrices_exact(generic_ctx, structured_ctx):
    for ctx in (generic_ctx, structured_ctx):
        assert _check_against_literal(ctx, detkit.det_exact, (0, 1), (0, 1)) > 250
    # a base table at nonzero s0/t0: absolute s and t index into it
    offset = detkit.DetContext(moments.synthetic_structured(5, 9, tmax=2,
                                                            s0=2, t0=1))
    assert _check_against_literal(offset, detkit.det_exact, (2, 3), (1, 2)) > 250


@settings(max_examples=10, deadline=None)
@given(mode=st.sampled_from(["synthetic-structured", "synthetic-generic"]),
       seed=st.integers(0, 10 ** 6), K=st.integers(6, 9),
       s0=st.integers(0, 2), t0=st.integers(0, 2))
def test_exact_sweep_matches_literal_matrices(mode, seed, K, s0, t0):
    # every family, every order up to past the table's extent (ExtentError
    # from the minor) and every site of a fresh context, each read from the
    # frame sweeps, against det_exact of the literal matrix
    ctx = detkit.DetContext(moments.build_base_table(mode, s0, t0, K, seed=seed,
                                                     tmax=2))
    assert _check_against_literal(ctx, detkit.det_exact, range(s0, s0 + 3),
                                  range(t0, t0 + 4), range(-2, K + 1)) > 0


def test_vanishing_leading_minor_falls_back_per_minor(monkeypatch):
    tab = moments.synthetic_generic(3, 8, tmax=2)
    m = tab.bimoments
    m[1][1] = m[0][1] ** 2 / m[0][0]        # tau_2 = 0 at (s, t) = (0, 0)
    ctx = detkit.DetContext(tab)
    real = detkit.det_exact
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(detkit, "det_exact", counted)
    fallback = set()
    for family in detkit.FAMILY_SPECS:
        for n in range(-1, 9):
            try:
                want = _literal(ctx, family, n, 0, 0, real)
            except ExtentError:
                with pytest.raises(ExtentError):
                    detkit.eval_det(ctx, family, n, 0, 0)
                continue
            before = len(calls)
            assert detkit.eval_det(ctx, family, n, 0, 0) == want, (family, n)
            if len(calls) > before:
                fallback.add((family, n))
    assert ctx.tau(1, 0, 0) != 0 and ctx.tau(2, 0, 0) == 0
    # the sweeps of [m cols 0.. | ...] stop at the zero divisor tau_2, after
    # the step it divides: tau_3 and tau_tilde_3 are their last values,
    # sigma_2, P_2 and R_2 those of their borders.  Every order above, up to
    # the last one the table holds, comes per minor.
    reach = {"tau": (3, 8), "tau_tilde": (3, 7), "sigma": (2, 7), "P": (2, 7),
             "R": (2, 7)}
    assert fallback == {(f, n) for f, (last, top) in reach.items()
                        for n in range(last + 1, top + 1)}


def test_families_match_literal_matrices_float(jacobi_ctx):
    # equal to the last bit: the same entries in the same order, so the same
    # full-pivot elimination; evaluated at mpmath's default precision, which
    # must not leak into the memoized values
    def det(rows):
        return detkit.det_float(rows, jacobi_ctx.dps)

    assert _check_against_literal(jacobi_ctx, det, (0, 1), (0, 1)) > 250


# ---- Module-level wrappers ----

def test_eval_det_dispatch(generic_ctx):
    assert detkit.eval_det(generic_ctx, "tau", 2, 0, 1) == generic_ctx.tau(2, 0, 1)
    assert detkit.eval_det(generic_ctx, "sigma_row", 1, 0, 0) == \
        generic_ctx.sigma_row(1, 0, 0)
    with pytest.raises(ValueError):
        detkit.eval_det(generic_ctx, "nope", 0, 0, 0)


def test_full_table_stack():
    tab = moments.synthetic_generic(1, 6, tmax=3)
    ctx = detkit.DetContext(tab)
    assert sorted(ctx.tables) == [0, 1, 2, 3, 4]
