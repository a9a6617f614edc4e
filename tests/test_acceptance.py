"""Acceptance gate.  Each criterion is one test that prints a single
CRITERION n: PASS/FAIL line (bypassing capture so the line always lands in the
run log) and then asserts with the pinned tolerances.  Failures here mean the
artifact does not meet its contract; nothing in this module may be loosened
without a matching ledger entry."""

import sys
import time
from fractions import Fraction

import mpmath as mp
import pytest

from dckp.numerics import (TolerancePolicy, digits_of_agreement,
                           relative_residual, worse)
from dckp import quadrature, moments, detkit, polyfam, identities, lax, lattice

PREC = 120
GUARD = 40
POLICY = TolerancePolicy(precision_digits=PREC, guard_digits=GUARD)


_CAP = None


@pytest.fixture(autouse=True)
def _passthrough(capfd):
    # let the CRITERION lines escape fd-level capture so every run log
    # carries exactly one pass/fail line per criterion
    global _CAP
    _CAP = capfd
    yield
    _CAP = None


def _report(num, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    extra = " (%s)" % detail if detail else ""
    line = "CRITERION %d: %s%s" % (num, tag, extra)
    if _CAP is not None:
        with _CAP.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


def _parse_residual(txt):
    if txt is None:
        return None
    if "/" in txt:
        return Fraction(txt)
    return mp.mpf(txt)


@pytest.fixture(scope="module")
def jac_ctx():
    table = moments.build_jacobi(9, POLICY, tmax=3)
    return detkit.DetContext(table, table.K)


# ---- 1: synthetic-generic quartic and bilinear gates, 20 seeds ----

def test_criterion_1_generic_exact_gates():
    ids = ("e1", "e2", "e3", "e4", "dckp")
    start = time.perf_counter()
    worst = Fraction(0)
    sites = 0
    for seed in range(20):
        ctx = detkit.DetContext(moments.synthetic_generic(seed, 8, tmax=3), 8)
        for ident in ids:
            for n in range(5):
                for s in range(3):
                    for t in range(3):
                        res, _ = identities.evaluate(ctx, ident, n, s, t)
                        worst = max(worst, abs(res))
                        sites += 1
    elapsed = time.perf_counter() - start
    ok = worst == 0 and elapsed < 60.0
    _report(1, ok, "%d sites, worst |residual| = %s, %.1fs" % (sites, worst, elapsed))
    assert worst == 0
    assert elapsed < 60.0


# ---- 2: structured four-term recurrence, 10 seeds ----

def test_criterion_2_structured_recurrence():
    start = time.perf_counter()
    worst = Fraction(0)
    sites = 0
    for seed in range(10):
        ctx = detkit.DetContext(moments.synthetic_structured(seed, 8, tmax=1), 8)
        for n in range(1, 4):
            for s in (0, 1):
                res, _ = identities.evaluate(ctx, "4trr", n, s, 0)
                worst = max(worst, abs(res))
                sites += 1
    elapsed = time.perf_counter() - start
    ok = worst == 0 and elapsed < 30.0
    _report(2, ok, "%d sites, worst |residual| = %s, %.1fs" % (sites, worst, elapsed))
    assert worst == 0
    assert elapsed < 30.0


# ---- 3: full catalog on the Jacobi weight ----

def test_criterion_3_jacobi_full_catalog(jac_ctx):
    start = time.perf_counter()
    recs = identities.run_suite(jac_ctx, 4, 2, 2)
    elapsed = time.perf_counter() - start
    live = [r for r in recs if r.skipped is None]
    skipped = [r for r in recs if r.skipped is not None]
    ids_seen = {r.identity_id for r in live}
    worst = max(r.residual_rel for r in live)
    ok = (not skipped and ids_seen == set(identities.CATALOG_IDS)
          and worst < mp.mpf("1e-80") and elapsed < 300.0)
    _report(3, ok, "%d records, worst rel residual = %s, %.1fs"
            % (len(live), mp.nstr(worst, 3), elapsed))
    assert not skipped
    assert ids_seen == set(identities.CATALOG_IDS)
    assert worst < mp.mpf("1e-80")
    assert elapsed < 300.0


# ---- 4: quadrature anchors ----

def test_criterion_4_quadrature_anchors():
    with mp.workdps(POLICY.working_dps):
        m00 = quadrature.bimoment_entry(0, 0, 0, 0, POLICY)
        anchor = abs(m00 - 2 * mp.ln(2))

        worst_anti = mp.mpf(0)
        for t in (0, 1, 2):
            bm = quadrature.bimoment_table(14, 0, t, POLICY)
            uv = quadrature.single_vector(13, 0, t, POLICY)
            for i in range(13):
                for j in range(13 - i):
                    lhs = bm[i + 1][j] + bm[i][j + 1]
                    rhs = uv[i] * uv[j]
                    worst_anti = max(worst_anti, relative_residual(
                        lhs - rhs, max(abs(lhs), abs(rhs))))

        base = moments.build_jacobi(3, POLICY, tmax=1)
        evolved = base.evolve_t()
        direct = quadrature.bimoment_entry(0, 0, 0, 1, POLICY)
        rank1 = abs(evolved.m(0, 0) - direct)
    ok = (anchor < mp.mpf("1e-100") and worst_anti < mp.mpf("1e-100")
          and rank1 < mp.mpf("1e-90"))
    _report(4, ok, "|m00-2ln2| = %s, antidiagonal = %s, rank-one = %s"
            % (mp.nstr(anchor, 3), mp.nstr(worst_anti, 3), mp.nstr(rank1, 3)))
    assert anchor < mp.mpf("1e-100")
    assert worst_anti < mp.mpf("1e-100")
    assert rank1 < mp.mpf("1e-90")


# ---- 5: biorthogonality of the P family against itself ----

def _inner(ctx, f, g, s, t):
    """Cauchy-kernel pairing sum_{i,j} f_i g_j m_{ij}^{s,t}, under ctx.wp()."""
    return sum((fi * gj * ctx.m(i, j, s, t) for i, fi in enumerate(f)
                for j, gj in enumerate(g)), ctx.zero())


def test_criterion_5_orthogonality(jac_ctx):
    tol = mp.mpf("1e-80")
    worst_off = mp.mpf(0)
    worst_diag = mp.mpf(0)
    with jac_ctx.wp():
        for s in (0, 1, 2):
            for t in (0, 1, 2):
                polys = {n: polyfam.poly(jac_ctx, "P", n, s, t) for n in range(5)}
                for n in range(5):
                    h = jac_ctx.coeff("h", n, s, t)
                    for m in range(n):
                        v = _inner(jac_ctx, polys[n], polys[m], s, t)
                        worst_off = max(worst_off, abs(v / h))
                    v = _inner(jac_ctx, polys[n], polys[n], s, t)
                    worst_diag = max(worst_diag, abs(v / h - 1))
    ok = worst_off < tol and worst_diag < tol
    _report(5, ok, "off-diagonal = %s, diagonal = %s"
            % (mp.nstr(worst_off, 3), mp.nstr(worst_diag, 3)))
    assert worst_off < tol
    assert worst_diag < tol


# ---- 6: Lax compatibility, eigen relations, precision scaling ----

def _lax_block_worst(precision):
    policy = TolerancePolicy(precision_digits=precision, guard_digits=GUARD)
    table = moments.build_jacobi(13, policy, tmax=2)
    ctx = detkit.DetContext(table, table.K)
    worst_compat = worst_eigen = None   # a NaN anywhere is the worst
    with mp.workdps(policy.working_dps):
        for s in (0, 1):
            for t in (0, 1):
                comp = lax.compat_residuals(ctx, 8, s, t)
                for key in ("compat_MN", "compat_LN", "compat_ML"):
                    assert comp[key] is not None
                    if worse(comp[key], worst_compat):
                        worst_compat = comp[key]
                eig = lax.eigen_residuals(ctx, 8, s, t)
                for key in ("L_eigen", "N_shift", "M_shift"):
                    if worse(eig[key], worst_eigen):
                        worst_eigen = eig[key]
    return worst_compat, worst_eigen


def test_criterion_6_lax_compatibility():
    c120, e120 = _lax_block_worst(120)
    c240, e240 = _lax_block_worst(240)
    shrink = max(c120, e120) / max(c240, e240)
    ok = (c120 < mp.mpf("1e-60") and e120 < mp.mpf("1e-80")
          and shrink >= mp.mpf("1e30"))
    _report(6, ok, "compat = %s, eigen = %s, shrink x%s"
            % (mp.nstr(c120, 3), mp.nstr(e120, 3), mp.nstr(shrink, 3)))
    assert c120 < mp.mpf("1e-60")
    assert e120 < mp.mpf("1e-80")
    assert shrink >= mp.mpf("1e30")


# ---- 7: corner solve propagates the lattice ----

def test_criterion_7_propagation():
    worst_exact = Fraction(0)
    for mode in ("synthetic-generic", "synthetic-structured"):
        base = lattice.build_lattice(mode, 4, 2, 2, {"seed": 0})
        prop = lattice.propagate(base, 0, 2)
        rep = lattice.propagation_report(prop, base)
        assert rep["sites"] > 0
        worst_exact = max(worst_exact, abs(rep["max_abs"]))
    jbase = lattice.build_lattice("jacobi-float", 4, 2, 2,
                                  {"precision": PREC, "guard": GUARD})
    jprop = lattice.propagate(jbase, 0, 2)
    jrep = lattice.propagation_report(jprop, jbase)
    ok = worst_exact == 0 and jrep["max_rel"] < mp.mpf("1e-60")
    _report(7, ok, "exact worst = %s, jacobi rel = %s"
            % (worst_exact, mp.nstr(jrep["max_rel"], 3)))
    assert worst_exact == 0
    assert jrep["max_rel"] < mp.mpf("1e-60")


# ---- 8: positivity of the normalization determinants ----

def test_criterion_8_positivity():
    lat = lattice.build_lattice("jacobi-float", 5, 2, 2,
                                {"precision": PREC, "guard": GUARD})
    checked = 0
    floor = None
    for (f, n, s, t), v in lat.values.items():
        if f not in ("tau", "xi"):
            continue
        assert v > 0, "%s_%d^{%d,%d} not positive" % (f, n, s, t)
        floor = v if floor is None else min(floor, v)
        checked += 1
    ok = checked > 0 and floor > 0
    _report(8, ok, "%d determinants, smallest = %s" % (checked, mp.nstr(floor, 3)))
    assert ok


# ---- 9: adjudication reports carry per-variant residuals ----

def test_criterion_9_adjudication(jac_ctx):
    tol = mp.mpf("1e-60")
    six = lax.verify_six_equations(jac_ctx, 4, 0, 0, policy=POLICY)
    ok = True
    details = []
    for eq in lax.SIX_EQUATIONS:
        entry = six["equations"][eq]
        best = None
        for vdata in entry["variants"].values():
            if vdata["sites"] == 0:
                continue
            r = _parse_residual(vdata["max_residual_rel"])
            best = r if best is None else min(best, r)
        ok &= best is not None and best < tol and entry["chosen"] is not None
        details.append("%s:%s" % (eq, entry["chosen"]))
    sign = identities.variant_report(jac_ctx, 4, 2, 2,
                                     ids=("tau-hat-rel",))["tau-hat-rel"]
    conf = _parse_residual(sign["variants"]["confirmed"]["max_residual_rel"])
    ok &= conf < tol and sign["chosen"] == "confirmed"
    details.append("tau-hat-rel:%s" % sign["chosen"])
    _report(9, bool(ok), ", ".join(details))
    for eq in lax.SIX_EQUATIONS:
        entry = six["equations"][eq]
        assert entry["chosen"] is not None
        best = min(_parse_residual(v["max_residual_rel"])
                   for v in entry["variants"].values() if v["sites"] > 0)
        assert best < tol
    assert sign["chosen"] == "confirmed"
    assert conf < tol
