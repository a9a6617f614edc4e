"""Identity catalog: exact suites per mode, gating, variant adjudication,
shift-closure link, report serialization."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dckp import identities, moments, detkit
from dckp.numerics import DegeneracyError, ExtentError

# ---- Gating ----

def test_gates_per_mode():
    g = identities.gates
    assert g("synthetic-generic", "dckp", 2, 0)
    assert not g("synthetic-generic", "tri1", 0, 0)
    assert g("synthetic-structured", "tri1", 2, 0)
    assert g("synthetic-structured", "4trr", 0, 0)
    assert not g("synthetic-structured", "4trr", 1, 0)
    assert all(g("jacobi-float", i, 2, 0) for i in identities.CATALOG_IDS)


def test_catalog_shape():
    assert len(identities.CATALOG_IDS) == 25
    assert set(identities.VARIANT_IDS) <= set(identities.CATALOG_IDS)
    assert identities.GENERIC_GATES <= set(identities.CATALOG_IDS)


# ---- Exact suites ----

def test_generic_suite_all_exact(generic_ctx):
    recs = identities.run_suite(generic_ctx, 3, 2, 2)
    assert recs == sorted(recs, key=lambda r: (r.identity_id, r.n, r.s, r.t))
    skipped = [r for r in recs if r.skipped is not None]
    assert skipped and all(r.identity_id == "4trr" for r in skipped)
    live = [r for r in recs if r.skipped is None]
    assert live and all(r.residual_abs == 0 and r.passed for r in live)
    summ = identities.suite_summary(recs)
    assert summ["all_gating_pass"]
    assert summ["max_residual_rel"]["dckp"] == 0


def test_structured_suite_all_exact(structured_ctx):
    recs = identities.run_suite(structured_ctx, 3, 1, 1)
    live = [r for r in recs if r.skipped is None]
    assert all(r.residual_abs == 0 and r.passed for r in live)
    # the recurrence needs singles, which exist only at the base t
    fours = [r for r in recs if r.identity_id == "4trr"]
    assert all(r.skipped == "mode" for r in fours if r.t > 0)
    assert any(r.skipped is None and r.gating for r in fours if r.t == 0)
    assert identities.suite_summary(recs)["all_gating_pass"]


@settings(max_examples=10, deadline=None)
@given(mode=st.sampled_from(["synthetic-structured", "synthetic-generic"]),
       seed=st.integers(0, 10 ** 6), K=st.integers(6, 8),
       s0=st.integers(0, 2), t0=st.integers(0, 2))
def test_catalog_exact_at_base_offsets(mode, seed, K, s0, t0):
    # every gating site the table can evaluate, with s >= s0 and t >= t0,
    # gives residual exactly 0, and every id that gates in the mode is reached;
    # phi up to t0 + tmax lets t evolve to t0 + tmax + 1
    tmax = 3
    ctx = detkit.DetContext(moments.build_base_table(mode, s0, t0, K, seed=seed,
                                                     tmax=tmax), K)
    reached = set()
    for ident in identities.CATALOG_IDS:
        for n in range(identities.N_MIN.get(ident, 0), K):
            for s in range(s0, s0 + K):
                for t in range(t0, t0 + tmax + 2):
                    if not identities.gates(mode, ident, t, t0):
                        continue
                    try:
                        res, _ = identities.evaluate(ctx, ident, n, s, t)
                    except (ExtentError, DegeneracyError):
                        continue
                    assert res == 0, (ident, n, s, t)
                    reached.add(ident)
    assert reached == {i for i in identities.CATALOG_IDS
                       if identities.gates(mode, i, t0, t0)}


def test_run_suite_rejects_unknown_id(generic_ctx):
    with pytest.raises(ValueError):
        identities.run_suite(generic_ctx, 1, 0, 0, ids=["bogus"])


def test_single_site_records(structured_ctx):
    c = structured_ctx
    for ident, n, s in (("4trr", 2, 0), ("prop2.5", 2, 1), ("prop2.6", 2, 1),
                        ("spec1", 2, 1), ("dt1", 2, 1), ("trans2", 2, 1),
                        ("dckp", 1, 0), ("tri2", 1, 0)):
        rec = identities.make_record(c, ident, n, s, 0)
        assert rec.skipped is None and rec.gating, ident
        assert rec.residual_abs == 0 and rec.passed, ident


# ---- Integer zero test ----

def _catalog_run(ctx):
    recs = identities.run_suite(ctx, 4, 2, 2)
    return ([(r.identity_id, r.n, r.s, r.t, r.residual_abs, r.residual_rel,
              r.passed, r.skipped) for r in recs],
            identities.variant_report(ctx, 4, 2, 2))


@pytest.mark.parametrize("build", [
    lambda: moments.synthetic_structured(1, 9, tmax=3),
    lambda: moments.synthetic_generic(1, 9, tmax=3),
    lambda: moments.synthetic_structured(4, 8, tmax=3, s0=1, t0=2),
    lambda: moments.synthetic_generic(6, 8, tmax=3, s0=2, t0=1),
])
def test_integer_zero_test_matches_fraction_path(build, monkeypatch):
    # the same records and reports when every residual is formed as a
    # Fraction; the printed variants carry nonzero residuals
    table = build()
    ctx = detkit.DetContext(table, table.K)
    fast = _catalog_run(ctx)
    monkeypatch.setattr(identities, "_vanishes", lambda products: False)
    assert _catalog_run(ctx) == fast
    assert any(r[4] == 0 for r in fast[0])
    assert all(e["variants"]["printed"]["max_residual_abs"] != "0/1"
               for e in fast[1].values())


def test_integer_zero_test_sees_a_wrong_value(monkeypatch):
    ctx = detkit.DetContext(moments.synthetic_structured(3, 9, tmax=3), 9)
    ctx.tau(3, 1, 1)
    ctx.memo[("tau", 3, 1, 1)] += Fraction(1, 7)
    for family, fn in (("P", ctx.Praw), ("R", ctx.Rraw)):
        coeffs = list(fn(3, 1, 1))
        coeffs[1] += 1
        ctx.memo[(family, 3, 1, 1)] = coeffs
    fast = _catalog_run(ctx)
    failing = {r[0] for r in fast[0] if r[6] is False}
    assert failing >= {"eq1", "tri1", "dckp", "prop2.5", "spec1", "dt1",
                       "trans2", "propr"}
    monkeypatch.setattr(identities, "_vanishes", lambda products: False)
    assert _catalog_run(ctx) == fast


# ---- Float suite ----

def test_jacobi_suite_passes(jacobi_ctx, jacobi_policy):
    recs = identities.run_suite(jacobi_ctx, 3, 1, 1, policy=jacobi_policy)
    live = [r for r in recs if r.skipped is None]
    assert live and all(r.passed for r in live)
    tol = jacobi_policy.rel_tol()
    assert all(r.residual_rel < tol for r in live)


# ---- Variant adjudication ----

def test_variant_report_printed_fails_confirmed_passes(generic_ctx):
    rep = identities.variant_report(generic_ctx, 3, 1, 1)
    for ident in identities.VARIANT_IDS:
        entry = rep[ident]
        assert entry["chosen"] == "confirmed", ident
        assert entry["variants"]["confirmed"]["passes"], ident
        assert not entry["variants"]["printed"]["passes"], ident
        assert entry["variants"]["printed"]["sites"] > 0


def test_variant_report_jacobi(jacobi_ctx, jacobi_policy):
    rep = identities.variant_report(jacobi_ctx, 2, 1, 1, policy=jacobi_policy,
                                    ids=("tau-hat-rel", "xi-psi-sq"))
    for ident in ("tau-hat-rel", "xi-psi-sq"):
        assert rep[ident]["chosen"] == "confirmed"


def test_printed_variant_residual_is_nonzero_everywhere(generic_ctx):
    # the sign-contested forms fail at every site, not just somewhere
    for ident in ("3.2a", "xi-psi-sq", "tau-hat-rel"):
        for n in range(1, 4):
            res, _ = identities.evaluate(generic_ctx, ident, n, 0, 0,
                                         variant="printed")
            assert res != 0, (ident, n)
            res, _ = identities.evaluate(generic_ctx, ident, n, 0, 0,
                                         variant="confirmed")
            assert res == 0, (ident, n)


# ---- Shift closure ----

def test_shift_closure_link(generic_ctx, structured_ctx):
    # m_ij -> m_i,j+1 maps tau -> xi and sigma -> psi, carrying the t-step
    # bilinear onto a xi/psi form that differs from the printed xi-psi-sq
    # relation by exactly 2 psi^2; neither vanishes, while the confirmed
    # form, psi * sigma_row in place of psi^2, does
    for c in (generic_ctx, structured_ctx):
        X, PS, SR = c.xi, c.psi, c.sigma_row
        for n in range(3):
            cross = X(n + 1, 0, 1) * X(n, 0, 0) - X(n, 0, 1) * X(n + 1, 0, 0)
            subs = cross + PS(n, 0, 0) ** 2
            printed = cross - PS(n, 0, 0) ** 2
            confirmed = cross + PS(n, 0, 0) * SR(n, 0, 0)
            assert subs - printed - 2 * PS(n, 0, 0) ** 2 == 0
            assert confirmed == 0
            assert identities.evaluate(c, "xi-psi-sq", n, 0, 0, "printed")[0] \
                == abs(printed)
            if n >= 1:
                assert printed != 0
                assert subs != 0


# ---- Reports ----

def test_record_json_shape(structured_ctx):
    recs = identities.run_suite(structured_ctx, 1, 0, 1, ids=["e1", "4trr"])
    lines = [json.loads(json.dumps(r.to_json_dict())) for r in recs]
    assert any("skipped" in d for d in lines)
    for d in lines:
        assert {"id", "n", "s", "t", "pass", "mode"} <= set(d)
        if "skipped" not in d:
            assert "residual_abs" in d and "residual_rel" in d
