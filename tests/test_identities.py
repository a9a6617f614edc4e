"""Identity catalog: exact suites per mode, gating, variant adjudication,
shift-closure link, report serialization."""

import json

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
                                                     tmax=tmax))
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


def test_single_site_wrappers(structured_ctx):
    c = structured_ctx
    assert identities.verify_recurrence(c, 2, 0, 0).residual_abs == 0
    with pytest.raises(ValueError):
        identities.verify_recurrence(c, 0, 0, 0)
    recs = identities.verify_transformations(c, 2, 1, 0)
    assert {r.identity_id for r in recs} == {"prop2.5", "prop2.6", "spec1",
                                             "dt1", "trans2"}
    assert all(r.residual_abs == 0 for r in recs)
    assert identities.verify_dckp(c, 1, 0, 0).residual_abs == 0
    assert identities.verify_trilinear(c, "tri2", 1, 0, 0).residual_abs == 0
    with pytest.raises(ValueError):
        identities.verify_trilinear(c, "e1", 1, 0, 0)


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
    for c in (generic_ctx, structured_ctx):
        for n in range(3):
            rep = identities.shift_closure_report(c, n, 0, 0)
            assert rep["link_residual"] == 0
            assert rep["confirmed_xi_psi_row"] == 0
            if n >= 1:
                assert rep["printed_xi_psi_sq"] != 0
                assert rep["subs_image_of_t_step"] != 0


# ---- Reports ----

def test_record_json_shape(structured_ctx, tmp_path):
    recs = identities.run_suite(structured_ctx, 1, 0, 1, ids=["e1", "4trr"])
    path = str(tmp_path / "report.jsonl")
    identities.write_report(recs, path)
    with open(path) as fh:
        lines = [json.loads(x) for x in fh]
    assert len(lines) == len(recs)
    for d in lines:
        assert {"id", "n", "s", "t", "pass", "mode"} <= set(d)
        if "skipped" not in d:
            assert "residual_abs" in d and "residual_rel" in d
