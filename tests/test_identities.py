"""Identity catalog: exact suites per mode, gating, variant adjudication,
shift-closure link, report serialization."""

import functools
import hashlib
import json
import math
from fractions import Fraction

import mpmath as mp
import pytest
from mpmath import libmp
from hypothesis import given, settings, strategies as st

from dckp import identities, lax, moments, detkit
from dckp.numerics import (DegeneracyError, ExtentError, TolerancePolicy,
                           fmt_scalar, relative_residual)


def make_record(ctx, identity_id, n, s, t):
    """The record run_suite makes for one id at one site."""
    return identities._record(ctx, identity_id, n, s, t,
                              identities._outcome(ctx, identity_id, n, s, t))


# ---- Gating ----

def test_gates_per_mode():
    g = identities.gates
    specs = identities.IDENTITY_SPECS
    assert {i for i in specs if g("synthetic-generic", i, 2, 0)} \
        == {i for i, spec in specs.items() if spec.generic} \
        == {"e1", "e2", "e3", "e4", "dckp"}
    assert g("synthetic-structured", "tri1", 2, 0)
    single = {i for i, spec in specs.items() if spec.single}
    assert single == {"4trr"}
    assert all(g("synthetic-structured", i, 0, 0) for i in single)
    assert not any(g("synthetic-structured", i, 1, 0) for i in single)
    assert all(g("jacobi-float", i, 2, 0) for i in identities.CATALOG_IDS)


def test_catalog_shape():
    specs = identities.IDENTITY_SPECS
    assert identities.CATALOG_IDS == tuple(specs) and len(specs) == 25
    assert identities.VARIANT_IDS == ("3.2a", "3.3a", "3.3b", "3.4a", "3.4b",
                                      "xi-psi-sq", "tau-hat-rel")
    assert {i for i, spec in specs.items() if spec.n_min} \
        == {"4trr", "prop2.6", "dt1", "trans2", "propr"}
    assert sum(spec.kind == "stencil" for spec in specs.values()) == 22
    vectors = {"P", "Q", "R"}
    linear = {i for i, spec in specs.items()
              if any(r[0] in vectors for _, reads in spec.stencil for r in reads)}
    assert linear == {"prop2.5", "prop2.6", "spec1", "dt1", "trans2"}
    for ident, spec in specs.items():
        assert (spec.kind == "stencil") == bool(spec.stencil), ident
        if ident in identities.VARIANT_IDS:
            assert spec.printed and spec.printed != spec.stencil, ident
        else:
            assert spec.printed is None, ident
        for sign, reads in spec.stencil + (spec.printed or ()):
            assert sign in (1, -1) and reads, ident
            # a linear stencil's products each end in their one vector read,
            # after at least one scalar read, its coefficient; the x token,
            # if present, multiplies the vector by x
            names = [family for family, *_ in reads]
            assert (names[-1] in vectors) == (ident in linear), ident
            assert set(names[:-1]) - {"x"}, ident
            assert not vectors & set(names[:-1]), ident
            assert names.count("x") <= (ident in linear), ident
            for family, *shift in reads:
                assert family in detkit.FAMILY_SPECS or family == "x", \
                    (ident, family)
                assert all(isinstance(d, int) for d in shift), ident
                assert family != "x" or shift == [0, 0, 0], ident


@pytest.mark.parametrize("ident, variant", [
    ("bogus", "confirmed"),      # an unknown id
    ("eq1", "printed"),          # an id with no printed form
    ("3.2a", "repaired"),        # an unknown variant
])
def test_evaluate_rejects_what_it_cannot_evaluate(generic_ctx, ident, variant):
    with pytest.raises(ValueError):
        identities.evaluate(generic_ctx, ident, 1, 0, 0, variant)


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
    assert max(r.residual_rel for r in live if r.identity_id == "dckp") == 0


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
        for n in range(identities.IDENTITY_SPECS[ident].n_min, K):
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
        rec = make_record(c, ident, n, s, 0)
        assert rec.skipped is None and rec.gating, ident
        assert rec.residual_abs == 0 and rec.passed, ident


# ---- Edge-only records at n = 0 ----

# stencil ids whose n = 0 records check only the edge conventions
EDGE_ONLY_AT_N0 = {"3.2b", "3.3b", "3.4a", "3.4b", "e1", "e2", "e3", "e4",
                   "eq1", "fn-b", "tau-hat-rel", "tri2"}


def _edge_zero(read):
    """Whether a read at n = 0 falls below its family's start, where the
    family is 0 (tau_{-1} = sigma_{-1} = psi_{-1} = 0 and so on); the x
    token is no read."""
    family, dn, _, _ = read
    spec = detkit.FAMILY_SPECS.get(family)
    return spec is not None and dn < spec.start and spec.error is None


def _edge_only_at_n0():
    """Stencil ids with records at n = 0 that read no order >= 1 value
    outside a product that also holds an edge zero."""
    return {ident for ident, spec in identities.IDENTITY_SPECS.items()
            if spec.kind == "stencil" and spec.n_min == 0
            and all(any(map(_edge_zero, reads))
                    or all(r[1] <= 0 for r in reads if r[0] != "x")
                    for _, reads in spec.stencil)}


def _bumps(value, bump):
    """bump(value), or for a polynomial one copy per coefficient bumped.  An
    exact cofactor vector is memoized as a pair (numerators, denominator),
    where bump(c) of a coefficient c = a / den is the numerator
    bump(c) * den: a +1 bump adds den to a."""
    if isinstance(value, tuple):
        nums, den = value
        return [(nums[:k] + ((bump(Fraction(a, den)) * den).numerator,)
                 + nums[k + 1:], den) for k, a in enumerate(nums)]
    if isinstance(value, list):
        return [value[:k] + [bump(c)] + value[k + 1:] for k, c in enumerate(value)]
    return [bump(value)]


def _corruption_sweep(monkeypatch, ns, mode="synthetic-structured",
                      bump=lambda v: v + 1):
    """Each gating record at the orders ns on data of `mode` (seed 1 for
    synthetic data, 120/40 digits for jacobi data; (N, S, T) = (3, 1, 1)),
    re-evaluated under every bump of an order >= 1 value it reads: record ->
    [(read, whether the bump fails it)], one entry per bump."""
    N, S, T = 3, 1, 1
    policy = TolerancePolicy(120, 40)
    table = moments.build_base_table(mode, 0, 0, N + S + 3, policy=policy,
                                     seed=1, tmax=T)
    ctx = detkit.DetContext(table, N + 1)
    reads = []
    family = ctx._family

    def logged(name, n, s, t):
        reads.append((name, n, s, t))
        return family(name, n, s, t)

    monkeypatch.setattr(ctx, "_family", logged)

    def passes(ident, n, s, t):
        ctx.derived.clear()
        return make_record(ctx, ident, n, s, t).passed

    sweep = {}
    for ident, spec in identities.IDENTITY_SPECS.items():
        for n in ns:
            for s in range(S + 1):
                for t in range(T + 1):
                    if n < spec.n_min or not identities.gates(mode, ident, t, 0):
                        continue
                    reads.clear()
                    assert passes(ident, n, s, t), (ident, n, s, t)
                    bumps = sweep[(ident, n, s, t)] = []
                    for key in dict.fromkeys(r for r in reads if r[1] >= 1):
                        value = ctx.memo[key]
                        with ctx.wp():
                            bumped = _bumps(value, bump)
                        for v in bumped:
                            ctx.memo[key] = v
                            bumps.append((key, not passes(ident, n, s, t)))
                        ctx.memo[key] = value
    return sweep


def test_edge_only_records_at_n0_match_a_corruption_sweep(monkeypatch):
    # the set derived from the stencils and the family starts is the set of
    # gating n = 0 records that no +1 bump of an order >= 1 value they read
    # can fail; dckp is the one other such id: at n = 0 tau_{n+1} meets only
    # tau_{-1} = 0, and the quartic reads 4 * 1 * 1 = 2^2
    assert _edge_only_at_n0() == EDGE_ONLY_AT_N0
    sweep = _corruption_sweep(monkeypatch, [0])
    sensitive = {r for r, bumps in sweep.items() if any(f for _, f in bumps)}
    insensitive = set(sweep) - sensitive
    edge_only = {r for r in insensitive if r[0] in EDGE_ONLY_AT_N0}
    assert len(edge_only) == 48
    assert {r[0] for r in insensitive} == EDGE_ONLY_AT_N0 | {"dckp"}
    assert {r[0] for r in sensitive} == {"prop2.5", "spec1", "3.2a", "3.3a",
                                         "tri1", "fn-a", "xi-psi-sq"}
    assert not {r[0] for r in sensitive} & {r[0] for r in insensitive}


def test_records_above_n0_fail_under_every_bump(monkeypatch):
    # from n = 1 on, every gating record fails under every +1 bump of every
    # order >= 1 value it reads, but one: 4trr at n = 3 (it gates at the base
    # t only) does not read tau_1 = tau_{n-2}, which cancels (see the module
    # doc)
    sweep = _corruption_sweep(monkeypatch, [1, 2, 3])
    assert len(sweep) == 294
    assert sum(map(len, sweep.values())) == 2088
    survivors = {(r, key) for r, bumps in sweep.items()
                 for key, fails in bumps if not fails}
    assert survivors == {(("4trr", 3, s, 0), ("tau", 1, s, 0)) for s in (0, 1)}


def test_float_records_above_n0_fail_under_every_scaling(monkeypatch):
    # the float twin on jacobi data at the CLI default 120/40 digits, each
    # read scaled by 1 + 10^-5: every gating record fails, but 4trr at n = 3,
    # here gating at every t, under a scaling of tau_1, as in exact mode
    sweep = _corruption_sweep(monkeypatch, [1, 2, 3], "jacobi-float",
                              lambda v: v * (1 + mp.mpf(10) ** -5))
    assert len(sweep) == 300
    assert sum(map(len, sweep.values())) == 2188
    survivors = {(r, key) for r, bumps in sweep.items()
                 for key, fails in bumps if not fails}
    assert survivors == {(("4trr", 3, s, t), ("tau", 1, s, t))
                         for s in (0, 1) for t in (0, 1)}


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
    detkit.eval_det(ctx, "tau", 3, 1, 1)
    ctx.memo[("tau", 3, 1, 1)] += Fraction(1, 7)
    for family in ("P", "R"):
        detkit.eval_det(ctx, family, 3, 1, 1)
        # coefficient 1 + 1
        key = (family, 3, 1, 1)
        ctx.memo[key] = _bumps(ctx.memo[key], lambda c: c + 1)[1]
    fast = _catalog_run(ctx)
    failing = {r[0] for r in fast[0] if r[6] is False}
    assert failing >= {"eq1", "tri1", "dckp", "prop2.5", "spec1", "dt1",
                       "trans2", "propr"}
    monkeypatch.setattr(identities, "_vanishes", lambda products: False)
    assert _catalog_run(ctx) == fast


# ---- Reducer ----

def test_residual_is_the_worst_part_over_the_largest_product(structured_ctx,
                                                             jacobi_ctx):
    # the largest |sum| of a part over max(1, the largest |product| of any
    # part): the 3s of the vanishing part set the scale of the other one
    def parts(v):
        return [[(1, (v(3),)), (-1, (v(3),))], [(1, (v(1),)), (-1, (v(2),))]]

    exact = identities._residual(structured_ctx, parts(Fraction))
    assert exact == (1, Fraction(1, 3))
    over_den = identities._residual(structured_ctx, parts(int), den=4)
    assert over_den == (Fraction(1, 4), Fraction(1, 4))
    zero = identities._residual(structured_ctx, parts(Fraction)[:1])
    assert zero == (0, 0)
    assert all(type(v) is Fraction for v in exact + over_den + zero)
    with jacobi_ctx.wp():
        assert identities._residual(jacobi_ctx, parts(mp.mpf)) \
            == (1, mp.mpf(1) / 3)


def _exact(f):
    """An int or finite mpf factor as a Fraction."""
    if isinstance(f, int):
        return Fraction(f)
    neg, man, exp, _ = f._mpf_
    return (-1) ** neg * man * Fraction(2) ** exp


_FACTORS = st.one_of(
    st.integers(-9, 9),
    st.builds(lambda man, exp: mp.make_mpf(libmp.from_man_exp(man, exp)),
              st.integers(-2 ** 300, 2 ** 300), st.integers(-500, 500)))
_PRODUCTS = st.tuples(st.sampled_from((1, -1)),
                      st.lists(_FACTORS, min_size=1, max_size=4).map(tuple))


@st.composite
def _float_parts(draw):
    """Parts of signed products, some with a product and its negation,
    which cancel exactly."""
    parts = []
    for part in draw(st.lists(st.lists(_PRODUCTS, max_size=5), max_size=4)):
        if part and draw(st.booleans()):
            sign, factors = part[0]
            part.append((-sign, factors))
        parts.append(part)
    return parts


@settings(max_examples=150, deadline=None)
@given(parts=_float_parts(), dps=st.integers(5, 150), data=st.data())
def test_float_residual_is_the_exact_sum_rounded_once(jacobi_ctx, parts, dps,
                                                      data):
    # the largest |sum| of a part and the largest |product| are the exact
    # ones, each rounded once at the working precision, then divided; no
    # order of the products or of the parts changes a bit of either result
    sums = [sum(sign * math.prod(map(_exact, fs)) for sign, fs in part)
            for part in parts]
    prods = [abs(math.prod(map(_exact, fs))) for part in parts for _, fs in part]
    with mp.workdps(dps):
        worst, scale = (mp.make_mpf(libmp.from_rational(
            v.numerator, v.denominator, mp.mp.prec, libmp.round_nearest))
            for v in (max(map(abs, sums), default=Fraction(0)),
                      max(prods, default=Fraction(0))))
        got = identities._residual(jacobi_ctx, parts)
        assert [v._mpf_ for v in got] \
            == [v._mpf_ for v in (worst, relative_residual(worst, scale))]
        shuffled = data.draw(st.permutations(
            [data.draw(st.permutations(part)) for part in parts]))
        assert [v._mpf_ for v in identities._residual(jacobi_ctx, shuffled)] \
            == [v._mpf_ for v in got]
        # a factor that is not a finite dyadic number makes the residual
        # NaN, which fails its record, however the other products cancel
        if parts and parts[0]:
            bad = data.draw(st.sampled_from((mp.nan, mp.inf, -mp.inf,
                                             Fraction(1, 3), 0.5)))
            (sign, factors), *rest = parts[0]
            res = identities._residual(
                jacobi_ctx, [[(sign, factors + (bad,)), *rest], *parts[1:]])
            assert all(mp.isnan(v) for v in res)
            assert not identities._passes(jacobi_ctx, *res)


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_a_nan_residual_fails_its_variant_in_any_site_order(jacobi_ctx, order):
    readings = ((mp.mpf("1e-40"), mp.mpf("1e-40")), (mp.nan, mp.nan))
    entry = identities._adjudicate(
        jacobi_ctx, lambda variant, n, s, t: readings[n], ("only",),
        [(n, 0, 0) for n in order], ("max_residual_rel", "passes"))
    assert entry == {"variants": {"only": {"max_residual_rel": "nan",
                                           "passes": False}},
                     "chosen": None}


# ---- Nonzero residuals pinned ----

# memo values bumped one at a time, each a scalar (k None) or coefficient k
# of a P, Q or R vector; a value the context never read is left out
_PIN_BUMPS = ((("tau", 2, 1, 1), None), (("xi", 2, 1, 0), None),
              (("sigma", 1, 0, 1), None), (("psi", 2, 0, 0), None),
              (("tau_tilde", 2, 0, 0), None), (("sigma_tilde", 2, 0, 0), None),
              (("P", 2, 1, 0), 1), (("Q", 2, 0, 0), 0), (("R", 2, 0, 1), 1))

# SHA-256 of each mode's _pinned_lines
_PIN_DIGESTS = {
    "structured":
        "d814018f456be58cc49ccb50078989633084ce31c6176dcd5586b64abfbe1b68",
    "generic":
        "eeecf9909f67b0c8e3e6dfeadc13b737f2f7a48d9c527ee4512f427bedcdd50e",
    "jacobi":
        "124115651b0ea3e852374eea9996494ddb1e4fbf9afbf2c3abfac7ef5a5e6c4c",
}


def _residual_lines(ctx):
    """The formatted (residual_abs, residual_rel) of every catalog id, both
    variants, and every variant of the six Lax equations at n <= 3 and
    s, t <= 1, or the error it raises."""
    digits = None if ctx.exact else ctx.dps
    ctx.derived.clear()

    def outcome(evaluate, *args):
        try:
            res = evaluate(ctx, *args)
        except (ExtentError, DegeneracyError) as exc:
            return type(exc).__name__
        return " ".join(fmt_scalar(v, digits) for v in res)

    cases = [("id", identities.evaluate, ident, variant, spec.n_min)
             for ident, spec in identities.IDENTITY_SPECS.items()
             for variant in ("confirmed", "printed")[:1 + bool(spec.printed)]]
    cases += [("lax", lax.evaluate_equation, eq, variant, n_min)
              for eq, (n_min, variants) in lax.SIX_EQUATIONS.items()
              for variant in variants]
    return ["%s %s %s %d %d %d %s" % (what, ident, variant, n, s, t,
                                      outcome(evaluate, ident, n, s, t, variant))
            for what, evaluate, ident, variant, n_min in cases
            for n in range(n_min, 4) for s in (0, 1) for t in (0, 1)]


def _pinned_lines(ctx):
    """_residual_lines on ctx as built, then under each bump of _PIN_BUMPS:
    +1 in exact mode, a 1 + 10^-5 scaling in float mode."""
    lines = _residual_lines(ctx)
    up = ((lambda v: v + 1) if ctx.exact
          else (lambda v: v * (1 + mp.mpf(10) ** -5)))
    for key, k in _PIN_BUMPS:
        value = ctx.memo.get(key)
        if value is None:
            continue
        with ctx.wp():
            bumped = _bumps(value, up)[k or 0]
        ctx.memo[key] = bumped
        lines.append("bump %s %s" % (key, k))
        lines += _residual_lines(ctx)
        ctx.memo[key] = value
    return lines


@pytest.mark.parametrize("mode, build", [
    ("structured", lambda: moments.synthetic_structured(1, 9, tmax=2)),
    ("generic", lambda: moments.synthetic_generic(1, 9, tmax=2)),
    ("jacobi", lambda: moments.build_jacobi(9, TolerancePolicy(40, 10), tmax=2)),
])
def test_nonzero_residuals_are_pinned(mode, build):
    # the residuals and relative residuals of every evaluator kind and of
    # lax's equations, pinned where they fail: under a +1 bump of one memo
    # value (exact), or its 1 + 10^-5 scaling (float, 40/10 digits)
    lines = _pinned_lines(detkit.DetContext(build(), 6))
    tol = Fraction(0) if mode != "jacobi" else Fraction(1, 10 ** 30)
    failing = {tuple(line.split()[:2]) for line in lines
               if not line.startswith("bump") and not line.endswith("Error")
               and Fraction(line.split()[-1]) > tol}
    ids = {("id", i) for i in identities.CATALOG_IDS
           if i != "4trr" or mode != "generic"}
    assert failing == ids | {("lax", eq) for eq in lax.SIX_EQUATIONS}
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == _PIN_DIGESTS[mode]


# ---- Float suite ----

def test_jacobi_suite_passes(jacobi_ctx, jacobi_policy):
    recs = identities.run_suite(jacobi_ctx, 3, 1, 1)
    live = [r for r in recs if r.skipped is None]
    assert live and all(r.passed for r in live)
    tol = jacobi_policy.rel_tol()
    assert all(r.residual_rel < tol for r in live)


def test_verdicts_take_the_tolerance_the_table_was_built_at(structured_ctx):
    # a guard of 5, not the default 20: rel_tol 1e-55, not 1e-40.  A
    # symmetric 1e-48 bump of m_12 breaks the antidiagonal coupling, so
    # some 4trr records land between the two and fail
    policy = TolerancePolicy(60, 5)
    tab = moments.build_jacobi(9, policy, tmax=3)
    with mp.workdps(policy.working_dps):
        tab.bimoments[1][2] *= 1 + mp.mpf(10) ** -48
        tab.bimoments[2][1] = tab.bimoments[1][2]
    ctx = detkit.DetContext(tab, 9)
    tol, default = tab.policy.rel_tol(), TolerancePolicy(60).rel_tol()
    assert tab.policy == policy and tol < default

    live = [r for r in identities.run_suite(ctx, 3, 1, 1) if r.skipped is None]
    assert all(r.passed == (r.residual_rel < tol) for r in live)
    assert any(tol <= r.residual_rel < default for r in live)

    rep = lax.verify_six_equations(ctx, 3, 0, 0)
    assert rep["site"]["rel_tol"] == fmt_scalar(tol, 8) == "1.0000000e-55"
    assert lax.verify_six_equations(ctx, 3, 0, 0, policy=policy) == rep
    for other in (TolerancePolicy(60), TolerancePolicy(120, 5)):
        with pytest.raises(ValueError):
            lax.verify_six_equations(ctx, 3, 0, 0, policy=other)
    with pytest.raises(ValueError):
        lax.verify_six_equations(structured_ctx, 3, 0, 0, policy=policy)


# ---- Variant adjudication ----

def test_variant_report_printed_fails_confirmed_passes(generic_ctx):
    rep = identities.variant_report(generic_ctx, 3, 1, 1)
    for ident in identities.VARIANT_IDS:
        entry = rep[ident]
        assert entry["chosen"] == "confirmed", ident
        assert entry["variants"]["confirmed"]["passes"], ident
        assert not entry["variants"]["printed"]["passes"], ident
        assert entry["variants"]["printed"]["sites"] > 0


def test_variant_report_jacobi(jacobi_ctx):
    rep = identities.variant_report(jacobi_ctx, 2, 1, 1,
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
        X, PS, SR = (functools.partial(detkit.eval_det, c, f)
                     for f in ("xi", "psi", "sigma_row"))
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


def test_shared_stencils_evaluated_once_per_site(generic_ctx, monkeypatch):
    # eq1/e1, 3.3a/fn-a and 3.3b/fn-b share a stencil: run_suite evaluates
    # it once per site, skipped sites included, and each id keeps its own
    # record and gating
    ids = ["eq1", "e1", "3.3a", "fn-a", "3.3b", "fn-b"]
    alone = [r for i in ids
             for r in identities.run_suite(generic_ctx, 5, 3, 1, ids=[i])]
    calls = []
    evaluate = identities._ev_stencil

    def counted(ctx, stencil, n, s, t):
        calls.append((stencil, n, s, t))
        return evaluate(ctx, stencil, n, s, t)

    monkeypatch.setattr(identities, "_ev_stencil", counted)
    together = identities.run_suite(generic_ctx, 5, 3, 1, ids=ids)
    assert len(calls) == len(set(calls)) == len(together) // 2
    assert any(r.skipped for r in together)
    assert together == sorted(alone, key=lambda r: (r.identity_id, r.n,
                                                     r.s, r.t))
    gating = {r.identity_id: r.gating for r in together if not r.skipped}
    assert gating == {"eq1": False, "e1": True, "3.3a": False, "fn-a": False,
                      "3.3b": False, "fn-b": False}
