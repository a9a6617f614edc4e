"""Tau lattice: materialization, corner solve, propagation, degeneracy and
configuration errors."""

import hashlib
import json
import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dckp.numerics import (WORKING_MARGIN, ConfigError, DegeneracyError,
                           TolerancePolicy, fmt_scalar)
from dckp import detkit, identities, lattice, lax, moments, quadrature

# ---- Build ----

def test_build_generic_deterministic():
    a = lattice.build_lattice("synthetic-generic", 2, 1, 1, {"seed": 4})
    b = lattice.build_lattice("synthetic-generic", 2, 1, 1, {"seed": 4})
    assert a.values == b.values
    assert set(a.families) == set(lattice.LATTICE_FAMILIES) - {"sigma_tilde"}
    assert all(a.provenance[k] == "determinant" for k in a.values)


def test_build_structured_families_and_slices():
    lat = lattice.build_lattice("synthetic-structured", 2, 1, 1, {"seed": 4})
    assert set(lat.families) == set(lattice.LATTICE_FAMILIES)
    # singles exist only at the base t, so sigma_tilde stops there
    assert ("sigma_tilde", 1, 0, 0) in lat.values
    assert ("sigma_tilde", 1, 0, 1) not in lat.values
    assert ("tau", 2, 1, 1) in lat.values
    assert lat.values[("tau", 0, 0, 1)] == 1


def test_build_rejects_unknown_mode():
    with pytest.raises(ConfigError):
        lattice.build_lattice("no-such-mode", 1, 1, 1)


def test_build_rejects_unknown_config_keys():
    # a misspelt "precision" must not silently run at the default 120 digits
    for cfg in ({"precison": 50}, {"seed": 1, "K": 7}):
        with pytest.raises(ConfigError, match="unknown lattice config keys"):
            lattice.build_lattice("synthetic-generic", 1, 1, 1, cfg)


def test_build_jacobi_positive_and_cross_validated():
    lat = lattice.build_lattice("jacobi-float", 3, 1, 1,
                                {"precision": 50, "guard": 15})
    for (f, n, s, t), v in lat.values.items():
        if f in ("tau", "xi"):
            assert v > 0, (f, n, s, t)


def test_jacobi_library_path_runs_no_quadrature(monkeypatch):
    # README's library path on a jacobi lattice: the t-evolution check is
    # exact against a closed form, so nothing sweeps
    def no_quadrature(*args):
        raise AssertionError("a lattice build ran quadrature")

    monkeypatch.setattr(quadrature, "_nodes", no_quadrature)
    policy = TolerancePolicy(30, 10)
    lat = lattice.build_lattice("jacobi-float", 5, 2, 3,
                                {"precision": 30, "guard": 10})
    rep = lattice.propagation_report(lattice.propagate(lat, 0, 3), lat)
    assert rep["sites"] > 0 and rep["max_rel"] < policy.rel_tol()
    assert lax.compat_residuals(lat.ctx, 5, 0, 0)
    six = lax.verify_six_equations(lat.ctx, 4, 0, 0, policy=policy)
    assert all(e["chosen"] for e in six["equations"].values())


@pytest.mark.parametrize("bumped", [(3, 0, 1), (2, 1, 1)])
def test_t_evolution_check_fails_on_a_bumped_pair(monkeypatch, bumped):
    # a phi pair (3, 0, 1) feeds the rank-one side, a t = 1 single (2, 1, 1)
    # the direct ladder: 10^-30 on either one's rational part fails the
    # exact half, which runs first
    pair = moments._weight_integral

    def bumped_pair(a, b, c):
        p, q = pair(a, b, c)
        if (a, b, c) == bumped:
            p += Fraction(1, 10 ** 30)
        return p, q

    monkeypatch.setattr(moments, "_weight_integral", bumped_pair)
    with pytest.raises(ArithmeticError, match=r"entry \(\d+,\d+\): the exact"):
        lattice.build_lattice("jacobi-float", 3, 1, 1, {"precision": 50})


def test_t_evolution_check_fails_on_one_perturbed_float_entry(monkeypatch):
    # the exact half cannot see the float evolve_t; the float half compares
    # each evolved entry with its direct value rounded once
    evolve = moments.MomentTable.evolve_t

    def perturbed(self):
        table = evolve(self)
        if table.t0 == 1:
            with mp.workdps(table.precision_digits + WORKING_MARGIN):
                table.bimoments[2][4] *= 1 + mp.mpf(10) ** -30
        return table

    monkeypatch.setattr(moments.MomentTable, "evolve_t", perturbed)
    with pytest.raises(ArithmeticError, match=r"entry \(2,4\): the float"):
        lattice.build_lattice("jacobi-float", 3, 1, 1, {"precision": 50})


def test_build_float_lattice_with_a_negative_tau_raises(monkeypatch):
    # m_11 = m_01 m_10 / (2 m_00) makes tau_2 = -m_01 m_10 / 2 < 0: the
    # failed pivot of its frame stops the build, as no tau or xi of a float
    # lattice may be non-positive
    build = moments.build_base_table

    def broken(*args, **kwargs):
        table = build(*args, **kwargs)
        m = table.bimoments
        with mp.workdps(table.precision_digits + WORKING_MARGIN):
            m[1][1] = m[0][1] * m[1][0] / (2 * m[0][0])
        return table

    monkeypatch.setattr(moments, "build_base_table", broken)
    with pytest.raises(DegeneracyError, match=r"^tau_2\^\{0,0\} lies past "
                       "float pivot 1 of its frame, -"):
        lattice.build_lattice("jacobi-float", 3, 1, 0, {"precision": 30})


def test_build_jacobi_default_guard_follows_precision():
    # no guard given: the policy default min(40, precision // 3), as in the CLI
    lat = lattice.build_lattice("jacobi-float", 2, 1, 1, {"precision": 30})
    assert lat.precision_digits == 30 and lat.values[("tau", 2, 1, 1)] > 0


def test_json_and_csv_export():
    lat = lattice.build_lattice("synthetic-generic", 1, 1, 1, {"seed": 2})
    doc = lat.to_json_dict()
    assert doc["meta"]["ranges"] == {"Nmax": 1, "Smax": 1, "Tmax": 1}
    assert len(doc["sites"]) == len(lat.values)
    assert json.loads(json.dumps(doc)) == doc
    lines = lat.csv_text().splitlines()
    assert lines[0].split(",") == ["family", "n", "s", "t", "value",
                                   "provenance"]
    assert len(lines) == 1 + len(lat.values)


# ---- Corner solve ----

def _taus(ctx, n, s, t):
    """The quartic's eight taus at (n, s, t), its corner tau_{n+1}^{s,t+1}
    included."""
    return [ctx.tau(n + dn, s + ds, t + dt)
            for dn, ds, dt in identities.DCKP_SITES]


def _known(a, b, c, d, e, f, h):
    """Seven taus in the order of DCKP_SITES, the corner's slot left empty:
    tau_n^{s+1}, tau_n, tau_{n+1}, tau_{n-1}^{s+1} at t, then tau_n^{s+1},
    tau_n, (corner), tau_{n-1}^{s+1} at t+1."""
    return [a, b, c, d, e, f, None, h]


def test_corner_solve_hits_oracle_and_both_roots_solve_the_quartic(
        generic_ctx, structured_ctx):
    # each root, put in the corner's slot, satisfies 4 A_t A_{t+1} = B^2
    # exactly, and one of them is the determinant; the solve never reads
    # the slot it fills
    for name, ctx in (("generic", generic_ctx), ("structured", structured_ctx)):
        for n in range(1, 6):
            for s in range(8 - n):
                for t in range(3):
                    taus = _taus(ctx, n, s, t)
                    roots = lattice.solve_dckp_corner(_known(*taus[:6], taus[7]))
                    for r in roots:
                        A0, A1, B = identities._dckp_parts(*taus[:6], r, taus[7])
                        assert 4 * A0 * A1 == B * B, (name, n, s, t, r)
                    assert taus[6] in roots, (name, n, s, t)


def test_corner_solve_n0_degenerates_to_zero(generic_ctx):
    # at n = 0 both S and Q are tau_{-1} = 0 and the quartic is 4 * 1 * 1 =
    # 2^2: the corner equation degenerates to 0 = 0 and leaves tau_1 free
    with pytest.raises(DegeneracyError, match="fully degenerate"):
        lattice.solve_dckp_corner(_taus(generic_ctx, 0, 0, 0))


def test_corner_solve_linear_fallback():
    # S = tau_{n-1}^{s+1,t} = 0 turns the quadratic into a linear equation,
    # returned doubled
    r1, r2 = lattice.solve_dckp_corner(_known(*map(Fraction, (2, 1, 3, 0, 2, 1,
                                                              1))))
    assert r1 == r2


def test_corner_solve_degenerate_errors():
    with pytest.raises(DegeneracyError):
        lattice.solve_dckp_corner(_known(*[Fraction(0)] * 7))
    # discriminant 10 is not a rational square: no exact branch exists
    with pytest.raises(DegeneracyError):
        lattice.solve_dckp_corner(_known(*map(Fraction, (2, 1, 1, 1, 1, 1, 3))))


def _fraction_corner(taus):
    """The exact corner solve in Fraction arithmetic, reducing at every step:
    the reference the integer solve must reproduce.  It writes the quartic
    out itself, not through identities._dckp_parts."""
    a, b, c, d, e, f, _, h = taus
    A = a * b - c * d
    P = e * f
    R = a * f + e * b - c * h
    Q, S = h, d
    a2 = S * S
    a1 = 4 * A * Q - 2 * R * S
    a0 = R * R - 4 * A * P
    if a2 == 0:
        if a1 == 0:
            raise DegeneracyError("corner equation fully degenerate "
                                  "(no linear term)")
        x = -a0 / a1
        return (x, x)
    disc = Fraction(A * (A * Q * Q - R * S * Q + P * S * S))
    if disc < 0:
        raise DegeneracyError("negative discriminant in exact corner solve")
    rn, rd = math.isqrt(disc.numerator), math.isqrt(disc.denominator)
    if rn * rn != disc.numerator or rd * rd != disc.denominator:
        raise DegeneracyError("discriminant is not a perfect rational square; "
                              "stencil does not lie on an exact lattice")
    root = Fraction(rn, rd)
    mid = 2 * A * Q - R * S
    return ((-mid + 2 * root) / a2, (-mid - 2 * root) / a2)


def _outcome(solve, taus):
    try:
        return solve(taus)
    except DegeneracyError as exc:
        return type(exc), str(exc)


_small = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_LATTICE = detkit.DetContext(moments.synthetic_generic(1, 9, tmax=1), 9)


@st.composite
def _corners(draw):
    """Seven known taus: small rationals (zeros, vanishing S, negative and
    non-square discriminants are frequent), all zeros, or the taus of an
    exact lattice, where the discriminant is a square, times a rational."""
    kind = draw(st.sampled_from(("random", "zero", "lattice")))
    if kind == "random":
        return _known(*[draw(_small) for _ in range(7)])
    if kind == "zero":
        return _known(*[Fraction(0)] * 7)
    n, s = draw(st.integers(1, 3)), draw(st.integers(0, 1))
    scale = draw(_small.filter(lambda v: v != 0))
    taus = [scale * v for v in _taus(_LATTICE, n, s, 0)]
    return _known(*taus[:6], taus[7])


_LINEAR = (Fraction(2), Fraction(1, 3), Fraction(3, 2), Fraction(0),
           Fraction(2, 5), Fraction(-1, 4), Fraction(1))


@settings(max_examples=300, deadline=None)
@given(taus=_corners())
@example(taus=_known(*_LINEAR))
@example(taus=_known(*[Fraction(0)] * 7))
@example(taus=_known(*_LINEAR[:3], Fraction(1, 2), *_LINEAR[4:]))
def test_integer_corner_solve_matches_fraction_solve(taus):
    # equal roots, or the same error with the same message
    assert (_outcome(lattice.solve_dckp_corner, taus)
            == _outcome(_fraction_corner, taus))


# ---- Propagation ----

def test_propagate_generic_exact():
    lat = lattice.build_lattice("synthetic-generic", 3, 1, 2, {"seed": 6})
    out = lattice.propagate(lat, 0, 2)
    rep = lattice.propagation_report(out, lat)
    assert rep["sites"] > 0
    assert rep["max_abs"] == 0
    assert all(out.provenance[("tau", n, s, t)] == "propagated"
               for n in range(2, 4) for s in range(2) for t in range(1, 3))
    # untouched families and slices keep their determinant provenance
    assert out.provenance[("tau", 1, 0, 1)] == "determinant"
    assert out.provenance[("xi", 2, 0, 1)] == "determinant"


def test_propagate_trivial_phi_reproduces_base_slice():
    tab = moments.synthetic_generic(3, 9, tmax=2)
    tab.phi_by_t = {t: [Fraction(0)] * 9 for t in tab.phi_by_t}
    ctx = detkit.DetContext(tab, tab.K)
    lat = lattice.TauLattice("synthetic-generic", 3, 2, 2, ctx, None)
    for t in range(3):
        for n in range(4):
            for s in range(3):
                lat.values[("tau", n, s, t)] = ctx.tau(n, s, t)
                lat.provenance[("tau", n, s, t)] = "determinant"
    out = lattice.propagate(lat, 0, 2)
    for t in range(1, 3):
        for n in range(2, 4):
            for s in range(3):
                assert out.values[("tau", n, s, t)] == ctx.tau(n, s, 0)


def test_propagate_jacobi_within_tolerance(jacobi_policy):
    lat = lattice.build_lattice("jacobi-float", 3, 1, 1,
                                {"precision": jacobi_policy.precision_digits,
                                 "guard": jacobi_policy.guard_digits})
    rep = lattice.propagation_report(lattice.propagate(lat, 0, 1), lat)
    assert rep["sites"] > 0
    assert rep["max_rel"] < jacobi_policy.rel_tol()


@settings(max_examples=10, deadline=None)
@given(mode=st.sampled_from(["synthetic-structured", "synthetic-generic"]),
       seed=st.integers(0, 10 ** 6), K=st.integers(6, 8),
       s0=st.integers(0, 2), t0=st.integers(0, 2))
def test_propagate_exact_at_base_offsets(mode, seed, K, s0, t0):
    # a lattice over a table based at (s0, t0), with absolute s and t
    # bounds: every propagated tau equals its determinant
    ctx = detkit.DetContext(moments.build_base_table(mode, s0, t0, K,
                                                     seed=seed, tmax=2), K)
    nmax, smax, tmax = K - 4, s0 + 1, t0 + 2
    lat = lattice.TauLattice(mode, nmax, smax, tmax, ctx, None)
    for n in range(nmax + 1):
        for s in range(s0, smax + 1):
            for t in range(t0, tmax + 1):
                lat.values[("tau", n, s, t)] = ctx.tau(n, s, t)
                lat.provenance[("tau", n, s, t)] = "determinant"
    try:
        out = lattice.propagate(lat, t0, tmax)
    except DegeneracyError as exc:
        # generic entries are 0 in one draw of 101, and a zero tau can leave
        # the corner equation with neither a quadratic nor a linear term:
        # the corner is then undetermined (seed 3634, K 8: m_22 = 0)
        assume("fully degenerate" not in str(exc))
        raise
    sites = [k for k, p in out.provenance.items() if p == "propagated"]
    assert len(sites) > 0
    for key in sites:
        assert out.values[key] == ctx.tau(*key[1:]), key


def _export(lat, t):
    """A lattice propagated over (0, t] with its propagation report, as the
    benchmark's lattice workload exports it."""
    prop = lattice.propagate(lat, 0, t)
    rep = lattice.propagation_report(prop, lat)
    doc = prop.to_json_dict()
    doc["propagation"] = {"sites": rep["sites"]}
    for key in ("max_abs", "max_rel"):
        doc["propagation"][key] = fmt_scalar(rep[key], identities.REPORT_DIGITS)
    return doc


def _digest(doc):
    return hashlib.sha256((json.dumps(doc, indent=1) + "\n").encode()).hexdigest()


# SHA-256 of a propagated exact and float lattice, exported with its
# propagation report as the benchmark's lattice workload writes it: any
# change to the bytes propagation gives fails here
PROPAGATION_DIGESTS = {
    "structured": (("synthetic-structured", 6, 2, 3, {"seed": 3}),
                   "a37faf62aba04a8014dee587fd9df8b643581f81a576cf29458d1b74c781d416"),
    "jacobi": (("jacobi-float", 5, 2, 3, {"precision": 30, "guard": 10}),
               "8df9272b9f53846cc593430defcba18117d57e33537ff1848388cb13d0535cab"),
}


@pytest.mark.parametrize("mode", sorted(PROPAGATION_DIGESTS))
def test_propagation_export_bytes_are_pinned(mode):
    (kind, n, s, t, config), digest = PROPAGATION_DIGESTS[mode]
    assert _digest(_export(lattice.build_lattice(kind, n, s, t, config), t)) \
        == digest


# SHA-256 of the two documents of the benchmark's lattice workload at its
# tiny size, data seed 3: the propagated jacobi lattice (30/10, n 5, s 2,
# t 3) with its Lax residuals at K = 5 on s, t <= 1 and its six equations
# at n <= 4, all on the lattice's own context, and the propagated
# structured lattice (n 4).  A float frame that drops a border or column
# some printed digit depends on fails here
LATTICE_LAX_DIGESTS = (
    "6128cc08352e8b8c61b56778c1023504f4861f6a329b7be806f62bf434eb79b8",
    "e383becc4aa2a70da3610556b2f789238a13d8c5b3c5857f9aa4ad7de68d3d8a")


def test_lattice_lax_documents_are_pinned():
    digits = identities.REPORT_DIGITS
    lat = lattice.build_lattice("jacobi-float", 5, 2, 3,
                                {"precision": 30, "guard": 10})
    doc = _export(lat, 3)
    doc["lax"] = []
    for s in (0, 1):
        for t in (0, 1):
            comp = lax.compat_residuals(lat.ctx, 5, s, t)
            eig = lax.eigen_residuals(lat.ctx, 5, s, t)
            doc["lax"].append({
                "s": s, "t": t,
                "compat": {k: fmt_scalar(v, digits) for k, v in comp.items()
                           if k.startswith("compat")},
                "eigen": {k: fmt_scalar(v, digits) for k, v in eig.items()
                          if k != "K"}})
    doc["six_equations"] = lax.verify_six_equations(
        lat.ctx, 4, 0, 0, policy=TolerancePolicy(30, 10))
    structured = lattice.build_lattice("synthetic-structured", 4, 2, 3,
                                       {"seed": 3})
    assert (_digest(doc), _digest(_export(structured, 3))) \
        == LATTICE_LAX_DIGESTS


def test_propagate_validation():
    lat = lattice.build_lattice("synthetic-generic", 2, 1, 1, {"seed": 1})
    with pytest.raises(ConfigError):
        lattice.propagate(lat, 0, 2)
    with pytest.raises(ConfigError):
        lattice.propagate(lat, 1, 1)
