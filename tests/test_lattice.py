"""Tau lattice: materialization, corner solve, propagation, degeneracy and
configuration errors."""

import json
import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dckp.numerics import WORKING_MARGIN, ConfigError, DegeneracyError
from dckp import lattice, moments, detkit

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
    assert lat.get("tau", 0, 0, 1) == 1


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
    assert lat.precision_digits == 30 and lat.get("tau", 2, 1, 1) > 0


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

def _tau_stencil(ctx, n, s, t, skip):
    return lattice._stencil_from(ctx.tau, n, s, t, skip=skip)


def test_corner_solve_hits_oracle_both_corners(generic_ctx):
    for n in range(1, 3):
        for s in range(2):
            for which in lattice.UNKNOWN_CORNERS:
                stn = _tau_stencil(generic_ctx, n, s, 0, skip=which)
                truth = {"n-1,s+1,t+1": generic_ctx.tau(n - 1, s + 1, 1),
                         "n+1,s,t+1": generic_ctx.tau(n + 1, s, 1)}[which]
                r1, r2 = lattice.solve_dckp_corner(stn, which)
                assert truth in (r1, r2), (n, s, which)


def test_corner_solve_n0_degenerates_to_zero(generic_ctx):
    stn = _tau_stencil(generic_ctx, 0, 0, 0, skip="n-1,s+1,t+1")
    r1, r2 = lattice.solve_dckp_corner(stn, "n-1,s+1,t+1")
    assert 0 in (r1, r2)


def test_corner_solve_validation(generic_ctx):
    stn = _tau_stencil(generic_ctx, 1, 0, 0, skip="n+1,s,t+1")
    with pytest.raises(ConfigError):
        lattice.solve_dckp_corner(stn, "n,s,t")
    del stn["n,s+1,t"]
    with pytest.raises(ConfigError):
        lattice.solve_dckp_corner(stn, "n+1,s,t+1")


def test_corner_solve_linear_fallback():
    # S = 0 turns the quadratic into a linear equation, returned doubled
    stn = {"n-1,s+1,t": Fraction(0), "n,s,t": Fraction(1),
           "n,s+1,t": Fraction(2), "n+1,s,t": Fraction(3),
           "n-1,s+1,t+1": Fraction(1), "n,s,t+1": Fraction(1),
           "n,s+1,t+1": Fraction(2)}
    r1, r2 = lattice.solve_dckp_corner(stn, "n+1,s,t+1")
    assert r1 == r2


def test_corner_solve_degenerate_errors():
    zero = {k: Fraction(0) for k in lattice.STENCIL_SITES
            if k != "n+1,s,t+1"}
    with pytest.raises(DegeneracyError):
        lattice.solve_dckp_corner(zero, "n+1,s,t+1")
    # discriminant 10 is not a rational square: no exact branch exists
    stn = {"n-1,s+1,t": Fraction(1), "n,s,t": Fraction(1),
           "n,s+1,t": Fraction(2), "n+1,s,t": Fraction(1),
           "n-1,s+1,t+1": Fraction(3), "n,s,t+1": Fraction(1),
           "n,s+1,t+1": Fraction(1)}
    with pytest.raises(DegeneracyError):
        lattice.solve_dckp_corner(stn, "n+1,s,t+1")


def _fraction_corner(stencil, which_unknown):
    """The exact corner solve in Fraction arithmetic, reducing at every step:
    the reference the integer solve must reproduce."""
    g = stencil.__getitem__
    A = g("n,s+1,t") * g("n,s,t") - g("n+1,s,t") * g("n-1,s+1,t")
    P = g("n,s+1,t+1") * g("n,s,t+1")
    R = g("n,s+1,t") * g("n,s,t+1") + g("n,s+1,t+1") * g("n,s,t")
    if which_unknown == "n-1,s+1,t+1":
        Q = g("n+1,s,t+1")
        R = R - g("n+1,s,t+1") * g("n-1,s+1,t")
        S = g("n+1,s,t")
    else:
        Q = g("n-1,s+1,t+1")
        R = R - g("n+1,s,t") * g("n-1,s+1,t+1")
        S = g("n-1,s+1,t")
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


def _outcome(solve, stencil, which):
    try:
        return solve(stencil, which)
    except DegeneracyError as exc:
        return type(exc), str(exc)


_small = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_LATTICE = detkit.DetContext(moments.synthetic_generic(1, 9, tmax=1), 9)


@st.composite
def _stencils(draw):
    """Seven stencil values: small rationals (zeros, vanishing S, negative
    and non-square discriminants are frequent), all zeros, or a tau stencil
    of an exact lattice, where the discriminant is a square, times a
    rational."""
    which = draw(st.sampled_from(lattice.UNKNOWN_CORNERS))
    kind = draw(st.sampled_from(("random", "zero", "lattice")))
    known = [k for k in lattice.STENCIL_SITES if k != which]
    if kind == "random":
        return which, {k: draw(_small) for k in known}
    if kind == "zero":
        return which, {k: Fraction(0) for k in known}
    n, s = draw(st.integers(1, 3)), draw(st.integers(0, 1))
    scale = draw(_small.filter(lambda v: v != 0))
    stn = lattice._stencil_from(_LATTICE.tau, n, s, 0, skip=which)
    return which, {k: scale * v for k, v in stn.items()}


_LINEAR = {"n-1,s+1,t": Fraction(0), "n,s,t": Fraction(1, 3),
           "n,s+1,t": Fraction(2), "n+1,s,t": Fraction(3, 2),
           "n-1,s+1,t+1": Fraction(1), "n,s,t+1": Fraction(-1, 4),
           "n,s+1,t+1": Fraction(2, 5)}


@settings(max_examples=300, deadline=None)
@given(case=_stencils())
@example(case=("n+1,s,t+1", _LINEAR))
@example(case=("n+1,s,t+1", {k: Fraction(0) for k in _LINEAR}))
@example(case=("n+1,s,t+1", dict(_LINEAR, **{"n-1,s+1,t": Fraction(1, 2)})))
def test_integer_corner_solve_matches_fraction_solve(case):
    # equal roots, or the same error with the same message
    which, stn = case
    assert (_outcome(lattice.solve_dckp_corner, stn, which)
            == _outcome(_fraction_corner, stn, which))


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


def test_propagate_validation():
    lat = lattice.build_lattice("synthetic-generic", 2, 1, 1, {"seed": 1})
    with pytest.raises(ConfigError):
        lattice.propagate(lat, 0, 2)
    with pytest.raises(ConfigError):
        lattice.propagate(lat, 1, 1)
