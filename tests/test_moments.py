"""Moment tables: synthetic generators, evolutions, serialization, jacobi
builder oracles."""

import dataclasses
import json
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from dckp.numerics import (ConfigError, ExtentError, TolerancePolicy,
                           digits_of_agreement, fmt_scalar, parse_scalar,
                           relative_residual)
from dckp import moments, quadrature

POL = TolerancePolicy(precision_digits=60, guard_digits=20)

# ---- Weight ----

def _weight(x, s, t):
    """x^s ((1-x)/(1+x))^t on 0 < x < 1; exact for Fraction input."""
    if not 0 < x < 1:
        raise ValueError("weight argument must lie in (0,1)")
    return x ** s * ((1 - x) / (1 + x)) ** t


def test_weight_exact_and_domain():
    # the integrand of the mpmath.quad oracle below
    v = _weight(Fraction(1, 3), 2, 1)
    assert v == Fraction(1, 9) * Fraction(2, 3) / Fraction(4, 3)
    with pytest.raises(ValueError):
        _weight(Fraction(0), 0, 0)
    with pytest.raises(ValueError):
        _weight(Fraction(3, 2), 0, 0)


# ---- Synthetic generators ----

def test_generic_deterministic_and_symmetric():
    a = moments.synthetic_generic(7, 6, tmax=2)
    b = moments.synthetic_generic(7, 6, tmax=2)
    assert a.bimoments == b.bimoments and a.phi_by_t == b.phi_by_t
    assert all(a.bimoments[i][j] == a.bimoments[j][i]
               for i in range(6) for j in range(6))
    assert a.single is None
    assert moments.synthetic_generic(8, 6, tmax=2).bimoments != a.bimoments


def test_structured_antidiagonal_identity():
    tab = moments.synthetic_structured(4, 7, tmax=1)
    u = tab.single
    for i in range(6):
        for j in range(6):
            assert tab.m(i + 1, j) + tab.m(i, j + 1) == u[i] * u[j], (i, j)
    assert all(tab.m(i, j) == tab.m(j, i) for i in range(7) for j in range(7))


def test_structured_deterministic():
    a = moments.synthetic_structured(3, 6)
    b = moments.synthetic_structured(3, 6)
    assert a.bimoments == b.bimoments and a.single == b.single


# ---- Evolutions ----

def _shift_s(tab):
    """The table at (s0+1, t0): every index advances by one, extent shrinks."""
    K = tab.K - 1
    return moments.MomentTable(
        tab.mode, tab.s0 + 1, tab.t0, K, tab.policy,
        [[tab.bimoments[i + 1][j + 1] for j in range(K)] for i in range(K)],
        {t: v[1:] for t, v in tab.single_by_t.items()},
        {t: v[1:] for t, v in tab.phi_by_t.items()})


def test_shift_s_reindexes():
    tab = moments.synthetic_structured(2, 6, tmax=1)
    sh = _shift_s(tab)
    assert sh.s0 == tab.s0 + 1 and sh.K == tab.K - 1
    assert sh.m(1, 2) == tab.m(2, 3)
    assert sh.u(0) == tab.u(1)
    assert sh.phi(0) == tab.phi(1)


def test_evolve_t_rank_one_exact():
    tab = moments.synthetic_generic(2, 5, tmax=2)
    ev = tab.evolve_t()
    ph = tab.phi_by_t[0]
    for i in range(5):
        for j in range(5):
            assert ev.m(i, j) == tab.m(i, j) - ph[i] * ph[j]
    assert ev.t0 == 1 and ev.single is None
    assert 0 not in ev.phi_by_t and 1 in ev.phi_by_t
    with pytest.raises(ExtentError):
        ev.evolve_t().evolve_t().evolve_t()  # phi exhausted past Tmax


def test_evolve_t_missing_phi():
    tab = moments.synthetic_generic(2, 5, tmax=2)
    tab.phi_by_t = {}
    with pytest.raises(ExtentError):
        tab.evolve_t()


# ---- Serialization ----

def _json_round_trip(tab):
    """The table with every entry through fmt_scalar, JSON and parse_scalar."""
    def trip(vec):
        text = json.loads(json.dumps([fmt_scalar(v, tab.precision_digits)
                                      for v in vec]))
        return [parse_scalar(v, tab.exact, tab.precision_digits) for v in text]

    return dataclasses.replace(
        tab, bimoments=[trip(row) for row in tab.bimoments],
        single_by_t={t: trip(v) for t, v in tab.single_by_t.items()},
        phi_by_t={t: trip(v) for t, v in tab.phi_by_t.items()})


def test_exact_round_trip():
    tab = moments.synthetic_structured(6, 5, tmax=2)
    back = _json_round_trip(tab)
    assert back.bimoments == tab.bimoments
    assert back.single == tab.single
    assert back.phi_by_t == tab.phi_by_t


def test_float_round_trip_keeps_precision():
    tab = moments.build_jacobi(4, POL, tmax=1)
    back = _json_round_trip(tab)
    with mp.workdps(POL.working_dps):
        worst = min(digits_of_agreement(back.bimoments[i][j],
                                        tab.bimoments[i][j])
                    for i in range(4) for j in range(4))
        worst = min(worst,
                    min(digits_of_agreement(a, b)
                        for a, b in zip(back.single, tab.single)))
    assert worst >= POL.precision_digits - 2


# ---- Jacobi builder ----

def test_jacobi_closed_form_oracles(jacobi_ctx):
    tab = jacobi_ctx.base
    with mp.workdps(POL.working_dps):
        L = mp.ln(2)
        checks = (
            (tab.m(0, 0), 2 * L),
            (tab.m(1, 1), mp.mpf(2) / 3 - 2 * L / 3),
            (tab.u(0), mp.mpf(1)),
            (tab.phi(0), mp.sqrt(2) * L),
            (tab.phi(1), mp.sqrt(2) * (1 - L)),
        )
        worst = min(digits_of_agreement(a, b) for a, b in checks)
    assert worst >= POL.precision_digits - 5


def test_jacobi_table_is_correctly_rounded():
    # every entry equals its exact pair evaluated 60 digits higher with
    # mpmath's own arithmetic, then rounded to the working precision
    for prec, K, tmax in ((30, 15, 3), (80, 12, 2), (120, 9, 3), (240, 3, 1)):
        pol = TolerancePolicy(prec)
        dps = pol.working_dps
        tab = moments.build_jacobi(K, pol, tmax=tmax)
        bm, sg, ph = moments._jacobi_pairs(K, tmax)

        def high(pair, root2=False):
            p, q = pair
            with mp.workdps(dps + 60):
                v = (mp.mpf(p.numerator) / p.denominator
                     + mp.mpf(q.numerator) / q.denominator * mp.ln(2))
                v = v * mp.sqrt(2) if root2 else v
            with mp.workdps(dps):
                return +v

        assert tab.bimoments == [[high(x) for x in row] for row in bm]
        assert tab.single_by_t == {t: [high(x) for x in v]
                                   for t, v in sg.items()}
        assert tab.phi_by_t == {t: [high(x, True) for x in v]
                                for t, v in ph.items()}


_RATIONALS = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                          max_denominator=10 ** 6)


def _ln2_convergents(count):
    """The first `count` continued-fraction convergents p/q of ln2."""
    with mp.workprec(4000):
        x, out = mp.ln(2), []
        p0, q0, p1, q1 = 0, 1, 1, 0
        for _ in range(count):
            a = int(mp.floor(x))
            p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
            out.append((p1, q1))
            x = 1 / (x - a)
    return out


_CONVERGENTS = _ln2_convergents(400)


@st.composite
def _pairs(draw):
    """A pair (p, q) or triple (p, q, r) of rationals: random ones, ones
    whose integer form P + Q ln2 + R ln^2 2 over their common denominator
    is rounded to within 1/2 of zero, or ln2's convergents, where it is
    about 1/Q and the sum of the terms loses about the bits of Q (up to
    some 600) beyond the kernel's first width."""
    kind = draw(st.sampled_from(("random", "rounded", "convergent")))
    if kind == "random":
        return tuple(draw(st.lists(_RATIONALS, min_size=2, max_size=3)))
    den = draw(st.integers(1, 1000))
    if kind == "convergent":
        p, q = draw(st.sampled_from(_CONVERGENTS))
        m = draw(st.integers(1, 50)) * draw(st.sampled_from((1, -1)))
        return (Fraction(-p * m, den), Fraction(q * m, den),
                *[Fraction(0)] * draw(st.integers(0, 1)))
    k = draw(st.integers(1, 300))
    rest = [draw(st.integers(-2 ** k, 2 ** k))
            for _ in range(draw(st.integers(1, 2)))]
    with mp.workprec(k + 64):
        v = sum(c * mp.ln(2) ** (i + 1) for i, c in enumerate(rest))
    return tuple(Fraction(c, den) for c in (-int(mp.nint(v)), *rest))


@settings(max_examples=200, deadline=None)
@given(pair=_pairs(), prec=st.integers(8, 600), root2=st.booleans())
def test_round_pair_is_the_value_rounded_once(pair, prec, root2):
    # the fixed-point kernel against mpmath at three times the bits plus
    # the cancellation, rounded once to prec
    wide = 3 * (prec + 1000)
    with mp.workprec(wide):
        v = sum(mp.mpf(c.numerator) / c.denominator * mp.ln(2) ** i
                for i, c in enumerate(pair))
        v = v * mp.sqrt(2) if root2 else v
    with mp.workprec(prec):
        want = +v
        got = moments._round_pair(pair, prec, root2)
    assert got._mpf_ == want._mpf_


def test_jacobi_t1_closed_form_matches_quadrature():
    # the direct closed form of m^{0,1}, which checks a lattice's rank-one
    # t-step, against its oracle: one sweep of the whole t = 1 table
    K = 6
    direct = moments._t1_bimoment_triples(K)
    assert [len(row) for row in direct] == [K] * K
    assert all(len(x) == 3 for row in direct for x in row)
    with mp.workdps(POL.working_dps):
        swept = quadrature.bimoment_table(K, 0, 1, POL)
        prec = mp.mp.prec
        worst = min(digits_of_agreement(moments._round_pair(x, prec), y)
                    for dr, sr in zip(direct, swept) for x, y in zip(dr, sr))
    assert worst >= POL.precision_digits - 10


def test_jacobi_t_step_single_invariant(jacobi_ctx):
    # u_i^{t+1} = sqrt2 phi_i^t - u_i^t follows from 2/(1+x) - 1 = (1-x)/(1+x)
    base = jacobi_ctx.base
    ev = jacobi_ctx._table(1)
    with mp.workdps(POL.working_dps):
        r = mp.sqrt(2)
        worst = min(digits_of_agreement(ev.single[i],
                                        r * base.phi_by_t[0][i] - base.single[i])
                    for i in range(base.K))
    assert worst >= POL.precision_digits - 10


def test_jacobi_evolved_m00_closed_form(jacobi_ctx):
    # m_00^{0,1} = 2 ln2 - 2 ln^2 2 (rank-one update with phi_0 = sqrt2 ln2)
    ev = jacobi_ctx._table(1)
    with mp.workdps(POL.working_dps):
        L = mp.ln(2)
        d = digits_of_agreement(ev.m(0, 0), 2 * L - 2 * L ** 2)
    assert d >= POL.precision_digits - 5


def test_jacobi_fused_vectors_match_closed_integrands():
    # closed-form singles at t = 1..tmax+1 and phi at t = 0..tmax vs
    # mpmath.quad on the integrands
    pol = TolerancePolicy(precision_digits=35, guard_digits=10)
    dps = pol.working_dps
    tab = moments.build_jacobi(4, pol, tmax=2)
    worst = mp.inf
    with mp.workdps(dps):
        for t in (1, 2, 3):
            for i in range(4):
                ref = mp.quad(lambda x: _weight(x, i, t), [0, 1])
                worst = min(worst, digits_of_agreement(tab.single_by_t[t][i], ref))
        for t in (0, 1, 2):
            for i in range(4):
                ref = mp.quad(lambda x: _weight(x, i, t) / (1 + x), [0, 1])
                worst = min(worst, digits_of_agreement(tab.phi_by_t[t][i],
                                                       mp.sqrt(2) * ref))
    # mpmath.quad's accuracy, not the closed forms', sets the bound
    assert worst >= pol.precision_digits - 10


def test_jacobi_offset_base_matches_shift_and_evolve():
    # the (0, 0) table moved to (s0, t0) = (1, 1) by _shift_s, then evolve_t
    # equals the sweep there: bimoments, singles and phi per t, with
    # phi_i^{1,t} = (u_i^{0,t} - u_i^{0,t+1})/sqrt2 from x/(1+x) = (1-r)/2
    pol = TolerancePolicy(precision_digits=35, guard_digits=10)
    via = _shift_s(moments.build_jacobi(6, pol, tmax=2)).evolve_t()
    assert (via.s0, via.t0, via.K) == (1, 1, 5)
    assert sorted(via.single_by_t) == [1, 2, 3]
    assert sorted(via.phi_by_t) == [1, 2]
    with mp.workdps(pol.working_dps):
        sg = {t: quadrature.single_vector(6, 0, t, pol) for t in (1, 2, 3)}
        direct = quadrature.bimoment_table(5, 1, 1, pol, mu=sg[1])
        r2 = mp.sqrt(2)
        pairs = [(direct[i][j], via.bimoments[i][j])
                 for i in range(5) for j in range(5)]
        pairs += [(a, b) for t in (1, 2, 3)
                  for a, b in zip(sg[t][1:], via.single_by_t[t])]
        pairs += [((a - b) / r2, c) for t in (1, 2)
                  for a, b, c in zip(sg[t], sg[t + 1], via.phi_by_t[t])]
        worst = max(relative_residual(a - b, max(abs(a), abs(b)))
                    for a, b in pairs)
    assert worst < pol.rel_tol()


def test_jacobi_evolve_t_runs_no_quadrature(monkeypatch):
    tab = moments.build_jacobi(4, POL, tmax=2)

    def no_quadrature(*args):
        raise AssertionError("evolve_t ran quadrature")

    monkeypatch.setattr(quadrature, "_nodes", no_quadrature)
    ev = tab.evolve_t().evolve_t()
    assert ev.t0 == 2 and ev.single is not None
    assert ev.single == tab.single_by_t[2]


# ---- Builder dispatch ----

def test_build_base_table_dispatch():
    with pytest.raises(ConfigError):
        moments.build_base_table("jacobi-float", 0, 0, 4)   # policy required
    with pytest.raises(ConfigError):
        moments.build_base_table("no-such-mode", 0, 0, 4)
    with pytest.raises(ConfigError):
        moments.build_base_table("synthetic-generic", 0, 0, 0)
    # the closed forms hold at (0, 0); an offset jacobi base is refused,
    # not built wrong
    for s0, t0 in ((1, 0), (0, 1)):
        with pytest.raises(ConfigError, match=r"\(s0, t0\) = \(0, 0\) only"):
            moments.build_base_table("jacobi-float", s0, t0, 4, policy=POL)
    tab = moments.build_base_table("synthetic-structured", 0, 0, 5, seed=2)
    assert tab.mode == "synthetic-structured" and tab.K == 5
