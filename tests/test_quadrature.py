"""Quadrature engine: node rule, moment integrals, oracle agreement.

Oracles are recomputed closed forms, never frozen decimals:
  u_0^{0,0} = 1, u_1^{0,0} = 1/2, phi_0^{0,0} = sqrt2 ln2, m_00^{0,0} = 2 ln2,
  u_0^{0,1} = 2 ln2 - 1, phi_1^{0,0} = sqrt2 (1 - ln2);
elsewhere a nested `mpmath.quad`, which has its own tanh-sinh nodes.
"""

import mpmath as mp
import pytest

from dckp.numerics import TolerancePolicy, digits_of_agreement
from dckp import quadrature

PREC = 80
POL = TolerancePolicy(precision_digits=PREC, guard_digits=20)
DPS = POL.working_dps


def _agree(value, closed_form_fn, need=PREC - 10):
    with mp.workdps(DPS):
        d = digits_of_agreement(value, closed_form_fn())
    assert d >= need, d


# ---- Node rule ----

def test_de_calibration_improves_with_level():
    # int dx/(1+x) = ln2 from one fixed level of `_nodes` (no doubling): below
    # the precision ceiling each level roughly doubles the digit count
    dps = 120
    e = -quadrature._bits(dps)
    cal = {}
    with mp.workdps(dps):
        for lv in (3, 4, 5):
            total = sum(mp.mpf((w, e)) / (1 + mp.mpf((x, e)))
                        for x, _, w in quadrature._nodes(dps, lv, lv))
            err = abs(total * mp.mpf(2) ** -lv - mp.ln(2)) / mp.ln(2)
            cal[lv] = float(-mp.log10(err))
    assert cal[3] + 15 < cal[4]
    assert cal[4] + 15 < cal[5]
    assert cal[5] > 90


# ---- One-dimensional moments ----

def test_single_vector_closed_forms():
    with mp.workdps(DPS):
        u = quadrature.single_vector(3, 0, 0, POL)
    _agree(u[0], lambda: mp.mpf(1))
    _agree(u[1], lambda: mp.mpf(1) / 2)
    _agree(u[2], lambda: mp.mpf(1) / 3)
    with mp.workdps(DPS):
        u1 = quadrature.single_vector(1, 0, 1, POL)
    _agree(u1[0], lambda: 2 * mp.ln(2) - 1)


def test_phi_vector_closed_forms():
    with mp.workdps(DPS):
        ph = quadrature.weight_moments(2, 0, [], [0], POL)[1][0]
    _agree(ph[0], lambda: mp.sqrt(2) * mp.ln(2))
    _agree(ph[1], lambda: mp.sqrt(2) * (1 - mp.ln(2)))


# ---- Bimoments ----

def _nested_quad(i, j, s, t):
    """m_{ij}^{s,t} as a nested `mpmath.quad`: the oracle shares no node or
    ladder code with `quadrature`."""
    def wbar(x):
        return ((1 - x) / (1 + x)) ** t

    def inner(y):
        return mp.quad(lambda x: x ** (s + i) * wbar(x) / (x + y), [0, 1])

    return mp.quad(lambda y: y ** (s + j) * wbar(y) * inner(y), [0, 1])


LOW = TolerancePolicy(precision_digits=25, guard_digits=8)


def test_bimoment_m00_vs_2ln2_both_methods():
    with mp.workdps(DPS):
        fast = quadrature.bimoment_entry(0, 0, 0, 0, POL)
    _agree(fast, lambda: 2 * mp.ln(2))
    with mp.workdps(LOW.working_dps):
        d = digits_of_agreement(_nested_quad(0, 0, 0, 0), 2 * mp.ln(2))
    assert d >= 15


def test_bimoment_nested_agrees_with_ladder_at_shifted_site():
    dps = LOW.working_dps
    with mp.workdps(dps):
        a = _nested_quad(1, 2, 1, 1)
        b = quadrature.bimoment_entry(1, 2, 1, 1, LOW)
        d = digits_of_agreement(a, b)
    assert d >= 13


def test_bimoment_table_antidiagonal_identity():
    K = 5
    with mp.workdps(DPS):
        bm = quadrature.bimoment_table(K, 0, 1, POL)
        uv = quadrature.single_vector(K, 0, 1, POL)
        worst = min(digits_of_agreement(bm[i + 1][j] + bm[i][j + 1],
                                        uv[i] * uv[j])
                    for i in range(K - 1) for j in range(K - 1))
    assert worst >= PREC - 10


def test_sweep_without_convergence_raises(monkeypatch):
    # one level gives no level-doubling delta; two levels fall short of the
    # target at 240 digits: both name the quantity, level and last delta
    deep = TolerancePolicy(precision_digits=240)
    # mu from a converged sweep, so the bimoment sweep is the one to fail
    mu = quadrature.single_vector(3, 0, 1, deep)
    monkeypatch.setattr(quadrature, "MAX_LEVEL", quadrature.START_LEVEL)
    with pytest.raises(ArithmeticError, match="singles.*level 6 reached.*none"):
        quadrature.single_vector(3, 0, 0, POL)
    monkeypatch.setattr(quadrature, "MAX_LEVEL", quadrature.START_LEVEL + 1)
    with pytest.raises(ArithmeticError,
                       match=r"bimoments m\^\{0,1\}.*level 7 reached.*last delta \d"):
        quadrature.bimoment_table(3, 0, 1, deep, mu=mu)


# ---- Exact inner-integral machinery ----

def _fixed_to_mpf(v):
    return mp.mpf((v, -quadrature._bits(DPS)))


def test_J_table_closed_forms():
    # t = 0: J_k = int (1+x)^-k; J_1 = ln2, J_2 = 1/2
    J, _ = quadrature._J_table(0, DPS)
    with mp.workdps(DPS):
        j1, j2 = _fixed_to_mpf(J[1]), _fixed_to_mpf(J[2])
    _agree(j1, lambda: mp.ln(2))
    _agree(j2, lambda: mp.mpf(1) / 2)


def test_inner_I0_branches_agree():
    # partial-fraction branch (y <= 1/2) and Taylor branch (y > 1/2) must meet
    P = quadrature._bits(DPS)
    one = 1 << P
    J, D = quadrature._J_table(2, DPS)
    half = one // 2
    above = half + one // 10 ** 10            # y = 0.5000000001
    lo = quadrature._inner_I0(half, one - half, 2, P, J, D)
    hi = quadrature._inner_I0(above, one - above, 2, P, J, D)
    with mp.workdps(DPS):
        d = digits_of_agreement(_fixed_to_mpf(lo), _fixed_to_mpf(hi))
    assert d >= 8
