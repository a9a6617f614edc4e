"""Quadrature engine: node rule, moment integrals, oracle agreement.

Oracles are recomputed closed forms, never frozen decimals:
  u_0^{0,0} = 1, u_1^{0,0} = 1/2, phi_0^{0,0} = sqrt2 ln2, m_00^{0,0} = 2 ln2,
  u_0^{0,1} = 2 ln2 - 1, phi_1^{0,0} = sqrt2 (1 - ln2);
elsewhere a nested `mpmath.quad`, which has its own tanh-sinh nodes.
"""

import mpmath as mp
import pytest
from mpmath.libmp import to_fixed

from dckp.numerics import (TolerancePolicy, digits_of_agreement,
                           relative_residual)
from dckp import moments, quadrature

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
    # the direct phi kernel below, the oracle of the closed-form phi
    with mp.workdps(DPS):
        ph = _reference_weight_moments(2, 0, [], [0], POL)[1][0]
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


# ---- The linear sums against the per-pair and per-value kernels ----
#
# The reference kernels below sum every returned value on its own, as the
# sweeps did before they summed O(K) rows and derived the rest.  Both sides
# run through `_sweep`.  The per-value kernel also sums phi, which the
# program takes only from its closed form.

def _reference_bimoments(pairs, s, t, policy, mu):
    """One accumulator per (i, j): the ladder up to I_{s + max i} per node."""
    cmax = s + max(i for i, _ in pairs)
    jmax = max(j for _, j in pairs)
    dps = policy.working_dps
    P = quadrature._bits(dps)
    one = 1 << P
    MU = [to_fixed(v._mpf_, P) for v in mu[:cmax]]
    J, D = quadrature._J_table(t, dps)

    def kernel(nodes, acc):
        for y, omy, w in nodes:
            iv = [quadrature._inner_I0(y, omy, t, P, J, D)]
            for c in range(cmax):
                iv.append(MU[c] - (y * iv[c] >> P))
            r = (omy << P) // (one + y)
            col = [w * pow(r, t) * pow(y, s) >> P * (t + s)]
            for _ in range(jmax):
                col.append(col[-1] * y >> P)
            for n, (i, j) in enumerate(pairs):
                acc[n] += iv[s + i] * col[j]

    return quadrature._sweep("reference", kernel, len(pairs), policy)


def _reference_weight_moments(count, s, single_ts, phi_ts, policy):
    """One accumulator per single and per phi value."""
    specs = [(t, False) for t in single_ts] + [(t, True) for t in phi_ts]
    thi = max(t for t, _ in specs)
    P = quadrature._bits(policy.working_dps)
    one = 1 << P

    def kernel(nodes, acc):
        for x, omx, w in nodes:
            den = one + x
            r = (omx << P) // den
            wt, pw = [w], [one]
            for _ in range(thi):
                wt.append(wt[-1] * r >> P)
            for _ in range(s + count - 1):
                pw.append(pw[-1] * x >> P)
            pw, n = pw[s:], 0
            for t, phi in specs:
                v = (wt[t] << P) // den if phi else wt[t]
                for q in pw:
                    acc[n] += v * q
                    n += 1

    vals = quadrature._sweep("reference", kernel, len(specs) * count, policy)
    vecs = [vals[n:n + count] for n in range(0, len(vals), count)]
    r2 = mp.sqrt(2)
    return (dict(zip(single_ts, vecs)),
            {t: [r2 * v for v in vec]
             for t, vec in zip(phi_ts, vecs[len(single_ts):])})


def _assert_same(got, want, policy):
    # equal, or apart by the final rounding of a sum whose per-node terms
    # differ by 2^-P: one ulp plus 2^-P per node
    P = quadrature._bits(policy.working_dps)
    nodes = sum(len(v) for (d, _, _), v in quadrature._node_cache.items()
                if d == policy.working_dps)
    for a, b in zip(got, want, strict=True):
        assert a == b or abs(a - b) <= (abs(b) * mp.eps * 2
                                        + mp.mpf(2) ** -P * nodes), (a, b)


@pytest.mark.parametrize("prec,guard", [(30, 10), (80, 20), (120, 40)])
def test_linear_sums_match_per_pair_and_per_t_kernels(prec, guard):
    pol = TolerancePolicy(prec, guard)
    with mp.workdps(pol.working_dps):
        # s and t in 0..2, with K cycling through 3..9
        for n, (s, t) in enumerate((s, t) for s in range(3) for t in range(3)):
            K = 3 + n % 7
            mu = quadrature.single_vector(s + K, 0, t, pol)
            pairs = [(i, j) for i in range(K) for j in range(K)]
            _assert_same([v for row in quadrature.bimoment_table(
                K, s, t, pol, mu=mu) for v in row],
                _reference_bimoments(pairs, s, t, pol, mu), pol)
        # the lattice's t-evolution spot check, mu integrated by the sweep
        spots = ((0, 0), (1, 1), (0, 2))
        mu = quadrature.single_vector(1, 0, 1, pol)
        _assert_same(quadrature.bimoments(spots, 0, 1, pol),
                     _reference_bimoments(spots, 0, 1, pol, mu), pol)
        # the singles sweep
        for count, s, t in ((9, 0, 0), (9, 0, 3), (5, 2, 1)):
            _assert_same(quadrature.single_vector(count, s, t, pol),
                         _reference_weight_moments(count, s, [t], [], pol)[0][t],
                         pol)


# ---- The closed-form table against the sweep ----

@pytest.mark.parametrize("prec,guard,K,tmax", [
    (30, 10, 15, 3), (80, 20, 12, 2), (120, 40, 9, 3), (240, 40, 3, 1)])
def test_closed_forms_match_the_sweep(prec, guard, K, tmax):
    # moments.build_jacobi's table against independent sweeps, to rel_tol:
    # singles at t <= tmax+1, phi at t <= tmax from the direct phi kernel,
    # and bimoments at t <= tmax, reached by rank-one steps with the
    # closed-form phi
    pol = TolerancePolicy(prec, guard)
    tabs = [moments.build_jacobi(K, pol, tmax=tmax)]
    for _ in range(tmax):
        tabs.append(tabs[-1].evolve_t())
    with mp.workdps(pol.working_dps):
        sg = {t: quadrature.single_vector(K, 0, t, pol)
              for t in range(tmax + 2)}
        ph = _reference_weight_moments(K, 0, [], range(tmax + 1), pol)[1]
        pairs = [(a, b) for t in sg
                 for a, b in zip(tabs[0].single_by_t[t], sg[t])]
        pairs += [(a, b) for t in ph
                  for a, b in zip(tabs[0].phi_by_t[t], ph[t])]
        for t, tab in enumerate(tabs):
            bm = quadrature.bimoment_table(K, 0, t, pol, mu=sg[t])
            pairs += [(tab.m(i, j), bm[i][j])
                      for i in range(K) for j in range(K)]
        worst = max(relative_residual(a - b, max(abs(a), abs(b))) for a, b in pairs)
    assert len(pairs) == K * (2 * tmax + 3) + K * K * (tmax + 1)
    assert worst < pol.rel_tol(), mp.nstr(worst, 5)


def test_sweeps_sum_linearly_many_accumulators(monkeypatch):
    # 2(2K-1) sums for a K x K table (K^2 per pair), count for the singles
    sizes = []
    real = quadrature._sweep

    def counted(what, kernel, size, *args):
        sizes.append(size)
        return real(what, kernel, size, *args)

    monkeypatch.setattr(quadrature, "_sweep", counted)
    low = TolerancePolicy(30, 10)
    for K in (3, 9):
        mu = quadrature.single_vector(K, 0, 0, low)
        assert sizes == [K]
        sizes.clear()
        quadrature.bimoment_table(K, 0, 0, low, mu=mu)
        assert sizes == [2 * (2 * K - 1)]
        sizes.clear()


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
    # for t > 0
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
    # at t = 0 the closed form ln((1+y)/y) serves y > 1/2 too
    J0, D0 = quadrature._J_table(0, DPS)
    y = 3 * one // 4
    with mp.workdps(DPS):
        i0 = _fixed_to_mpf(quadrature._inner_I0(y, one - y, 0, P, J0, D0))
    _agree(i0, lambda: mp.ln(mp.mpf(7) / 3))
