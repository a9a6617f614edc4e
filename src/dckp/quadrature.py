"""Tanh-sinh quadrature on (0,1) and the moment integrals of the weight
x^s (1-x)^t (1+x)^-t.

One level-doubling driver, `_sweep`, computes every moment of a table.  It
walks the cached nodes level by level as fixed-point ints with P =
ceil(dps log2 10) + 32 fraction bits; a kernel adds each node's terms into
integer accumulators, so level L adds only its new odd nodes, a linear
`derive` maps them to the returned values once per level, and each value
becomes an mpf once.  Both sweeps make O(K) sums per node, not O(K^2).
`single_vector` gets the singles u_i^{s,t} at one t.  `bimoments` gets any
set of m_{ij} = int int x^{s+i} y^{s+j} w(x)w(y)/(x+y) from one outer sum
with the inner x-integral exact per node: I_0(y) in closed form (partial
fractions for y <= 1/2 or t = 0, a positive Taylor series around y = 1
otherwise; y-free constants made once per t), then the ladder
I_{c+1}(y) = mu_c - y I_c(y) up to I_s.  It sums row 0 and the outer
singles S_j, and the ladder summed over the nodes gives the other rows.

The derived values equal per-value sums up to 2^-P per node, so
m_{i+1,j} + m_{i,j+1} = mu_{s+i} S_j holds to that rounding whatever the
quadrature error.  The absolute 2^-P error per node is enough because every
weight carries a factor x(1-x).

The moment tables the program uses come from closed forms (`moments`); no
table or lattice build runs a sweep (a jacobi lattice checks its t-evolution
exactly, against the closed form of the t = 1 table).  The sweeps are the
independent oracle of the closed forms: `selfcheck`, acceptance criterion 4
and the tests compare the two.

Every sweep runs one fixed schedule: it starts at START_LEVEL = 6 and doubles
up to MAX_LEVEL = 13, working at the policy's working precision with a
target of precision - 10 digits.  Level L is accepted when every returned
value moved by at most 10^-target, relative to max(1, |value|), from level
L-1; reaching MAX_LEVEL short of that raises ArithmeticError naming the
quantity, the level and the last delta.  The schedule is not an option:
level doubling judges its own convergence (Bailey, Jeyabalan & Li, Exp. Math.
14, 2005), so the values meet the same target from any start level and only
the run time moves; the precision alone sets the target.

Nodes are cached per (dps, level) as fixed-point (x, 1-x, w) triples; level
L reuses every level L-1 node.  The tests check the sweeps against
`mpmath.quad`, whose nodes share no code with `_nodes`.
"""

from math import asinh, ceil, comb, log, log2, pi as pi_f

import mpmath as mp
from mpmath.libmp import from_man_exp, mpf_div, mpf_log, to_fixed
from mpmath.libmp.libelefun import exp_fixed, ln2_fixed, pi_fixed

START_LEVEL = 6
MAX_LEVEL = 13


def _bits(dps):
    """Fixed-point fraction bits for a working precision of dps digits."""
    return ceil(dps * log2(10)) + 32


# ---- Node cache ----

_node_cache = {}   # (dps, level, is_base) -> [(X, 1-X, W)] NEW nodes of that level


def _nodes(dps, level, base_level):
    """Fixed-point nodes added at `level` relative to level-1 (all nodes when
    level == base_level), each (x, 1-x, w) scaled by 2^P.

    With u = k 2^-level, g = pi/2 sinh u and x = 1/(1+e^{-2g}), the weight is
    pi/2 cosh u / cosh^2 g = pi cosh u x(1-x); node -k is node k mirrored.
    """
    key = (dps, level, level == base_level)
    got = _node_cache.get(key)
    if got is not None:
        return got
    kmax = int(asinh(log(10) * (dps + 6) / pi_f) * 2 ** level) + 1
    P = _bits(dps)
    one = 1 << P
    pi, ln2 = pi_fixed(P), ln2_fixed(P)
    ks = range(0, kmax + 1) if level == base_level else range(1, kmax + 1, 2)
    out = []
    for k in ks:
        e = exp_fixed(k << (P - level), P, ln2)            # e^u
        ei = (one << P) // e                                # e^-u
        eg = exp_fixed(-(pi * ((e - ei) >> 1) >> P), P, ln2)  # e^-2g
        x = (one << P) // (one + eg)
        omx = one - x
        w = ((pi * ((e + ei) >> 1) >> P) * x >> P) * omx >> P
        if w == 0:
            continue
        out.append((x, omx, w))
        if k:
            out.append((omx, x, w))
    _node_cache[key] = out
    return out


# ---- Fixed-point level-doubling driver ----

def _sweep(what, kernel, size, policy, derive=list):
    """The integrals derive(acc) over (0,1) from one level-doubling sweep, as
    mpf at the policy's working precision.

    kernel(nodes, acc) adds, for each fixed-point node (X, 1-X, W) of one
    level, its terms into the `size` integer accumulators acc[n]; derive maps
    them, linearly, to the returned values at scale 2^2P.  The target is
    precision - 10 digits, judged on the returned values; raises
    ArithmeticError when MAX_LEVEL is reached short of it.
    """
    dps = policy.working_dps
    target = policy.precision_digits - 10
    P = _bits(dps)
    tol = 10 ** target
    acc = [0] * size
    prev = None
    level = START_LEVEL
    while True:
        kernel(_nodes(dps, level, START_LEVEL), acc)
        vals = derive(acc)
        one = 1 << (2 * P + level)
        # the level L-1 total on the level L scale is 2 * prev
        if prev is not None and all(abs(a - 2 * p) * tol <= max(one, abs(a))
                                    for a, p in zip(vals, prev)):
            break
        if level >= MAX_LEVEL:
            delta = ("%.3g" % max(abs(a - 2 * p) / max(one, abs(a))
                                  for a, p in zip(vals, prev))
                     if prev is not None else "none (one level only)")
            raise ArithmeticError(
                "quadrature of %s did not converge: level %d reached, "
                "last delta %s, target 1e-%d"
                % (what, level, delta, target))
        prev = vals
        level += 1
    with mp.workdps(dps):
        return [mp.mpf((a, -(2 * P + level))) for a in vals]


# ---- Single moments ----

def single_vector(count, s, t, policy):
    """[u_i^{s,t}]_{i<count}, u_i = int x^{s+i} ((1-x)/(1+x))^t dx, from one
    sweep of count sums."""
    P = _bits(policy.working_dps)
    one = 1 << P

    def kernel(nodes, acc):
        for x, omx, w in nodes:
            r = (omx << P) // (one + x)
            v, q = w, one
            for _ in range(t):
                v = v * r >> P
            for _ in range(s):
                q = q * x >> P
            for n in range(count):
                acc[n] += v * q
                q = q * x >> P

    return _sweep("singles at s=%d, t=%d" % (s, t), kernel, count, policy)


# ---- Exact inner integral I_c(y) = int_0^1 x^c ((1-x)/(1+x))^t / (x+y) dx ----

_inner_cache = {}   # (t, dps) -> (J, D), fixed point at _bits(dps)


def _J_table(t, dps):
    """y-free constants of I_0 at P bits: J_k = int ((1-x)/(1+x))^t (1+x)^-k
    for the Taylor branch, and the partial-fraction branch's coefficients of
    (1-y)^-n, D_n = -sum_j (-1)^j C(t,j) 2^(t-j) E_{t+1-n-j}, E_k = J_k at t=0.
    """
    key = (t, dps)
    got = _inner_cache.get(key)
    if got is not None:
        return got
    P = _bits(dps)
    one = 1 << P
    kmax = int((dps + 10) * log2(10)) + 12
    # V[a][m] = int x^a (1+x)^-m dx, rows a = 0..t, m = 0..t+kmax
    mtop = t + kmax + 1
    V0 = [one, ln2_fixed(P)]
    V0 += [(one - (one >> (m - 1))) // (m - 1) for m in range(2, mtop + 1)]
    rows = [V0]
    for a in range(1, t + 1):
        prevrow = rows[-1]
        rows.append([one // (a + 1)]
                    + [prevrow[m - 1] - prevrow[m] for m in range(1, mtop + 1)])
    J = [0] + [sum((-1) ** a * comb(t, a) * rows[a][t + k] for a in range(t + 1))
               for k in range(1, kmax + 1)]
    D = [0] + [-sum((-1) ** j * comb(t, j) * 2 ** (t - j) * V0[t + 1 - n - j]
                    for j in range(t - n + 1))
               for n in range(1, t + 1)]
    _inner_cache[key] = (J, D)
    return J, D


def _inner_I0(y, omy, t, P, J, D):
    """Closed-form I_0(y) in fixed point at P bits; omy = 1-y."""
    one = 1 << P
    if 2 * y <= one or not t:
        # ((1+y)/(1-y))^t ln((1+y)/y) + sum_n D_n (1-y)^-n; at t = 0 no
        # term cancels, so this branch serves every y
        lg = to_fixed(mpf_log(mpf_div(from_man_exp(one + y, 0),
                                      from_man_exp(y, 0), P + 16), P + 16), P)
        a = ((one + y) << P) // omy
        r = (one << P) // omy
        h = 0
        for n in range(t, 0, -1):
            lg = lg * a >> P
            h = (h + D[n]) * r >> P
        return lg + h
    # Taylor series around y = 1: I_0 = sum_m (1-y)^m J_{m+1}, all terms
    # positive; m runs until (1-y)^m drops below 2^-P
    m = min(int(P / (P - log2(omy))) + 1, len(J) - 2)
    h = J[m + 1]
    for k in range(m, 0, -1):
        h = J[k] + (h * omy >> P)
    return h


# ---- Bimoments ----

def bimoments(pairs, s, t, policy, mu=None):
    """[m_{ij}^{s,t} for (i, j) in pairs] from one sweep of the outer-DE /
    exact-inner-ladder rule.  mu = [u_c^{0,t}]_{c < s + max i} (mpf) feeds the
    ladder; it is integrated here when not given.

    The sweep sums row 0, A_j = sum W I_s(y) y^{s+j}, and the outer singles
    S_j = sum W y^{s+j} for j <= reach = max(i + j); summing the ladder over
    the nodes gives every other row, m_{i+1,j} = mu_{s+i} S_j - m_{i,j+1}.
    """
    cmax = s + max(i for i, _ in pairs)
    reach = max(i + j for i, j in pairs)
    if mu is None:
        mu = single_vector(max(cmax, 1), 0, t, policy)
    dps = policy.working_dps
    P = _bits(dps)
    one = 1 << P
    MU = [to_fixed(v._mpf_, P) for v in mu[:cmax]]
    J, D = _J_table(t, dps)

    def kernel(nodes, acc):
        for y, omy, w in nodes:
            iv = _inner_I0(y, omy, t, P, J, D)
            for c in range(s):
                iv = MU[c] - (y * iv >> P)
            r = (omy << P) // (one + y)
            col = w * pow(r, t) * pow(y, s) >> P * (t + s)
            for n in range(0, 2 * reach + 2, 2):
                acc[n] += iv * col
                acc[n + 1] += col
                col = col * y >> P

    def derive(acc):
        rows, S = [acc[0::2]], acc[1::2]
        for c in MU[s:]:
            prev = rows[-1]
            rows.append([c * S[j] - prev[j + 1] for j in range(len(prev) - 1)])
        return [rows[i][j] for i, j in pairs]

    return _sweep("bimoments m^{%d,%d}" % (s, t), kernel, 2 * reach + 2,
                  policy, derive)


def bimoment_table(K, s, t, policy, mu=None):
    """K x K table of m_{ij}^{s,t} from one sweep; mu as for `bimoments`."""
    flat = bimoments([(i, j) for i in range(K) for j in range(K)], s, t,
                     policy, mu=mu)
    return [flat[i * K:(i + 1) * K] for i in range(K)]


def bimoment_entry(i, j, s, t, policy):
    """Single m_{ij}^{s,t} by the outer-DE / exact-inner-ladder path."""
    return bimoments([(i, j)], s, t, policy)[0]

