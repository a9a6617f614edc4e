"""Moment tables: bimoments m_ij, single moments u_i, linear-functional values
phi_i, with the two lattice evolutions.

Shift in s reindexes (DetContext reads m_{i+ds, j+ds}); shift in t is the
rank-one update m'_ij = m_ij - phi_i phi_j.  Three modes:

  jacobi-float          float entries of the true weight from closed forms
  synthetic-generic     exact random symmetric bimoments, free phi, no singles
  synthetic-structured  exact random singles with bimoments filled so that
                        m_{i+1,j} + m_{i,j+1} = u_i u_j on every antidiagonal

Singles and phi vectors are both stored per absolute t (`single_by_t`,
`phi_by_t`): a t-step keeps the entries above the new t, a shift in s reads
index i + ds of each.  No t-update law exists for either.  A jacobi table is
built at (s0, t0) = (0, 0), where every entry is p + q ln2 (phi: sqrt2 times
that) with p, q rational; it gets singles for t = 0..tmax+1 and phi for
t = 0..tmax from these exact pairs, so neither the build nor evolve_t runs
quadrature.  The t = 1 bimoments also have a direct closed form in
Q + Q ln2 + Q ln^2 2 that makes no use of phi; a jacobi lattice build checks
the rank-one t-step against it exactly, with no sweep.  The quadrature sweep
is the independent oracle of every closed form.  Synthetic tables treat phi
as free data; structured ones carry singles at the base t only, generic ones
none.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, lcm

import mpmath as mp
from mpmath.libmp import (from_int, from_rational, mpf_add, mpf_ln2, mpf_mul,
                          mpf_pos, mpf_sqrt, round_nearest)

from .numerics import WORKING_MARGIN, ExtentError, ConfigError

MODES = ("jacobi-float", "synthetic-generic", "synthetic-structured")


# ---- Table ----

@dataclass
class MomentTable:
    """K x K bimoments at (s0, t0) plus per-t singles and phi vectors."""
    mode: str
    s0: int
    t0: int
    K: int
    precision_digits: object        # int for jacobi-float, None for exact modes
    bimoments: list
    single_by_t: dict = field(default_factory=dict)
    phi_by_t: dict = field(default_factory=dict)

    @property
    def exact(self):
        return self.precision_digits is None

    @property
    def single(self):
        """Singles at the table's own t, or None."""
        return self.single_by_t.get(self.t0)

    def m(self, i, j):
        if not (0 <= i < self.K and 0 <= j < self.K):
            raise ExtentError("bimoment (%d,%d) outside table of extent %d" % (i, j, self.K))
        return self.bimoments[i][j]

    def u(self, i):
        if self.single is None:
            raise ExtentError("single moments undefined in this table (mode=%s, t=%d)"
                              % (self.mode, self.t0))
        if not (0 <= i < len(self.single)):
            raise ExtentError("single moment %d outside extent %d" % (i, len(self.single)))
        return self.single[i]

    def phi(self, i):
        vec = self.phi_by_t.get(self.t0)
        if vec is None:
            raise ExtentError("phi vector unavailable at t=%d" % self.t0)
        if not (0 <= i < len(vec)):
            raise ExtentError("phi index %d outside extent %d" % (i, len(vec)))
        return vec[i]

    def has_single(self):
        return self.single is not None

    # ---- Evolutions ----

    def evolve_t(self):
        """Table at (s0, t0+1): rank-one update by the phi vector at t0."""
        vec = self.phi_by_t.get(self.t0)
        if vec is None:
            raise ExtentError("cannot evolve t: phi vector missing at t=%d" % self.t0)
        if len(vec) < self.K:
            raise ExtentError("phi vector shorter than table extent")
        K = self.K
        if self.exact:
            bm = [[self.bimoments[i][j] - vec[i] * vec[j] for j in range(K)]
                  for i in range(K)]
        else:
            with mp.workdps(self.precision_digits + WORKING_MARGIN):
                bm = [[self.bimoments[i][j] - vec[i] * vec[j] for j in range(K)]
                      for i in range(K)]
        sg = {t: v for t, v in self.single_by_t.items() if t > self.t0}
        ph = {t: v for t, v in self.phi_by_t.items() if t > self.t0}
        return MomentTable(self.mode, self.s0, self.t0 + 1, K,
                           self.precision_digits, bm, sg, ph)


# ---- Builders ----

def build_base_table(mode, s0, t0, K, policy=None, seed=0, tmax=3):
    """The one mode dispatcher.  Jacobi tables need the policy and a base at
    (0, 0); synthetic ones ignore the policy and draw from seed."""
    if K < 1:
        raise ConfigError("table extent must be positive")
    if mode == "jacobi-float":
        if policy is None:
            raise ConfigError("jacobi-float mode needs a TolerancePolicy")
        if (s0, t0) != (0, 0):
            raise ConfigError("jacobi-float tables are built at (s0, t0) = "
                              "(0, 0) only: their closed forms hold there; "
                              "a DetContext reads other (s, t) from it")
        return build_jacobi(K, policy, tmax=tmax)
    if mode == "synthetic-generic":
        return synthetic_generic(seed, K, tmax=tmax, s0=s0, t0=t0)
    if mode == "synthetic-structured":
        return synthetic_structured(seed, K, tmax=tmax, s0=s0, t0=t0)
    raise ConfigError("unknown mode: %r" % (mode,))


# ---- Synthetic generators (exact) ----

_BOUND = 50


def _rand_frac(rng, nonzero=False):
    while True:
        num = rng.randint(-_BOUND, _BOUND)
        if num or not nonzero:
            return Fraction(num, rng.randint(1, _BOUND))


def synthetic_generic(seed, K, tmax=3, s0=0, t0=0):
    """Random symmetric exact bimoments with an independent phi vector per t."""
    rng = random.Random("generic:%d" % seed)
    bm = [[Fraction(0)] * K for _ in range(K)]
    for i in range(K):
        for j in range(i, K):
            bm[i][j] = bm[j][i] = _rand_frac(rng)
    ph = {t: [_rand_frac(rng) for _ in range(K)] for t in range(t0, t0 + tmax + 1)}
    return MomentTable("synthetic-generic", s0, t0, K, None, bm, {}, ph)


def synthetic_structured(seed, K, tmax=3, s0=0, t0=0):
    """Exact bimoments satisfying m_{i+1,j} + m_{i,j+1} = u_i u_j at the base t.

    Walking each antidiagonal D with v_{l+1} = u_l u_{D-1-l} - v_l, symmetry
    forces the start value on odd D (e.g. m_{0,1} = u_0^2/2) and leaves it free
    on even D.
    """
    rng = random.Random("structured:%d" % seed)
    u = [_rand_frac(rng, nonzero=True) for _ in range(2 * K + 1)]
    bm = [[Fraction(0)] * K for _ in range(K)]
    bm[0][0] = _rand_frac(rng)
    for D in range(1, 2 * K - 1):
        w = [u[l] * u[D - 1 - l] for l in range(D)]
        if D % 2 == 1:
            r = (D - 1) // 2
            v0 = w[r] / 2
            for l in range(r):
                sign = 1 if (r - 1 - l) % 2 == 0 else -1
                v0 -= sign * w[l]
            if r % 2 == 1:
                v0 = -v0
        else:
            v0 = _rand_frac(rng)
        v = v0
        if D < K:
            bm[0][D] = bm[D][0] = v
        for l in range(D):
            v = w[l] - v
            i, j = l + 1, D - 1 - l
            if i < K and j < K:
                bm[i][j] = v
    ph = {t: [_rand_frac(rng) for _ in range(K)] for t in range(t0, t0 + tmax + 1)}
    return MomentTable("synthetic-structured", s0, t0, K, None, bm, {t0: u}, ph)


# ---- Jacobi builder (closed forms) ----
#
# At (s0, t0) = (0, 0) every single, phi/sqrt2 and bimoment of the weight
# ((1-x)/(1+x))^t on (0,1) is p + q ln2 with p, q rational, held as the exact
# pair (p, q):
#   u_i^t = I(i, t, t),  phi_i^t = sqrt2 I(i, t, t+1),
#   I(a, b, c) = int_0^1 x^a (1-x)^b (1+x)^-c dx = int_1^2 (z-1)^a (2-z)^b z^-c dz;
#   m_0j = 1/(j+1)^2 + (ln2 - F_{j+1})/(j+1),  F_k = int_0^1 y^k/(1+y) dy;
#   m_{i+1,j} = u_i u_j - m_{i,j+1} with u_i = 1/(i+1), the Cauchy-kernel
#   ladder (Bertola, Gekhtman & Szmigielski, J. Approx. Theory 162, 2010).
# The bimoments at t = 1 have a direct closed form too, p + q ln2 + r ln^2 2,
# held as the triple (p, q, r): partial fractions give row 0,
#   m_0j^{0,1} = 1/(j+1)^2 + (ln2 - F_{j+1})/(j+1) - 2 ln2 F_j,
# and the ladder, which holds at every t, the other rows with the t = 1
# singles.  It makes no use of phi, so it checks the rank-one t-step exactly
# (`lattice`).  The tanh-sinh sweep of `quadrature` computes the same numbers
# independently and serves as the oracle of every closed form here.

# Bits carried beyond the working precision and a value's own cancellation:
# about 10 digits, so the once-rounded value is correctly rounded unless the
# exact one lies within 2^-32 ulp of a rounding boundary.
GUARD_BITS = 32


def _weight_integral(a, b, c):
    """I(a, b, c) as an exact pair (p, q): in z = 1 + x the integrand is a
    polynomial in z times z^-c, and every power integrates to a rational
    except z^-1, which gives ln2."""
    coef = [comb(a, k) * (-1) ** (a - k) for k in range(a + 1)]   # (z-1)^a
    for _ in range(b):                                             # * (2-z)
        coef = [2 * x - y for x, y in zip(coef + [0], [0] + coef)]
    # int_1^2 z^(e-1) dz = (2^e - 1)/e, over one common denominator
    den = lcm(*range(1, max(len(coef) - c, c - 1) + 1)) << max(c - 1, 0)
    num = q = 0
    for k, ck in enumerate(coef):
        e = k - c + 1
        if e == 0:
            q = ck
        elif e > 0:
            num += ck * ((1 << e) - 1) * (den // e)
        else:
            num += ck * ((1 << -e) - 1) * (den // (-e << -e))
    return Fraction(num, den), Fraction(q)


def _f_pairs(count):
    """[F_k]_{k<count} as exact pairs, F_k = (-1)^k (ln2 - sum_{i<=k}
    (-1)^(i+1)/i)."""
    out, h = [], Fraction(0)
    for k in range(count):
        if k:
            h += Fraction((-1) ** (k + 1), k)
        sign = (-1) ** k
        out.append((-sign * h, Fraction(sign)))
    return out


def _bimoment_pairs(K):
    """K x K bimoments m_ij^{0,0} as exact pairs: row 0 out to j = 2K-2 from
    the F_k, the other rows by the ladder."""
    rows = [[(Fraction(1, k * k) - p / k, (1 - q) / k)
             for k, (p, q) in enumerate(_f_pairs(2 * K)) if k]]
    for i in range(K - 1):
        rows.append([(Fraction(1, (i + 1) * (j + 1)) - p, -q)
                     for j, (p, q) in enumerate(rows[-1][1:])])
    return [r[:K] for r in rows]


def _t1_bimoment_triples(K):
    """K x K bimoments m_ij^{0,1} as exact triples (p, q, r), the value
    p + q ln2 + r ln^2 2, from their direct closed form: row 0 out to
    j = 2K-2 from the F_k, the other rows by the ladder with the t = 1
    singles u_i = I(i, 1, 1).  Uses no phi and no t = 0 bimoment."""
    F = _f_pairs(2 * K)
    rows = [[(Fraction(1, (j + 1) ** 2) - F[j + 1][0] / (j + 1),
              (1 - F[j + 1][1]) / (j + 1) - 2 * F[j][0], -2 * F[j][1])
             for j in range(2 * K - 1)]]
    u = [_weight_integral(i, 1, 1) for i in range(2 * K - 2)]
    for a, b in u[:K - 1]:
        rows.append([(a * c - p, a * d + b * c - q, b * d - r)
                     for (c, d), (p, q, r) in zip(u, rows[-1][1:])])
    return [r[:K] for r in rows]


def _pair_terms(pair, prec):
    """The terms c_k ln^k 2 of a pair (p, q) or triple (p, q, r) as mpf
    tuples at prec bits."""
    ln2 = mpf_ln2(prec, round_nearest)
    terms, power = [], None
    for c in pair:
        v = from_rational(c.numerator, c.denominator, prec, round_nearest)
        if terms:
            power = ln2 if power is None else mpf_mul(power, ln2, prec,
                                                      round_nearest)
            v = mpf_mul(v, power, prec, round_nearest)
        terms.append(v)
    return terms


def _add_terms(terms, prec):
    v = terms[0]
    for t in terms[1:]:
        v = mpf_add(v, t, prec, round_nearest)
    return v


def _cancellation_bits(pair):
    """log2(max |term| / |value|) of a pair or triple, read from an
    evaluation whose precision exceeds it by at least 16 bits.  Every value
    rounded here is a positive integral, so the doubling ends."""
    prec = 64
    while True:
        terms = _pair_terms(pair, prec)
        v = _add_terms(terms, prec)
        if v[1]:
            lost = max(t[2] + t[3] for t in terms if t[1]) - (v[2] + v[3])
            if lost < prec - 16:
                return max(lost, 0)
        prec *= 2


def _round_pair(pair, prec, root2=False):
    """The value of a pair or triple, times sqrt2 when root2, evaluated once
    at prec plus its cancellation plus GUARD_BITS and rounded to prec
    bits."""
    wp = prec + _cancellation_bits(pair) + GUARD_BITS
    v = _add_terms(_pair_terms(pair, wp), wp)
    if root2:
        v = mpf_mul(v, mpf_sqrt(from_int(2), wp, round_nearest), wp,
                    round_nearest)
    return mp.mpf(mpf_pos(v, prec, round_nearest))


def _jacobi_pairs(K, tmax):
    """Exact pairs of the (0, 0) table: K x K bimoments, singles per t for
    t <= tmax+1 and phi/sqrt2 per t for t <= tmax, K of each."""
    return (_bimoment_pairs(K),
            {t: [_weight_integral(i, t, t) for i in range(K)]
             for t in range(tmax + 2)},
            {t: [_weight_integral(i, t, t + 1) for i in range(K)]
             for t in range(tmax + 1)})


def build_jacobi(K, policy, tmax=3):
    """Float moment table of the true weight at (s0, t0) = (0, 0): singles
    out to t = tmax+1 and phi out to t = tmax beside the bimoments, every
    entry its exact pair correctly rounded to the working precision.  Runs
    no quadrature."""
    bm, sg, ph = _jacobi_pairs(K, tmax)
    with mp.workdps(policy.working_dps):
        prec = mp.mp.prec
        bm = [[_round_pair(x, prec) for x in row] for row in bm]
        sg = {t: [_round_pair(x, prec) for x in v] for t, v in sg.items()}
        ph = {t: [_round_pair(x, prec, root2=True) for x in v]
              for t, v in ph.items()}
    return MomentTable("jacobi-float", 0, 0, K, policy.precision_digits,
                       bm, sg, ph)
