"""Moment tables: bimoments m_ij, single moments u_i, linear-functional values
phi_i, with the two lattice evolutions.

Shift in s reindexes (drop row/column 0); shift in t is the rank-one update
m'_ij = m_ij - phi_i phi_j.  Three modes:

  jacobi-float          float entries from quadrature of the true weight
  synthetic-generic     exact random symmetric bimoments, free phi, no singles
  synthetic-structured  exact random singles with bimoments filled so that
                        m_{i+1,j} + m_{i,j+1} = u_i u_j on every antidiagonal

Singles and phi vectors are both stored per absolute t (`single_by_t`,
`phi_by_t`): a t-step keeps the entries above the new t, a shift in s drops
index 0 of each.  No t-update law exists for either.  A jacobi table gets
singles for t0..t0+tmax+1 and phi for t0..t0+tmax from one quadrature sweep,
so evolve_t runs no quadrature.  Synthetic tables treat phi as free data;
structured ones carry singles at the base t only, generic ones none.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp

from .numerics import (WORKING_MARGIN, ExtentError, ConfigError,
                       fmt_scalar, parse_scalar, relative_residual)
from . import quadrature as quad

MODES = ("jacobi-float", "synthetic-generic", "synthetic-structured")


# ---- Weight ----

def weight(x, s, t):
    """x^s ((1-x)/(1+x))^t on 0 < x < 1; exact for Fraction input."""
    if not 0 < x < 1:
        raise ValueError("weight argument must lie in (0,1)")
    return x ** s * ((1 - x) / (1 + x)) ** t


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

    def has_phi(self):
        return self.t0 in self.phi_by_t

    def has_single(self):
        return self.single is not None

    # ---- Evolutions ----

    def shift_s(self):
        """Table at (s0+1, t0): every index advances by one, extent shrinks."""
        K2 = self.K - 1
        if K2 < 1:
            raise ExtentError("cannot shift s: table exhausted")
        bm = [[self.bimoments[i + 1][j + 1] for j in range(K2)] for i in range(K2)]
        sg = {t: v[1:] for t, v in self.single_by_t.items()}
        ph = {t: v[1:] for t, v in self.phi_by_t.items()}
        return MomentTable(self.mode, self.s0 + 1, self.t0, K2,
                           self.precision_digits, bm, sg, ph)

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

    # ---- Serialization ----

    def to_dict(self):
        return {
            "mode": self.mode,
            "s0": self.s0,
            "t0": self.t0,
            "K": self.K,
            "precision_digits": self.precision_digits,
            "bimoments": [[fmt_scalar(v, self.precision_digits) for v in row]
                          for row in self.bimoments],
            "single": {str(t): [fmt_scalar(v, self.precision_digits) for v in vec]
                       for t, vec in sorted(self.single_by_t.items())},
            "phi": {str(t): [fmt_scalar(v, self.precision_digits) for v in vec]
                    for t, vec in sorted(self.phi_by_t.items())},
        }

    @classmethod
    def from_dict(cls, d):
        prec = d["precision_digits"]
        exact = prec is None

        def rd(s):
            return parse_scalar(s, exact, prec)

        bm = [[rd(v) for v in row] for row in d["bimoments"]]
        sg = {int(t): [rd(v) for v in vec] for t, vec in d.get("single", {}).items()}
        ph = {int(t): [rd(v) for v in vec] for t, vec in d.get("phi", {}).items()}
        return cls(d["mode"], d["s0"], d["t0"], d["K"], prec, bm, sg, ph)


# ---- Builders ----

def build_base_table(mode, s0, t0, K, policy=None, seed=0, tmax=3):
    """The one mode dispatcher.  Jacobi tables need the policy and are
    self-checked; synthetic ones ignore the policy and draw from seed."""
    if K < 1:
        raise ConfigError("table extent must be positive")
    if mode == "jacobi-float":
        if policy is None:
            raise ConfigError("jacobi-float mode needs a TolerancePolicy")
        return build_jacobi(K, policy, s0=s0, t0=t0, tmax=tmax)
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


# ---- Jacobi builder (quadrature) ----

def build_jacobi(K, policy, s0=0, t0=0, tmax=3):
    """Float moment table of the true weight at (s0, t0).  One sweep gives
    singles out to t0+tmax+1 and phi out to t0+tmax, a second the bimoments,
    with the ladder's mu from the first.

    Hard errors at rel_tol: the asymmetry |m_ij - m_ji|, a free estimate of
    the quadrature error taken before symmetrising, and the antidiagonal
    identity m_{i+1,j} + m_{i,j+1} = u_i u_j across the table.  The bimoment
    sweep meets that identity with its own outer singles in place of u_j
    (see `quadrature`), so the second gate compares them with this sweep's.
    """
    tol = policy.rel_tol()
    ts = range(t0, t0 + tmax + 2)
    with mp.workdps(policy.working_dps):
        sg, ph = quad.weight_moments(s0 + K, 0, ts, ts[:-1], policy)
        bm = quad.bimoment_table(K, s0, t0, policy, mu=sg[t0])
        asym = max((relative_residual(bm[i][j] - bm[j][i], [bm[i][j], bm[j][i]])
                    for i in range(K) for j in range(i)), default=0)
        if asym >= tol:
            raise ArithmeticError("bimoment asymmetry %s reaches rel_tol: "
                                  "quadrature error too large" % mp.nstr(asym, 8))
        for i in range(K):
            for j in range(i):
                v = (bm[i][j] + bm[j][i]) / 2
                bm[i][j] = bm[j][i] = v
        sg = {t: v[s0:] for t, v in sg.items()}
        ph = {t: v[s0:] for t, v in ph.items()}
        u = sg[t0]
        for i in range(K - 1):
            for j in range(K - 1):
                r = relative_residual(bm[i + 1][j] + bm[i][j + 1] - u[i] * u[j],
                                      [u[i] * u[j]])
                if r >= tol:
                    raise ArithmeticError(
                        "antidiagonal self-check failed at (%d,%d): %s" % (i, j, r))
    return MomentTable("jacobi-float", s0, t0, K, policy.precision_digits,
                       bm, sg, ph)
