"""Tau-function lattice assembly, quartic corner solving, and t-propagation.

The lattice stores the determinant families eagerly on the (n, s, t) grid so
identity stencils are O(1) lookups.  The quartic lattice equation, read as a
quadratic in one t-advanced corner, powers an initial-value propagation that
rebuilds a t-slice from the previous slice plus an n <= 1 boundary staircase;
of the two roots it keeps the one nearer the determinant oracle, and halts on
an exact tie.  The quartic is homogeneous of degree four in the stencil, so
an exact corner is solved on the integer numerators of its stencil over one
common denominator, with no Fraction arithmetic until the two roots.
"""

import math
import operator
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp

from .numerics import (ConfigError, DegeneracyError, TolerancePolicy,
                       _integers, csv_text, fmt_scalar, relative_residual)
from . import moments, quadrature, detkit

# sigma_row is an internal evaluator for the identity battery, not lattice data
LATTICE_FAMILIES = tuple(f for f in detkit.FAMILIES if f != "sigma_row")

STENCIL_SITES = ("n-1,s+1,t", "n,s,t", "n,s+1,t", "n+1,s,t",
                 "n-1,s+1,t+1", "n,s,t+1", "n,s+1,t+1", "n+1,s,t+1")

UNKNOWN_CORNERS = ("n-1,s+1,t+1", "n+1,s,t+1")


@dataclass
class TauLattice:
    mode: str
    Nmax: int
    Smax: int
    Tmax: int
    ctx: object
    precision_digits: object
    values: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    families: tuple = LATTICE_FAMILIES

    def get(self, family, n, s, t):
        return self.values[(family, n, s, t)]

    def sites(self):
        return sorted(self.values.keys())

    def to_json_dict(self):
        return {
            "meta": {"mode": self.mode,
                     "ranges": {"Nmax": self.Nmax, "Smax": self.Smax,
                                "Tmax": self.Tmax},
                     "precision": self.precision_digits,
                     "families": list(self.families)},
            "sites": [{"family": f, "n": n, "s": s, "t": t,
                       "value": fmt_scalar(self.values[(f, n, s, t)],
                                           self.precision_digits),
                       "provenance": self.provenance[(f, n, s, t)]}
                      for (f, n, s, t) in self.sites()],
        }

    def csv_text(self):
        return csv_text(["family", "n", "s", "t", "value", "provenance"],
                        [[f, n, s, t,
                          fmt_scalar(self.values[(f, n, s, t)],
                                     self.precision_digits),
                          self.provenance[(f, n, s, t)]]
                         for (f, n, s, t) in self.sites()])


# ---- Build ----

def _cross_validate_t_evolution(ctx, policy):
    """Rank-one t-evolved bimoments vs direct quadrature at 3 spot entries,
    all three from one sweep."""
    base = ctx.base
    tb1 = ctx._table(base.t0 + 1)
    spots = ((0, 0), (1, 1), (0, 2))
    with mp.workdps(policy.working_dps):
        direct = quadrature.bimoments(spots, base.s0, base.t0 + 1, policy)
        for (i, j), d in zip(spots, direct):
            rel = relative_residual(abs(tb1.m(i, j) - d), [abs(d)])
            if rel >= policy.rel_tol():
                raise ArithmeticError(
                    "t-evolution cross-validation failed at entry (%d,%d): "
                    "rank-one update and direct quadrature disagree (rel %s)"
                    % (i, j, mp.nstr(rel, 8)))


def _family_available(ctx, family, t):
    border = detkit.FAMILY_SPECS[family].border
    return border is None or (ctx.has_phi(t) if border == "phi"
                              else ctx.has_single(t))


def build_lattice(mode, Nmax, Smax, Tmax, config=None):
    """Materialize the determinant families on the grid from a fresh table.

    The config dict may set "precision", "guard" and "seed"; any other key is
    a ConfigError.  The base table extent K = Nmax + Smax + 3 covers every
    column shift.  Jacobi tables are cross-validated: the rank-one
    t-evolution is compared with direct quadrature at spot entries.  A float
    pivot that fails its check raises DegeneracyError (see detkit), so every
    float tau and xi of the lattice is positive.
    """
    cfg = config or {}
    unknown = sorted(set(cfg) - {"precision", "guard", "seed"})
    if unknown:
        raise ConfigError("unknown lattice config keys: %s" % unknown)
    policy = TolerancePolicy(cfg.get("precision", 120), cfg.get("guard"))
    table = moments.build_base_table(mode, 0, 0, Nmax + Smax + 3,
                                     policy=policy, seed=cfg.get("seed", 0),
                                     tmax=Tmax)
    prec = table.precision_digits
    # the lattice reads orders up to Nmax; lax on lat.ctx at K = Nmax one more
    ctx = detkit.DetContext(table, Nmax + 1)
    if not table.exact and Tmax >= 1:
        _cross_validate_t_evolution(ctx, policy)
    lat = TauLattice(mode, Nmax, Smax, Tmax, ctx, prec)
    lat.families = tuple(f for f in LATTICE_FAMILIES
                         if _family_available(ctx, f, table.t0))
    for f in lat.families:
        for t in range(Tmax + 1):
            if not _family_available(ctx, f, t):
                continue
            for n in range(Nmax + 1):
                for s in range(Smax + 1):
                    lat.values[(f, n, s, t)] = detkit.eval_det(ctx, f, n, s, t)
                    lat.provenance[(f, n, s, t)] = "determinant"
    return lat


# ---- Quartic corner solve ----

def _integer_sqrt(q):
    if q < 0:
        raise DegeneracyError("negative discriminant in exact corner solve")
    root = math.isqrt(q)
    if root * root != q:
        raise DegeneracyError("discriminant is not a perfect rational square; "
                              "stencil does not lie on an exact lattice")
    return root


def _float_sqrt(q):
    if q < 0:
        raise DegeneracyError("negative discriminant in float corner "
                              "solve: %s" % mp.nstr(q, 8))
    return mp.sqrt(q)


def _corner_roots(g, which_unknown, sqrt, over):
    """Roots of 4 A (P - Q X) = (R - S X)^2 in the unknown corner X, with
    g(site) the stencil, sqrt the discriminant's square root and over(num,
    den) the division of the mode."""
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
        x = over(-a0, a1)
        return (x, x)
    root = sqrt(A * (A * Q * Q - R * S * Q + P * S * S))
    mid = 2 * A * Q - R * S
    return (over(-mid + 2 * root, a2), over(-mid - 2 * root, a2))


def solve_dckp_corner(stencil, which_unknown, dps=None):
    """Two roots of the quartic lattice equation read as a quadratic in one
    t-advanced corner.

    `stencil` maps the other seven relative sites to values; the unknown is
    one of the two admissible corners of the t+1 layer.  A vanishing quadratic
    coefficient degrades to the linear case (returned as a double entry); a
    fully degenerate equation is an error.

    Exact stencils are solved in integers.  Every term of the quartic is a
    product of four stencil values, so with the seven values written as
    integers over their least common denominator D the unknown is X' / D,
    X' the root of the same quadratic over the integers: one isqrt tests the
    discriminant, and each root is one Fraction.  Float stencils are solved
    at `dps` digits when given.
    """
    if which_unknown not in UNKNOWN_CORNERS:
        raise ConfigError("unknown corner id %r; expected one of %r"
                          % (which_unknown, UNKNOWN_CORNERS))
    known = [k for k in STENCIL_SITES if k != which_unknown]
    missing = [k for k in known if k not in stencil]
    if missing:
        raise ConfigError("stencil missing sites: %r" % (missing,))
    if isinstance(stencil["n,s,t"], (Fraction, int)):
        nums, D = _integers([stencil[k] for k in known])
        return _corner_roots(dict(zip(known, nums)).__getitem__, which_unknown,
                             _integer_sqrt,
                             lambda num, den: Fraction(num, den * D))
    with mp.workdps(dps) if dps is not None else nullcontext():
        return _corner_roots(stencil.__getitem__, which_unknown, _float_sqrt,
                             operator.truediv)


# ---- Propagation ----

def _stencil_from(getter, n, s, t, skip=None):
    rel = {"n-1,s+1,t": (n - 1, s + 1, t), "n,s,t": (n, s, t),
           "n,s+1,t": (n, s + 1, t), "n+1,s,t": (n + 1, s, t),
           "n-1,s+1,t+1": (n - 1, s + 1, t + 1), "n,s,t+1": (n, s, t + 1),
           "n,s+1,t+1": (n, s + 1, t + 1), "n+1,s,t+1": (n + 1, s, t + 1)}
    return {k: getter(*site) for k, site in rel.items() if k != skip}


def propagate(lat, from_t, to_t):
    """Rebuild tau slices (from_t, to_t] from the quartic corner equation.

    Each slice t+1 is filled in increasing n from the previous slice plus
    boundary data: the n=0 row (identically 1) and the n=1 determinant row
    over the staircase range s0 <= s <= Smax + Nmax - n.  The filled corner
    is tau_{n+1}^{s,t+1}; of its two roots the one nearer the determinant
    oracle is kept, and an exact tie halts propagation.
    """
    if not (lat.ctx.base.t0 <= from_t < to_t <= lat.Tmax):
        raise ConfigError("propagation range (%d, %d] outside lattice t-range"
                          % (from_t, to_t))
    ctx = lat.ctx
    out = TauLattice(lat.mode, lat.Nmax, lat.Smax, lat.Tmax, ctx,
                     lat.precision_digits, dict(lat.values),
                     dict(lat.provenance), lat.families)
    S1 = lat.Smax + lat.Nmax - 1
    work = {}

    def val(n, s, t):
        if n <= 0:
            return ctx.tau(n, s, t)
        if (n, s, t) in work:
            return work[(n, s, t)]
        key = ("tau", n, s, t)
        if key in out.values:
            return out.values[key]
        return ctx.tau(n, s, t)

    for t in range(from_t, to_t):
        # boundary staircase at t+1: the n=0 row is 1 by convention (val
        # handles it); the n=1 row comes from the determinant oracle
        for s in range(ctx.s0, S1 + 1):
            work[(1, s, t + 1)] = ctx.tau(1, s, t + 1)
        for n in range(1, lat.Nmax):
            for s in range(ctx.s0, S1 - (n - 1) + 1):
                stn = _stencil_from(val, n, s, t, skip="n+1,s,t+1")
                dps = None if ctx.exact else ctx.dps
                r1, r2 = solve_dckp_corner(stn, "n+1,s,t+1", dps=dps)
                ref = ctx.tau(n + 1, s, t + 1)
                d1, d2 = abs(r1 - ref), abs(r2 - ref)
                if r1 != r2 and d1 == d2:
                    raise DegeneracyError(
                        "branch ambiguity at tau_%d^{%d,%d}: roots equidistant "
                        "from the determinant oracle" % (n + 1, s, t + 1))
                work[(n + 1, s, t + 1)] = r1 if d1 <= d2 else r2
        for (n, s, tt) in list(work.keys()):
            if tt != t + 1 or n < 2 or s > lat.Smax or n > lat.Nmax:
                continue
            out.values[("tau", n, s, tt)] = work[(n, s, tt)]
            out.provenance[("tau", n, s, tt)] = "propagated"
    return out


def propagation_report(lat, base):
    """Max deviation of propagated tau values from their determinant oracle."""
    worst_abs = None
    worst_rel = None
    count = 0
    with base.ctx.wp():
        for key, prov in lat.provenance.items():
            if prov != "propagated":
                continue
            f, n, s, t = key
            oracle = base.ctx.tau(n, s, t)
            diff = abs(lat.values[key] - oracle)
            rel = relative_residual(diff, [abs(oracle)])
            count += 1
            if worst_abs is None or diff > worst_abs:
                worst_abs = diff
            if worst_rel is None or rel > worst_rel:
                worst_rel = rel
    return {"sites": count, "max_abs": worst_abs, "max_rel": worst_rel}
