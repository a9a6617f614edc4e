"""Tau-function lattice assembly, quartic corner solving, and t-propagation.

The lattice stores the determinant families eagerly on the (n, s, t) grid
for export.  The quartic lattice equation (identities.DCKP_SITES and
_dckp_parts, the catalog's dckp), read as a quadratic in its corner
tau_{n+1}^{s,t+1}, powers an initial-value propagation that rebuilds a
t-slice from the previous slice plus an n <= 1 boundary staircase; of the
two roots it keeps the one nearer the determinant oracle, and halts on an
exact tie.  The quartic is homogeneous of degree four in its taus, so an
exact corner is solved on the integer numerators of the seven known taus
over one common denominator, with no Fraction arithmetic until the two
roots.
"""

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp

from .numerics import (ConfigError, DegeneracyError, TolerancePolicy,
                       _integers, csv_text, fmt_scalar, relative_residual)
from .identities import DCKP_SITES, _dckp_parts
from . import moments, detkit, lax

# sigma_row is an internal evaluator for the identity battery, not lattice data
LATTICE_FAMILIES = tuple(f for f in detkit.FAMILIES if f != "sigma_row")

# the quartic's read that propagation fills: tau_{n+1}^{s,t+1}
_CORNER = (1, 0, 1)


@dataclass
class TauLattice:
    """Family values on the grid; `ctx.base` gives mode and precision."""
    Nmax: int
    Smax: int
    Tmax: int
    ctx: object
    values: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    families: tuple = LATTICE_FAMILIES

    def sites(self):
        return sorted(self.values.keys())

    def to_json_dict(self):
        digits = self.ctx.base.precision_digits
        return {
            "meta": {"mode": self.ctx.base.mode,
                     "ranges": {"Nmax": self.Nmax, "Smax": self.Smax,
                                "Tmax": self.Tmax},
                     "precision": digits,
                     "families": list(self.families)},
            "sites": [{"family": f, "n": n, "s": s, "t": t,
                       "value": fmt_scalar(self.values[(f, n, s, t)], digits),
                       "provenance": self.provenance[(f, n, s, t)]}
                      for (f, n, s, t) in self.sites()],
        }

    def csv_text(self):
        digits = self.ctx.base.precision_digits
        return csv_text(["family", "n", "s", "t", "value", "provenance"],
                        [[f, n, s, t,
                          fmt_scalar(self.values[(f, n, s, t)], digits),
                          self.provenance[(f, n, s, t)]]
                         for (f, n, s, t) in self.sites()])


# ---- Build ----

def _check_t_evolution(ctx):
    """The rank-one t-step of a jacobi table against the direct closed form
    of m^{0,1} (`moments._t1_bimoment_triples`) at every entry.

    Exactly first: m^{0,0}_ij - 2 phi'_i phi'_j, with phi' = phi/sqrt2 =
    I(i, 0, 1), must equal the direct triple in Q + Q ln2 + Q ln^2 2.  Then
    every float entry of the evolved table must lie within the table's
    rel_tol of its direct value rounded once.  Runs no quadrature.
    """
    K = ctx.base.K
    direct = moments._t1_bimoment_triples(K)
    phi = [moments._weight_integral(i, 0, 1) for i in range(K)]
    for i, row in enumerate(moments._bimoment_pairs(K)):
        a, b = phi[i]
        for j, (p, q) in enumerate(row):
            c, d = phi[j]
            rank_one = (p - 2 * a * c, q - 2 * (a * d + b * c), -2 * b * d)
            if rank_one != direct[i][j]:
                raise ArithmeticError(
                    "t-evolution check failed at entry (%d,%d): the exact "
                    "rank-one update differs from the direct t = 1 closed "
                    "form" % (i, j))
    tb1 = ctx._table(ctx.base.t0 + 1)
    tol = ctx.base.policy.rel_tol()
    with ctx.wp():
        prec = mp.mp.prec
        for i in range(K):
            for j in range(K):
                d = moments._round_pair(direct[i][j], prec)
                rel = relative_residual(tb1.m(i, j) - d, abs(d))
                if rel >= tol:
                    raise ArithmeticError(
                        "t-evolution check failed at entry (%d,%d): the float "
                        "rank-one update is off the direct t = 1 closed form "
                        "(rel %s)" % (i, j, mp.nstr(rel, 8)))


def _family_available(table, family, t):
    """Whether the t-evolved tables of `table` carry the border of `family`
    at t."""
    border = detkit.FAMILY_SPECS[family].border
    return border is None or t in (table.phi_by_t if border == "phi"
                                   else table.single_by_t)


def build_lattice(mode, Nmax, Smax, Tmax, config=None):
    """Materialize the determinant families on the grid from a fresh table.

    The config dict may set "precision", "guard" and "seed"; any other key is
    a ConfigError.  The base table extent K = Nmax + Smax + 3 covers every
    column shift.  A jacobi build checks the rank-one t-evolution against
    the direct closed form of the t = 1 table at every entry, exactly and
    then on the float table (`_check_t_evolution`); it runs no quadrature.
    A float pivot that fails its check raises DegeneracyError (see detkit),
    so every float tau and xi of the lattice is positive.
    """
    cfg = config or {}
    unknown = sorted(set(cfg) - {"precision", "guard", "seed"})
    if unknown:
        raise ConfigError("unknown lattice config keys: %s" % unknown)
    policy = TolerancePolicy(cfg.get("precision", 120), cfg.get("guard"))
    table = moments.build_base_table(mode, 0, 0, Nmax + Smax + 3,
                                     policy=policy, seed=cfg.get("seed", 0),
                                     tmax=Tmax)
    families = tuple(f for f in LATTICE_FAMILIES
                     if _family_available(table, f, table.t0))
    sites = [(f, n, s, t) for f in families for t in range(Tmax + 1)
             if _family_available(table, f, t)
             for n in range(Nmax + 1) for s in range(Smax + 1)]
    ctx = detkit.DetContext(table, _orders_read(table, sites, Nmax, Smax, Tmax))
    if not table.exact and Tmax >= 1:
        _check_t_evolution(ctx)
    lat = TauLattice(Nmax, Smax, Tmax, ctx, families=families)
    for site in sites:
        lat.values[site] = detkit.eval_det(ctx, *site)
        lat.provenance[site] = "determinant"
    return lat


def _orders_read(table, sites, Nmax, Smax, Tmax):
    """The orders a lattice context on `table` declares: its own `sites`;
    Lax at K = Nmax at s <= Smax, t < Tmax, with the six equations at
    n < Nmax at (0, 0) (lax.family_reads); and tau alone on the propagation
    staircase, to Nmax + Smax + 1 - s at s <= Smax + Nmax, where `propagate`
    reads the corner oracle tau_{n+1}^{s,t+1} at s <= Smax + Nmax - n and
    the quartic's tau_1^{s+1,t} up to s + 1 = Smax + Nmax."""
    reads = sites + lax.family_reads(Nmax, Smax, Tmax - 1, table.single_by_t)
    reads += [("tau", min(Nmax, Nmax + Smax + 1 - s), s, t)
              for s in range(Smax + Nmax + 1) for t in range(Tmax + 1)]
    return detkit.orders_of(reads)


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


def _corner_roots(a, b, c, d, e, f, h, sqrt, over):
    """Roots of 4 A (P - Q X) = (R - S X)^2 in X = tau_{n+1}^{s,t+1}, from
    the quartic's seven other taus, with sqrt the discriminant's square root
    and over(num, den) the division of the mode.  A, P and R are the
    quartic's A_t, A_{t+1} and B at X = 0; X enters A_{t+1} with slope -Q
    and B with slope -S."""
    A, P, R = _dckp_parts(a, b, c, d, e, f, 0, h)
    Q, S = h, d
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


def solve_dckp_corner(taus):
    """Two roots of the quartic lattice equation read as a quadratic in its
    corner tau_{n+1}^{s,t+1}.

    `taus` holds the quartic's eight taus in the order of
    `identities.DCKP_SITES`; the corner's own slot is not read.  A vanishing
    quadratic coefficient degrades to the linear case (returned as a double
    entry); a fully degenerate equation is an error.

    Exact taus are solved in integers.  Every term of the quartic is a
    product of four taus, so with the seven known values written as integers
    over their least common denominator D the corner is X' / D, X' the root
    of the same quadratic over the integers: one isqrt tests the
    discriminant, and each root is one Fraction.  Float taus are solved at
    the caller's working precision (`propagate` runs under ctx.wp()).
    """
    a, b, c, d, e, f, _, h = taus
    known = (a, b, c, d, e, f, h)
    if isinstance(a, (Fraction, int)):
        nums, D = _integers(known)
        return _corner_roots(*nums, _integer_sqrt,
                             lambda num, den: Fraction(num, den * D))
    return _corner_roots(*known, _float_sqrt, operator.truediv)


# ---- Propagation ----

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
    out = TauLattice(lat.Nmax, lat.Smax, lat.Tmax, ctx, dict(lat.values),
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
                taus = [None if site == _CORNER
                        else val(n + site[0], s + site[1], t + site[2])
                        for site in DCKP_SITES]
                with ctx.wp():
                    r1, r2 = solve_dckp_corner(taus)
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
            rel = relative_residual(diff, abs(oracle))
            count += 1
            if worst_abs is None or diff > worst_abs:
                worst_abs = diff
            if worst_rel is None or rel > worst_rel:
                worst_rel = rel
    return {"sites": count, "max_abs": worst_abs, "max_rel": worst_rel}
