"""Residual verification of the recurrence, spectral transformations, bilinear
and trilinear determinant identities, and the quartic lattice equation.

Every catalog identity is evaluated from independently computed determinants.
Where the printed form of a relation failed empirical adjudication (exact
arithmetic on synthetic data), the catalog carries both the printed and the
confirmed variant: `pass` gates on the confirmed form, and variant_report
emits the per-variant residuals with the chosen form recorded.

IDENTITY_SPECS is the catalog: each id's kind, lowest n and gating rule and,
for 22 of the 25 ids, the stencil as signed products of family reads,
evaluated by one function (a variant id also has its printed one).  In the
17 bilinear and trilinear stencils every read is a scalar.  In the five
linear ones (prop2.5, prop2.6, spec1, dt1 and trans2) each product ends in a
P, Q or R cofactor vector, possibly times x, and the signed product of its
scalar reads is the vector's coefficient.  So a stencil's reads are static.
The other three kinds (4trr, propr, dckp) carry the reads their evaluation
makes as a stencil.  4trr's terms and reads come from RECURRENCE, the
four-term recurrence as a subdiagonal coefficient and bands, stencils: the
table lax builds L from.  dckp's come from DCKP_SITES, and propr reads R.
`orders_read` expands every stencil into family reads
(detkit.stencil_reads), so it bounds a verify context's sweeps at each
site by the reads of its ids there.
At n = 0 the records of 3.2b, 3.3b, 3.4a, 3.4b, e1-e4, eq1, fn-b,
tau-hat-rel and tri2 read no order >= 1 value outside a product that also
holds an edge zero (tau_{-1} = xi_{-1} = sigma_{-1} = psi_{-1} = 0): they
check only the edge conventions and pass on any data, as eq1 there reads
tau_0 tau_0 = xi_0 xi_0 = 1.  So does dckp, the quartic 4 * 1 * 1 = 2^2 at
n = 0.  From n = 1 on, a +1 bump of any order >= 1 value a record reads
fails it, with one exception: 4trr does not depend on tau_{n-2}.  It reads
tau_{n-2} only in its term a_n c_{n-1} P_{n-2}, where c_{n-1} =
tau_{n-2} tau_n / tau_{n-1}^2 and P_{n-2} is normalized by tau_{n-2}, so it
cancels.  On jacobi data at the default precision a 1 + 10^-5 scaling of
such a value fails its record likewise, with the same exception.

Record semantics: exact mode passes iff residual_abs == 0; float mode iff
residual_rel < rel_tol, with residual_rel = residual_abs / max(1, the
largest |product| of any part) (numerics.relative_residual) and rel_tol
that of the TolerancePolicy the table was built at (its `policy`), so no
check takes a policy of its own.
Every evaluator only builds its residual's parts, each a list of signed
products that must sum to zero: a scalar stencil and the quartic one part,
a linear stencil and 4trr one per coefficient, propr one per column.  A
stencil's products are read by DetContext.factors, which reads every
stencil, the coefficients' and lax's too.  One reducer, `_residual`, which
also reduces lax's six equations, turns them into (residual_abs,
residual_rel): the largest |sum| of a part, and that over the largest
|product|, both under the evaluator's working precision.  An exact
residual is first zero-tested on those same products, in integer
arithmetic over one unreduced common denominator (`_vanishes`); only a
nonzero one is summed.
A P, Q or R read is the memo's pair (numerators, denominator), and the
quartic reads its taus as integers over their common denominator D: those
parts carry integer coefficients, with no Fraction per coefficient, and
the reducer divides the sums and products by the denominator (D^4 for the
quartic).
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .numerics import (DegeneracyError, ExtentError, _integers, fmt_scalar,
                       relative_residual)
from .detkit import FAMILY_SPECS, _product, orders_of, stencil, stencil_reads
from .polyfam import poly

# the cofactor-vector families P, Q and R: a stencil product ending in one of
# them is a vector
_VECTORS = frozenset(f for f, spec in FAMILY_SPECS.items()
                     if spec.lead is not None)

# ---- Catalog ----

@dataclass(frozen=True)
class Identity:
    """One catalog id: how it is evaluated and where it gates."""
    kind: str                   # "stencil", "propr", "4trr" or "dckp"
    n_min: int = 0              # lowest n evaluated
    generic: bool = False       # gates on synthetic-generic data (the ids
                                # derived through orthogonality do not)
    single: bool = False        # needs singles: on structured data it gates
                                # only at the base t
    stencil: tuple = ()         # signed products (sign, reads), each read
                                # (family, dn, ds, dt): see detkit.stencil
    printed: tuple = None       # the printed stencil of a variant id
    reads: tuple = ()           # a kind without a stencil: the reads its
                                # evaluation makes, as a stencil


def _by_stencil(text, printed=None, generic=False, n_min=0):
    return Identity("stencil", n_min=n_min, generic=generic,
                    stencil=stencil(text), printed=printed and stencil(printed))


# the four-term recurrence x (P_n + a_n P_{n-1}) = sum over the bands o of
# band_o(n) P_{n+o}, as its subdiagonal coefficient and its bands, stencils
# (Bertola, Gekhtman & Szmigielski, J. Approx. Theory 162, 2010): lax's L
RECURRENCE = ("a", {1: "+ 1", 0: "+ a - b", -1: "+ a b[n-1] - c",
                    -2: "- a c[n-1]"})

# the quartic's eight tau reads (dn, ds, dt), in _dckp_parts' argument order:
# tau_n^{s+1}, tau_n, tau_{n+1}, tau_{n-1}^{s+1} at t and then at t+1
DCKP_SITES = ((0, 1, 0), (0, 0, 0), (1, 0, 0), (-1, 1, 0),
              (0, 1, 1), (0, 0, 1), (1, 0, 1), (-1, 1, 1))


def _4trr_reads():
    """4trr's reads: its coefficients, then tau_k and P_k (the monic P_k is
    Praw_k / tau_k) for each order k = n + o it combines."""
    sub, bands = RECURRENCE
    pairs = ["tau[n%+d] P[n%+d]" % (o, o) for o in sorted({0, -1, *bands})]
    return (stencil("+ " + sub) + sum(map(stencil, bands.values()), ())
            + stencil("+ " + " ".join(pairs)))


_E1 = "+ tau[n+1] tau[n-1,s+1] - tau tau[s+1] + xi xi"
_FN_A = "+ sigma[s+1] tau[n+1] - sigma[n+1] tau[s+1] - xi[n+1] psi"
_FN_B = "+ sigma tau[s+1] - sigma[n-1,s+1] tau[n+1] - xi psi"

IDENTITY_SPECS = {
    "4trr": Identity("4trr", n_min=1, single=True, reads=_4trr_reads()),
    "prop2.5": _by_stencil("+ tau[n+1] x P[s+1] - tau[s+1] P[n+1] - xi[n+1] Q"),
    "prop2.6": _by_stencil("+ tau[n-1,s+1] Q - xi x P[n-1,s+1] + tau[s+1] Q[n-1]",
                           n_min=1),
    "spec1": _by_stencil("+ xi tau[n+1] x P[s+1] + xi[n+1] tau[n+1] x P[n-1,s+1]"
                         " - xi tau[s+1] P[n+1] - xi[n+1] tau[s+1] P"),
    "dt1": _by_stencil("+ sigma[n-1] P[t+1] - tau[t+1] R - sigma P[n-1,t+1]",
                       n_min=1),
    "trans2": _by_stencil("+ sigma[n-1] tau P[t+1] - sigma tau P[n-1,t+1]"
                          " - sigma[n-1] tau[t+1] P + sigma tau[t+1] P[n-1]",
                          n_min=1),
    "propr": Identity("propr", n_min=1, reads=stencil("+ R")),
    "eq1": _by_stencil(_E1),
    "3.2a": _by_stencil("+ tau[t+1] tau[n+1] - tau[n+1,t+1] tau - sigma sigma",
                        "+ tau[n+1,t+1] tau - tau[t+1] tau[n+1] - sigma sigma"),
    "3.2b": _by_stencil("+ tau tau[s+1,t+1] - tau[n+1] tau[n-1,s+1,t+1]"
                        " - xi[t+1] xi + sigma[n-1,s+1] sigma"),
    "3.3a": _by_stencil(_FN_A, "+ sigma[n+1] xi + xi[n+1] sigma - tau[n+1] psi"),
    "3.3b": _by_stencil(_FN_B, "+ sigma[s+1] xi + sigma[n-1,s+1] xi[n+1]"
                               " - tau[s+1] psi"),
    "3.4a": _by_stencil("+ tau[t+1] xi - tau xi[t+1] - sigma psi[n-1]",
                        "+ tau[t+1] xi - tau xi[t+1] + sigma psi[n-1]"),
    "3.4b": _by_stencil("+ tau xi[n-1,t+1] - tau[t+1] xi[n-1] - sigma[n-1] psi[n-1]",
                        "+ tau xi[n-1,t+1] - tau[t+1] xi[n-1] + sigma[n-1] psi[n-1]"),
    "tri1": _by_stencil("+ sigma[s+1] xi tau[n+1] + xi[n+1] sigma[n-1,s+1] tau[n+1]"
                        " - sigma[n+1] tau[s+1] xi - xi[n+1] sigma tau[s+1]"),
    "tri2": _by_stencil("+ tau sigma[n-1] xi[t+1] + sigma xi[n-1,t+1] tau"
                        " - xi tau[t+1] sigma[n-1] - sigma xi[n-1] tau[t+1]"),
    "fn-a": _by_stencil(_FN_A),
    "fn-b": _by_stencil(_FN_B),
    "xi-psi-sq": _by_stencil("+ xi[n+1,t+1] xi - xi[t+1] xi[n+1] + psi sigma_row",
                             "+ xi[n+1,t+1] xi - xi[t+1] xi[n+1] - psi psi"),
    "tau-hat-rel": _by_stencil("+ xi[n+1] xi[n-1,s+1] - xi xi[s+1] + tau[s+1] tau_hat",
                               "+ xi[n+1] xi[n-1,s+1] - xi xi[s+1] - tau[s+1] tau_hat"),
    "e1": _by_stencil(_E1, generic=True),
    "e2": _by_stencil("+ tau[t+1] tau[n-1] - tau tau[n-1,t+1] + sigma[n-1] sigma[n-1]",
                      generic=True),
    "e3": _by_stencil("+ tau[t+1] tau[n-1,s+1] - tau tau[n-1,s+1,t+1]"
                      " + psi[n-1] psi[n-1]", generic=True),
    "e4": _by_stencil("+ tau[t+1] xi[n-1] - tau xi[n-1,t+1] + psi[n-1] sigma[n-1]",
                      generic=True),
    "dckp": Identity("dckp", generic=True, reads=stencil("+ " + " ".join(
        "tau[n%+d,s%+d,t%+d]" % site for site in DCKP_SITES))),
}

CATALOG_IDS = tuple(IDENTITY_SPECS)

# ids whose printed form failed adjudication and gate on a confirmed variant
VARIANT_IDS = tuple(i for i, spec in IDENTITY_SPECS.items() if spec.printed)

# residuals quoted in summary reports are diagnostics, not table data
REPORT_DIGITS = 12


def orders_read(ids, nmax, smax, tmax, singles):
    """The highest order of each family that the records and variant reports
    of `ids` on the site grid n <= nmax, s <= smax, t <= tmax read at each
    (s, t), from their stencils, both variants, and the reads of the kinds
    without one: a DetContext's `orders`.  An id that needs singles is read
    only at the t in `singles`, those of the table (its `single_by_t`), as
    run_suite skips it elsewhere."""
    reads = []
    for ident in ids:
        spec = _spec(ident)
        if nmax < spec.n_min:
            continue
        products = spec.stencil + (spec.printed or ()) + spec.reads
        reads += [read for s in range(smax + 1) for t in range(tmax + 1)
                  if t in singles or not spec.single
                  for read in stencil_reads(products, nmax, s, t)]
    return orders_of(reads)


def _spec(identity_id):
    spec = IDENTITY_SPECS.get(identity_id)
    if spec is None:
        raise ValueError("unknown identity id: %r" % (identity_id,))
    return spec


def gates(mode, identity_id, t, base_t):
    """Whether a record at this site participates in the pass/fail verdict."""
    spec = _spec(identity_id)
    if mode == "synthetic-generic":
        return spec.generic
    if mode == "synthetic-structured" and spec.single:
        return t == base_t
    return True


@dataclass
class IdentityRecord:
    identity_id: str
    n: int
    s: int
    t: int
    residual_abs: object
    residual_rel: object
    passed: object              # bool, or None when skipped
    mode: str
    gating: bool = True
    skipped: str = None

    def to_json_dict(self, precision_digits=None):
        if self.skipped is not None:
            return {"id": self.identity_id, "n": self.n, "s": self.s, "t": self.t,
                    "skipped": self.skipped, "pass": None, "mode": self.mode}
        return {"id": self.identity_id, "n": self.n, "s": self.s, "t": self.t,
                "residual_abs": fmt_scalar(self.residual_abs, precision_digits),
                "residual_rel": fmt_scalar(self.residual_rel, precision_digits),
                "pass": bool(self.passed), "mode": self.mode}


# ---- Residual reduction ----

def _vanishes(products):
    """Whether sum sign * prod(factors) over (sign, factors) pairs of exact
    rationals (int or Fraction) is zero.  The products are summed over one
    unreduced common denominator: no gcd, no Fraction."""
    num, den = 0, 1
    for sign, factors in products:
        p, q = sign, 1
        for f in factors:
            p *= f.numerator
            q *= f.denominator
        if p:
            num = num * q + p * den
            den *= q
    return num == 0


def _residual(ctx, parts, den=None):
    """(residual_abs, residual_rel) of `parts`, lists of signed products
    (sign, factors) that must each sum to zero: the largest |sum| of a part,
    and that over the largest |product| of any part (relative_residual),
    both over `den` if given, the common denominator of exact integer
    products.  An exact residual whose parts all `_vanishes` is (0, 0).
    Products multiply their factors left to right, and sums add products in
    order."""
    if ctx.exact and all(map(_vanishes, parts)):
        return Fraction(0), Fraction(0)
    worst = scale = ctx.zero()
    for part in parts:
        signed = []
        for sign, factors in part:
            prod = _product(factors)
            scale = max(scale, abs(prod))
            signed.append(prod if sign > 0 else -prod)
        if signed:
            worst = max(worst, abs(sum(signed[1:], signed[0])))
    if den is not None:
        worst, scale = Fraction(worst, den), Fraction(scale, den)
    return worst, relative_residual(worst, scale)


class _Ratio(NamedTuple):
    """An unreduced exact rational, read like a Fraction by `_integers`."""
    numerator: int
    denominator: int


# ---- Polynomial-combination helpers ----

def _shift_x(ctx, vec):
    """x times a memoized P, Q or R vector."""
    if isinstance(vec, tuple):
        nums, den = vec
        return (0, *nums), den
    return [ctx.zero()] + list(vec)


def _comb(ctx, terms):
    """The residual of sum sign*coef*vec over (sign, coef, vec) terms, each
    vec a P, Q or R vector in the memo's shape, one part per coefficient.
    An exact vec is a pair (integers, den): with coef_i / den_i = w_i / D
    over one common denominator, coefficient k is the integer sum of
    sign_i w_i integers_i[k] over D."""
    den = None
    if ctx.exact:
        weights, den = _integers([_Ratio(coef.numerator, coef.denominator * d)
                                  for _, coef, (_, d) in terms])
        terms = [(sign, w, ints)
                 for (sign, _, (ints, _)), w in zip(terms, weights)]
    width = max((len(vec) for _, _, vec in terms), default=0)
    return _residual(ctx, [[(sign, (coef, vec[k])) for sign, coef, vec in terms
                            if k < len(vec)] for k in range(width)], den)


# ---- Identity evaluators, one per kind: -> (residual_abs, residual_rel) ----

def _ev_stencil(ctx, stencil, n, s, t):
    products = ctx.factors(stencil, n, s, t)
    if stencil[0][1][-1][0] not in _VECTORS:
        return _residual(ctx, [products])
    # each product is a coefficient, the product of its scalar reads in
    # written order, times its vector
    terms = []
    for (sign, values), (_, reads) in zip(products, stencil):
        *scalars, vec = values
        if ("x", 0, 0, 0) in reads:
            vec = _shift_x(ctx, vec)
        terms.append((sign, _product(scalars), vec))
    return _comb(ctx, terms)


def _dckp_parts(a, b, c, d, e, f, g, h):
    """A_t, A_{t+1} and B of the quartic 4 A_t A_{t+1} = B^2, from the taus
    at DCKP_SITES."""
    return a * b - c * d, e * f - g * h, a * f + e * b - g * d - c * h


def _ev_dckp(ctx, n, s, t):
    taus = [ctx.tau(n + dn, s + ds, t + dt) for dn, ds, dt in DCKP_SITES]
    den = None
    if ctx.exact:
        # the quartic is homogeneous in tau, so over the integer taus its
        # residual is the true one times D^4, D their common denominator
        taus, D = _integers(taus)
        den = D ** 4
    A0, A1, B = _dckp_parts(*taus)
    return _residual(ctx, [[(1, (4, A0, A1)), (-1, (B, B))]], den)


def _ev_propr(ctx, n, s, t):
    # R_n pairs to zero with the bimoment columns 0..n-2 and with phi
    rv, den = ctx._family("R", n, s, t), None
    if ctx.exact:
        rv, den = rv
    columns = [lambda k, i=i: ctx.m(k, i, s, t) for i in range(n - 1)]
    columns.append(lambda k: ctx.ph(k, s, t))
    return _residual(ctx, [[(1, (c, col(k))) for k, c in enumerate(rv) if c]
                           for col in columns], den)


def _ev_4trr(ctx, n, s, t):
    def pvec(k):
        coeffs = list(poly(ctx, "P", k, s, t)) if k >= 0 else []
        return _integers(coeffs) if ctx.exact else coeffs

    # x P_n + a_n x P_{n-1} - sum over the bands o of band_o(n) P_{n+o}, all
    # coefficients read before any P
    sub, bands = RECURRENCE
    a = ctx.coeff(sub, n, s, t)
    coefs = [ctx._sum(stencil(band), n, s, t) for band in bands.values()]
    return _comb(ctx, [(1, ctx.one(), _shift_x(ctx, pvec(n))),
                       (1, a, _shift_x(ctx, pvec(n - 1)))]
                 + [(-1, coef, pvec(n + o)) for o, coef in zip(bands, coefs)])


def evaluate(ctx, identity_id, n, s, t, variant="confirmed"):
    """(residual_abs, residual_rel) for one identity at one site.  Only the
    variant ids have a "printed" variant."""
    spec = _spec(identity_id)
    stencil = {"confirmed": spec.stencil, "printed": spec.printed}.get(variant)
    if stencil is None:
        raise ValueError("identity %r has no variant %r" % (identity_id, variant))
    with ctx.wp():
        if spec.kind == "stencil":
            return _ev_stencil(ctx, stencil, n, s, t)
        if spec.kind == "propr":
            return _ev_propr(ctx, n, s, t)
        if spec.kind == "4trr":
            return _ev_4trr(ctx, n, s, t)
        return _ev_dckp(ctx, n, s, t)


# ---- Records ----

def _passes(ctx, res_abs, res_rel):
    """The verdict rule: exact residuals must vanish, float ones must stay
    below the rel_tol of the policy the table was built at."""
    return res_abs == 0 if ctx.exact else res_rel < ctx.base.policy.rel_tol()


def _outcome(ctx, identity_id, n, s, t):
    """(residual_abs, residual_rel, None) of the confirmed variant at one
    site, or (None, None, the skip text) where it raises ExtentError or
    DegeneracyError."""
    try:
        return (*evaluate(ctx, identity_id, n, s, t), None)
    except (ExtentError, DegeneracyError) as exc:
        return None, None, type(exc).__name__ + ": " + str(exc)


def _record(ctx, identity_id, n, s, t, outcome):
    res_abs, res_rel, skipped = outcome
    mode = ctx.base.mode
    if skipped is not None:
        return IdentityRecord(identity_id, n, s, t, None, None, None, mode,
                              gating=False, skipped=skipped)
    return IdentityRecord(identity_id, n, s, t, res_abs, res_rel,
                          _passes(ctx, res_abs, res_rel), mode,
                          gating=gates(mode, identity_id, t, ctx.base.t0))


# ---- Suite ----

def run_suite(ctx, nmax, smax, tmax, ids=None):
    """All catalog identities on the site grid, sorted by (id, n, s, t).

    Sites a mode cannot evaluate (missing singles, exhausted extent, degenerate
    denominators) yield skipped records; failures are recorded, never thrown.
    Ids that share a stencil (eq1 and e1, 3.3a and fn-a, 3.3b and fn-b) share
    its outcome at each site, evaluated once; each keeps its own gating.
    """
    chosen = [(ident, _spec(ident)) for ident in (ids or CATALOG_IDS)]
    # each id -> the first chosen id with its stencil, whose outcomes it reads
    first = {}
    same_as = {ident: first.setdefault(spec.stencil, ident)
               if spec.stencil else ident for ident, spec in chosen}
    outcomes = {}
    records = []
    for ident, spec in chosen:
        for n in range(spec.n_min, nmax + 1):
            for s in range(smax + 1):
                for t in range(tmax + 1):
                    key = (same_as[ident], n, s, t)
                    if spec.single and not ctx.has_single(t):
                        outcome = None, None, "mode"
                    elif key in outcomes:
                        outcome = outcomes[key]
                    else:
                        outcome = outcomes[key] = _outcome(ctx, ident, n, s, t)
                    records.append(_record(ctx, ident, n, s, t, outcome))
    records.sort(key=lambda r: (r.identity_id, r.n, r.s, r.t))
    return records


def suite_summary(records):
    """Record, gating-failure and skip counts and the overall gating
    verdict, in the order verify prints them."""
    skipped = sum(r.skipped is not None for r in records)
    failures = sum(r.skipped is None and r.gating and not r.passed
                   for r in records)
    return {"records": len(records), "gating_failures": failures,
            "skipped": skipped, "all_gating_pass": failures == 0}


# ---- Adjudication artifacts ----

def _adjudicate(ctx, residual, variants, sites, keys):
    """Worst residual(variant, n, s, t) = (residual_abs, residual_rel) of
    each variant over `sites`, and the chosen variant: the first one that
    reached a site and whose worst residual is zero (exact) or below rel_tol
    (float).  Sites raising ExtentError or DegeneracyError are skipped;
    entries keep `keys` in order.
    """
    def fmt(v):
        return None if v is None else fmt_scalar(v, REPORT_DIGITS)

    entry = {"variants": {}, "chosen": None}
    for variant in variants:
        worst_abs = worst_rel = None
        count = skipped = 0
        for n, s, t in sites:
            try:
                res_abs, rel = residual(variant, n, s, t)
            except (ExtentError, DegeneracyError):
                skipped += 1
                continue
            count += 1
            if worst_rel is None or rel > worst_rel:
                worst_abs, worst_rel = res_abs, rel
        ok = count > 0 and _passes(ctx, worst_abs, worst_rel)
        stats = {"max_residual_abs": fmt(worst_abs),
                 "max_residual_rel": fmt(worst_rel),
                 "sites": count, "skipped": skipped, "passes": ok}
        entry["variants"][variant] = {k: stats[k] for k in keys}
        if ok and entry["chosen"] is None:
            entry["chosen"] = variant
    return entry


def variant_report(ctx, nmax, smax, tmax, ids=VARIANT_IDS, records=()):
    """Per-variant residuals for the sign-contested identities.

    For each id the printed and confirmed forms are evaluated across the grid;
    the chosen variant (the one gating `pass`) is recorded in the metadata.
    A confirmed residual that `records` (run_suite's, on the same ctx)
    already holds is read from its record instead of evaluated again.
    """
    done = {(r.identity_id, r.n, r.s, r.t): r for r in records
            if r.identity_id in ids and r.skipped is None}

    def residual(ident, variant, n, s, t):
        rec = done.get((ident, n, s, t)) if variant == "confirmed" else None
        if rec is not None:
            return rec.residual_abs, rec.residual_rel
        return evaluate(ctx, ident, n, s, t, variant)

    report = {}
    for ident in ids:
        report[ident] = _adjudicate(
            ctx, lambda v, n, s, t: residual(ident, v, n, s, t),
            ("printed", "confirmed"),
            [(n, s, t) for n in range(_spec(ident).n_min, nmax + 1)
             for s in range(smax + 1) for t in range(tmax + 1)],
            ("max_residual_rel", "max_residual_abs", "sites", "passes"))
    return report

