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
The other three kinds (4trr, propr, dckp) declare their highest reads as a
stencil of one product, 4trr its recurrence coefficients a, b, c and
P_{n+1}.  `orders_read` expands every stencil into family reads
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
residual_rel < rel_tol, with scale = max |individual product term| (floor 1).
Every evaluator only builds its residual's parts, each a list of signed
products that must sum to zero: a scalar stencil and the quartic one part,
a linear stencil and 4trr one per coefficient, propr one per column.  One
reducer, `_residual`, turns them into (residual_abs, scale terms): the
largest |sum| of a part and every |product|.  An exact residual is first
zero-tested on those same products, in integer arithmetic over one
unreduced common denominator (`_vanishes`); only a nonzero one is summed.
A P, Q or R read is the memo's pair (numerators, denominator), and the
quartic reads its taus as integers over their common denominator D: those
parts carry integer coefficients, with no Fraction per coefficient, and
the reducer divides the sums and products by the denominator (D^4 for the
quartic).
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .numerics import (TolerancePolicy, DegeneracyError, ExtentError,
                       _integers, fmt_scalar, relative_residual)
from .detkit import FAMILY_SPECS, orders_of, stencil, stencil_reads

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
    reads: tuple = ()           # a kind without a stencil: its highest reads,
                                # as a stencil of one product


def _by_stencil(text, printed=None, generic=False, n_min=0):
    return Identity("stencil", n_min=n_min, generic=generic,
                    stencil=stencil(text), printed=printed and stencil(printed))


_E1 = "+ tau[n+1] tau[n-1,s+1] - tau tau[s+1] + xi xi"
_FN_A = "+ sigma[s+1] tau[n+1] - sigma[n+1] tau[s+1] - xi[n+1] psi"
_FN_B = "+ sigma tau[s+1] - sigma[n-1,s+1] tau[n+1] - xi psi"

IDENTITY_SPECS = {
    # 4trr: a_n, b_n, c_n and P_{n+1} = Praw_{n+1} / tau_{n+1}
    "4trr": Identity("4trr", n_min=1, single=True,
                     reads=stencil("+ a b c P[n+1]")),
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
    "dckp": Identity("dckp", generic=True, reads=stencil(
        "+ tau[n+1] tau[s+1] tau[n+1,t+1] tau[s+1,t+1]")),
}

CATALOG_IDS = tuple(IDENTITY_SPECS)

# ids whose printed form failed adjudication and gate on a confirmed variant
VARIANT_IDS = tuple(i for i, spec in IDENTITY_SPECS.items() if spec.printed)

# residuals quoted in summary reports are diagnostics, not table data
REPORT_DIGITS = 12


def orders_read(ids, nmax, smax, tmax, singles):
    """The highest order of each family that the records and variant reports
    of `ids` on the site grid n <= nmax, s <= smax, t <= tmax read at each
    (s, t), from their stencils, both variants, and declared reads: a
    DetContext's `orders`.  An id that needs singles is read only at the t
    in `singles`, those of the table (its `single_by_t`), as run_suite
    skips it elsewhere."""
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
    """(residual_abs, scale terms) of `parts`, lists of signed products
    (sign, factors) that must each sum to zero: the largest |sum| of a part
    and every |product|, each over `den` if given, the common denominator
    of exact integer products.  An exact residual whose parts all
    `_vanishes` is 0 with no scale terms.  Products multiply their factors
    left to right, and sums add products in order."""
    if ctx.exact and all(map(_vanishes, parts)):
        return Fraction(0), []
    sums = []
    scales = []
    for part in parts:
        signed = []
        for sign, factors in part:
            prod = factors[0]
            for f in factors[1:]:
                prod = prod * f
            scales.append(abs(prod))
            signed.append(prod if sign > 0 else -prod)
        if signed:
            sums.append(abs(sum(signed[1:], signed[0])))
    worst = max(sums, default=ctx.zero())
    if den is not None:
        return Fraction(worst, den), [Fraction(v, den) for v in scales]
    return worst, scales


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


# ---- Identity evaluators, one per kind: -> (residual_abs, scales) ----

def _ev_stencil(ctx, stencil, n, s, t):
    read = ctx._family
    products = [(sign, [read(f, n + dn, s + ds, t + dt)
                        for f, dn, ds, dt in reads if f != "x"])
                for sign, reads in stencil]
    if stencil[0][1][-1][0] not in _VECTORS:
        return _residual(ctx, [products])
    # each product is a coefficient, the product of its scalar reads in
    # written order, times its vector
    terms = []
    for (sign, values), (_, reads) in zip(products, stencil):
        *scalars, vec = values
        coef = scalars[0]
        for v in scalars[1:]:
            coef = coef * v
        if ("x", 0, 0, 0) in reads:
            vec = _shift_x(ctx, vec)
        terms.append((sign, coef, vec))
    return _comb(ctx, terms)


# the quartic's eight tau reads (dn, ds, dt), in _dckp_parts' argument order:
# tau_n^{s+1}, tau_n, tau_{n+1}, tau_{n-1}^{s+1} at t and then at t+1
DCKP_SITES = ((0, 1, 0), (0, 0, 0), (1, 0, 0), (-1, 1, 0),
              (0, 1, 1), (0, 0, 1), (1, 0, 1), (-1, 1, 1))


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
    from .polyfam import poly

    def pvec(k):
        coeffs = list(poly(ctx, "P", k, s, t).coeffs) if k >= 0 else []
        return _integers(coeffs) if ctx.exact else coeffs

    a_n = ctx.coeff("a", n, s, t)
    b_n = ctx.coeff("b", n, s, t)
    b_nm1 = ctx.coeff("b", n - 1, s, t)
    c_n = ctx.coeff("c", n, s, t)
    c_nm1 = ctx.coeff("c", n - 1, s, t)
    one = ctx.one()
    return _comb(ctx, [(1, one, _shift_x(ctx, pvec(n))),
                       (1, a_n, _shift_x(ctx, pvec(n - 1))),
                       (-1, one, pvec(n + 1)),
                       (-1, a_n - b_n, pvec(n)),
                       (-1, a_n * b_nm1 - c_n, pvec(n - 1)),
                       (1, a_n * c_nm1, pvec(n - 2))])


def evaluate(ctx, identity_id, n, s, t, variant="confirmed"):
    """(residual_abs, scale_terms) for one identity at one site.  Only the
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

def _policy_for(ctx, policy):
    if policy is not None:
        return policy
    if ctx.exact:
        return TolerancePolicy()
    return TolerancePolicy(precision_digits=ctx.base.precision_digits)


def _passes(ctx, res_abs, res_rel, policy):
    """The verdict rule: exact residuals must vanish, float ones must stay
    below rel_tol."""
    return res_abs == 0 if ctx.exact else res_rel < policy.rel_tol()


def _with_relative(ctx, res_abs, scales):
    """(residual_abs, residual_rel) from evaluate's (residual_abs, scales)."""
    with ctx.wp():
        return res_abs, relative_residual(res_abs, scales)


def _outcome(ctx, identity_id, n, s, t):
    """(residual_abs, residual_rel, None) of the confirmed variant at one
    site, or (None, None, the skip text) where it raises ExtentError or
    DegeneracyError."""
    try:
        return (*_with_relative(ctx, *evaluate(ctx, identity_id, n, s, t)),
                None)
    except (ExtentError, DegeneracyError) as exc:
        return None, None, type(exc).__name__ + ": " + str(exc)


def _record(ctx, identity_id, n, s, t, policy, outcome):
    res_abs, res_rel, skipped = outcome
    mode = ctx.base.mode
    if skipped is not None:
        return IdentityRecord(identity_id, n, s, t, None, None, None, mode,
                              gating=False, skipped=skipped)
    return IdentityRecord(identity_id, n, s, t, res_abs, res_rel,
                          _passes(ctx, res_abs, res_rel, policy), mode,
                          gating=gates(mode, identity_id, t, ctx.base.t0))


# ---- Suite ----

def run_suite(ctx, nmax, smax, tmax, policy=None, ids=None):
    """All catalog identities on the site grid, sorted by (id, n, s, t).

    Sites a mode cannot evaluate (missing singles, exhausted extent, degenerate
    denominators) yield skipped records; failures are recorded, never thrown.
    Ids that share a stencil (eq1 and e1, 3.3a and fn-a, 3.3b and fn-b) share
    its outcome at each site, evaluated once; each keeps its own gating.
    """
    chosen = [(ident, _spec(ident)) for ident in (ids or CATALOG_IDS)]
    mode = ctx.base.mode
    policy = _policy_for(ctx, policy)
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
                    if spec.single and not ctx.has_single(t):
                        records.append(IdentityRecord(
                            ident, n, s, t, None, None, None, mode,
                            gating=False, skipped="mode"))
                        continue
                    key = (same_as[ident], n, s, t)
                    if key not in outcomes:
                        outcomes[key] = _outcome(ctx, ident, n, s, t)
                    records.append(_record(ctx, ident, n, s, t, policy,
                                           outcomes[key]))
    records.sort(key=lambda r: (r.identity_id, r.n, r.s, r.t))
    return records


def suite_summary(records):
    """Record, gating-failure and skip counts, the overall gating verdict and
    the max residual per identity."""
    worst = {}
    failures = skipped = 0
    for r in records:
        if r.skipped is not None:
            skipped += 1
            continue
        key = r.identity_id
        cur = worst.get(key)
        val = r.residual_rel
        if cur is None or val > cur:
            worst[key] = val
        if r.gating and not r.passed:
            failures += 1
    return {"records": len(records), "gating_failures": failures,
            "skipped": skipped, "all_gating_pass": failures == 0,
            "max_residual_rel": worst}


# ---- Adjudication artifacts ----

def _adjudicate(ctx, residual, variants, sites, policy, keys):
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
        ok = count > 0 and _passes(ctx, worst_abs, worst_rel, policy)
        stats = {"max_residual_abs": fmt(worst_abs),
                 "max_residual_rel": fmt(worst_rel),
                 "sites": count, "skipped": skipped, "passes": ok}
        entry["variants"][variant] = {k: stats[k] for k in keys}
        if ok and entry["chosen"] is None:
            entry["chosen"] = variant
    return entry


def variant_report(ctx, nmax, smax, tmax, policy=None, ids=VARIANT_IDS,
                   records=()):
    """Per-variant residuals for the sign-contested identities.

    For each id the printed and confirmed forms are evaluated across the grid;
    the chosen variant (the one gating `pass`) is recorded in the metadata.
    A confirmed residual that `records` (run_suite's, on the same ctx)
    already holds is read from its record instead of evaluated again.
    """
    policy = _policy_for(ctx, policy)
    done = {(r.identity_id, r.n, r.s, r.t): r for r in records
            if r.identity_id in ids and r.skipped is None}

    def residual(ident, variant, n, s, t):
        rec = done.get((ident, n, s, t)) if variant == "confirmed" else None
        if rec is not None:
            return rec.residual_abs, rec.residual_rel
        return _with_relative(ctx, *evaluate(ctx, ident, n, s, t, variant))

    report = {}
    for ident in ids:
        report[ident] = _adjudicate(
            ctx, lambda v, n, s, t: residual(ident, v, n, s, t),
            ("printed", "confirmed"),
            [(n, s, t) for n in range(_spec(ident).n_min, nmax + 1)
             for s in range(smax + 1) for t in range(tmax + 1)],
            policy, ("max_residual_rel", "max_residual_abs", "sites", "passes"))
    return report

