"""Determinant kernel and the bordered-determinant families built on a moment
table: one no-pivot elimination per frame (fraction-free Bareiss for exact
entries, Schur complements for floats, whose pivots it checks), exact
determinants of single minors as the fallback, and one memoized evaluator for
every family

  tau_n      = det(m_{ij})                     n x n
  xi_n       = det(m_{i,j+1})
  tauhat_n   = det(m_{i,j+2})
  sigma_n    = det[m cols 0..n-1 | phi_i]      (n+1) x (n+1)
  psi_n      = det[m cols 1..n   | phi_i]
  sigma_row_n= det[m_{i+1,j} cols 0..n-1 | phi_{i+1}]
  sigtilde_n = det[m cols 0..n-1 | u_i]
  tautilde_n = det(m rows 0..n-2,n, cols 0..n-1)
  Praw_n     = det[m cols 0..n-1 | x^i]         (n+1) x (n+1), rows 0..n,
  Qraw_n     = det[m cols 1..n   | x^i]         as the coefficient vector
  Rraw_n     = det[m cols 0..n-2 | phi_i | x^i] of x^0..x^n (cofactors)

Each is a minor of one frame, rows 0..n of the moment matrix, with its
border columns after the m columns: FAMILY_SPECS gives the row and column
offsets, the border vector, the frame row left out and the edges.

Both modes read every family from one elimination per frame and (s, t),
without pivoting.  The frames come from FAMILY_SPECS: families sharing a
column offset, a row offset and scalar-or-polynomial share one, with their
border columns appended after the bimoment columns,

  [m cols 0.. | phi | u]   tau, sigma, sigtilde, tautilde
  [m cols 1.. | phi]       xi, psi
  [m cols 2..]             tauhat
  [m rows 1.. | phi]       sigma_row
  [m cols 0.. | phi | I]   Praw, Rraw    (swept only when asked for)
  [m cols 1.. | I]         Qraw

where I is the identity block, one column e_k per frame row.  Exact mode
scales each frame row to integers once; after k Bareiss steps the entry
a^{(k)}_{ij} (i >= k) is the minor on rows and columns 0..k-1 plus row i and
column j (Sylvester's identity; Bareiss, Math. Comp. 22, 1968), divided by
the scales of its rows.  So tau_n is the pivot a^{(n-1)}_{n-1,n-1},
tautilde_n the entry a^{(n-1)}_{n,n-1} below it, sigma_n (psi, sigtilde,
sigma_row alike) the border entry a^{(n)}_{n,phi}, and Praw_n (Qraw_n alike)
row n of the I block after n steps: a^{(n)}_{n,e_k} is the Laplace cofactor
of x^k.  Rraw_n, whose minor holds two border columns, phi and e_k, in the
frame's order, is one 2 x 2 Sylvester step on rows n-1, n and those columns
after n-1 steps, divided by tau_{n-1}.

Float mode eliminates in Schur-complement form at the working precision:
after k steps the entry S^{(k)}_{ij} times prev, the product of the k pivots
so far, is that same minor.  So tau_{k+1} = prev S_{k,k}, tautilde_{k+1} =
prev S_{k+1,k}, a border family prev S_{k,phi}, a cofactor row prev S_{k,I},
and Rraw_{k+1} = prev (S_{k,phi} S_{k+1,e} - S_{k+1,phi} S_{k,e}).  No
pivoting is needed on these frames: with a positive weight the Cauchy-kernel
bimoment matrix is totally positive (Bertola, Gekhtman & Szmigielski,
J. Approx. Theory 162, 2010), where elimination without pivoting is backward
stable (de Boor & Pinkus, Linear Algebra Appl. 17, 1977).

A context is built with `orders`, the highest family order its caller
reads, and each sweep takes frame rows 0..orders only (fewer where the
table ends).  By Sylvester's identity an entry after k steps depends only on
rows 0..k-1, i and columns 0..k-1, j, so the rows and columns left out change
no value that is read, in either mode; the orders above the bound are the
costliest ones, with the most steps and, in exact mode, the largest integers.

The float sweep checks each pivot before it divides by it.  Pivot k fails
unless it exceeds 10^-(dps - WORKING_MARGIN), that is 10^-precision, times
|its row's original diagonal entry|: at dps digits a Schur complement carries
a rounding error of about 10^-dps of its row's scale, so a pivot within
WORKING_MARGIN digits of that level has no digit the margin can vouch for.  A
zero or negative pivot fails too: the float path never proves a determinant
zero, and on a totally positive frame every pivot is positive, so every swept
tau, xi and tauhat is.  At a failed pivot the sweep keeps the values of that
step that do not use it (all but the pivot family's next order) and stops.

A sweep reaches order `orders` + 1 of the pivot families tau, xi and tauhat
and `orders` of the others.  A read it does not reach raises ExtentError past
the table's extent (the literal minor's rows do not exist); above the bound,
a ValueError naming it, so a bound set too tight fails loudly rather than as
a skipped site; past a failed float pivot, DegeneracyError naming the family,
(n, s, t) and the pivot.  Past a zero divisor tau_k of the exact sweep it is
det_exact of the literal minor.

Edge conventions: tau_0 = xi_0 = tauhat_0 = 1 and sigtilde_{-1} = 1 (empty
determinants); Praw_{-1} = Qraw_{-1} = [] (the zero polynomial); tau_{-1} =
xi_{-1} = 0; sigma_{-1} = psi_{-1} = 0; tautilde_{n<=0} = 0; Rraw needs
n >= 1.  Shifts in s reindex into the same table; shifts in t use the
rank-one evolved tables.

Recurrence coefficients are ratios of these determinants; a vanishing exact
denominator raises DegeneracyError.

Beside the family memo each context keeps a memo of derived values: the
recurrence coefficients here, polyfam's monic vectors and lax's operators,
each built once per context and arguments by the `derived` decorator.  A
value is computed by the same operations at the context's working precision
whichever caller asks first, so memoizing it changes no bit of any result.
Errors are not memoized.
"""

import functools
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .numerics import WORKING_MARGIN, DegeneracyError, ExtentError, _integers

# ---- Family table ----

@dataclass(frozen=True)
class Family:
    """A family as a minor of the frame rows 0..n of m (see the module doc)."""
    method: str                 # the DetContext method evaluating it
    col: int = 0                # column offset into m
    row: int = 0                # row offset of the frame
    border: str = None          # "phi" or "u": a column after the m columns
    skip: int = None            # scalar family: frame row n - skip left out
    lead: tuple = None          # polynomial family: (family, order shift) of
                                # its x^n cofactor
    start: int = 0              # lowest n from the frame (tau_0 = det() = 1);
    error: str = None           # below it 0, or ExtentError(error)


FAMILY_SPECS = {
    "tau": Family("tau", skip=0),
    "xi": Family("xi", col=1, skip=0),
    "tau_hat": Family("tauhat", col=2, skip=0),
    "sigma": Family("sigma", border="phi"),
    "psi": Family("psi", col=1, border="phi"),
    "sigma_row": Family("sigma_row", row=1, border="phi"),
    "sigma_tilde": Family("sigtilde", border="u", start=-1),
    "tau_tilde": Family("tautilde", skip=1, start=1),
    "P": Family("Praw", lead=("tau", 0), start=-1,
                error="polynomial order below -1"),
    "Q": Family("Qraw", col=1, lead=("xi", 0), start=-1,
                error="polynomial order below -1"),
    "R": Family("Rraw", border="phi", lead=("sigma", -1), start=1,
                error="third-family polynomial needs order >= 1"),
}

FAMILIES = tuple(f for f, spec in FAMILY_SPECS.items() if spec.lead is None)


def _frame_key(spec):
    """The frame a family is read from: column offset, row offset,
    and whether it is a cofactor vector (its frame carries the I block)."""
    return spec.col, spec.row, spec.lead is not None


def _frames():
    frames = {}     # frame -> (its families, its border columns)
    for name, spec in FAMILY_SPECS.items():
        names, borders = frames.setdefault(_frame_key(spec), ([], []))
        names.append(name)
        if spec.border and spec.border not in borders:
            borders.append(spec.border)
    return frames


_FRAMES = _frames()


# ---- Determinants ----

def det_exact(rows):
    """Determinant of a square Fraction matrix by integer Bareiss elimination."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    scale = 1
    M = []
    for r in rows:
        ints, d = _integers(r)
        scale *= d
        M.append(ints)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for r in range(k + 1, n):
                if M[r][k] != 0:
                    M[k], M[r] = M[r], M[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pk = M[k][k]
        for i in range(k + 1, n):
            mik = M[i][k]
            row = M[i]
            rk = M[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pk - mik * rk[j]) // prev
            row[k] = 0
        prev = pk
    return Fraction(sign * M[n - 1][n - 1], scale)


def _bareiss_steps(M, C):
    """Fraction-free elimination of the integer rows M in place, without
    pivoting, on their first C columns.

    Yields (k, prev) before step k.  Then M[i][j], for i >= k and j >= k, is
    the minor on rows and columns 0..k-1 plus row i and column j, and prev is
    the leading k x k minor, the divisor of step k.  Stops where prev is
    zero.  A row may be longer than the rows above it: their missing entries
    are zeros.
    """
    prev = 1
    for k in range(len(M)):
        yield k, prev
        if k >= C or k + 1 >= len(M) or prev == 0:
            return
        rk = M[k]
        pk = rk[k]
        width = len(rk)
        for i in range(k + 1, len(M)):
            row = M[i]
            mik = row[k]
            M[i] = (row[:k + 1]
                    + [(a * pk - mik * b) // prev
                       for a, b in zip(row[k + 1:width], rk[k + 1:])]
                    + [a * pk // prev for a in row[width:]])
        prev = pk


def _schur_steps(M, C):
    """_bareiss_steps for mpf rows in Schur-complement form, one multiply
    and one subtract per entry at the ambient precision.  prev is the product
    of the pivots so far, and prev * M[i][j] the minor _bareiss_steps has in
    M[i][j].  Step k runs only when the caller asks for the next value, so a
    caller that stops at a failed pivot M[k][k] never divides by it."""
    prev = mp.mpf(1)
    for k in range(len(M)):
        yield k, prev
        if k >= C or k + 1 >= len(M):
            return
        rk = M[k]
        pk = rk[k]
        width = len(rk)
        for i in range(k + 1, len(M)):
            row = M[i]
            f = row[k] / pk
            M[i] = (row[:k + 1]
                    + [a - f * b for a, b in zip(row[k + 1:width], rk[k + 1:])]
                    + row[width:])
        prev *= pk


# ---- Context over a stack of t-evolved tables ----

def derived(fn):
    """fn(ctx, *args), a value built from ctx's families, memoized per
    context in ctx.derived under (fn's name, *args).  A call that raises
    stores nothing, so a repeated call raises again.  Callers must not
    mutate a value they are given."""
    name = fn.__qualname__

    @functools.wraps(fn)
    def cached(ctx, *args):
        key = (name,) + args
        v = ctx.derived.get(key)
        if v is None:
            v = ctx.derived[key] = fn(ctx, *args)
        return v
    return cached


def _family_method(family, doc=None):
    """A DetContext method delegating to the memoized family evaluator."""
    def method(self, n, s, t):
        return self._family(family, n, s, t)
    method.__name__ = FAMILY_SPECS[family].method
    method.__doc__ = doc
    return method


class DetContext:
    """Family evaluators at absolute (n, s, t) over one base moment table.

    t moves through rank-one evolved copies of the base table, s through index
    shifts inside each copy.  All determinants are memoized in `memo`; one
    sweep per frame and (s, t) fills it up to `orders`, the highest family
    order the caller reads (see the module doc).  Values derived from the
    families (recurrence coefficients, monic polynomials, Lax operators) are
    memoized apart, in `derived`, so `memo` holds families only.
    """

    def __init__(self, base_table, orders):
        self.base = base_table
        self.orders = orders
        self.exact = base_table.exact
        self.dps = (None if self.exact
                    else base_table.precision_digits + WORKING_MARGIN)
        self.s0 = base_table.s0
        self.tables = {base_table.t0: base_table}
        top = max(base_table.phi_by_t.keys(), default=base_table.t0 - 1)
        cur = base_table
        for t in range(base_table.t0, top + 1):
            cur = cur.evolve_t()
            self.tables[cur.t0] = cur
        self.memo = {}
        self.derived = {}
        self.swept = {}         # frame, s, t -> its failed float pivot or None

    # -- scalars --

    def zero(self):
        return Fraction(0) if self.exact else mp.mpf(0)

    def one(self):
        return Fraction(1) if self.exact else mp.mpf(1)

    def _table(self, t):
        tb = self.tables.get(t)
        if tb is None:
            raise ExtentError("no moment table at t=%d (have %s)"
                              % (t, sorted(self.tables)))
        return tb

    def m(self, i, j, s, t):
        ds = s - self.s0
        if ds < 0:
            raise ExtentError("s=%d below table base s0=%d" % (s, self.s0))
        return self._table(t).m(i + ds, j + ds)

    def u(self, i, s, t):
        return self._table(t).u(i + (s - self.s0))

    def ph(self, i, s, t):
        return self._table(t).phi(i + (s - self.s0))

    def has_single(self, t):
        tb = self.tables.get(t)
        return tb is not None and tb.has_single()

    def has_phi(self, t):
        tb = self.tables.get(t)
        return tb is not None and tb.has_phi()

    # -- determinant families: one memoized evaluator over FAMILY_SPECS --

    def _family(self, family, n, s, t):
        spec = FAMILY_SPECS[family]
        if n < spec.start:
            if spec.error:
                raise ExtentError(spec.error)
            return self.zero()
        key = (family, n, s, t)
        v = self.memo.get(key)
        if v is None:
            frame = (_frame_key(spec), s, t)
            if frame not in self.swept:
                with self.wp():
                    self.swept[frame] = self._sweep(*frame)
                v = self.memo.get(key)
        if v is None:
            v = self.memo[key] = self._frame_value(family, n, s, t,
                                                   self.swept[frame])
        return v

    def _sweep(self, frame, s, t):
        """Memoize every value of `frame` at (s, t) that one elimination
        reaches: each of its families up to order self.orders (a pivot
        family, tau, xi or tauhat, to one more), from frame rows
        0..self.orders inside the table.  Returns the float pivot that
        stopped it, as (step, pivot, floor), or None.
        Only the elimination, the value of a swept entry and the pivot check
        depend on the mode: an exact entry is a minor over its row scales, a
        float one a Schur complement entry times prev, the product of the
        pivots, and only a float pivot is checked against its floor."""
        col, row, poly = frame
        names, borders = _FRAMES[frame]
        specs = [(name, FAMILY_SPECS[name]) for name in names]
        for name, spec in specs:
            empty = -1 + (spec.skip is not None)    # the order of a 0 x 0 minor
            if empty >= spec.start:
                self.memo[(name, empty, s, t)] = [] if poly else self.one()
        steps, value = ((_bareiss_steps, lambda v, prev, den: Fraction(v, den))
                        if self.exact else
                        (_schur_steps, lambda v, prev, den: prev * v))
        ds = s - self.s0
        tb = self.tables.get(t)
        if tb is None or ds < 0:
            return
        top = ds + row                  # table row of frame row 0
        R = min(tb.K - top, self.orders + 1)    # frame rows
        C = max(0, min(tb.K - ds - col, R))    # bimoment columns
        vecs, at = [], {}               # border -> (frame column, rows it has)
        for b in borders:
            vec = tb.phi_by_t.get(t) if b == "phi" else tb.single
            if vec is not None:
                at[b] = (C + len(vecs), min(len(vec) - top, R))
                vecs.append(vec)
        ident = C + len(vecs)           # first column of the I block
        M, d, scale = [], [], [1]       # row scales; scale[i]: rows 0..i-1
        for i in range(R):
            r = top + i
            cells = ([tb.m(r, ds + col + j) for j in range(C)]
                     + [v[r] if r < len(v) else 0 for v in vecs])
            ints, di = _integers(cells) if self.exact else (cells, 1)
            if poly:
                ints += [0] * i + [di]      # I block up to its diagonal
            M.append(ints)
            d.append(di)
            scale.append(scale[-1] * di)
        if not self.exact:
            # pivot k must exceed 10^-precision of its row's diagonal entry
            eps = mp.mpf(10) ** (WORKING_MARGIN - self.dps)
            floors = [eps * abs(M[k][k]) for k in range(C)]
        memo = self.memo
        for k, prev in steps(M, C):
            rk = M[k]
            trusted = self.exact or k >= C or rk[k] > floors[k]
            for name, spec in specs:
                if spec.skip is not None:
                    # tau_{k+1} = a^{(k)}_{k,k}, the pivot (kept only if it
                    # passes), and tautilde_{k+1} = a^{(k)}_{k+1,k}
                    i = k + spec.skip
                    if k < C and i < R and (trusted or spec.skip):
                        memo[(name, k + 1, s, t)] = value(M[i][k], prev,
                                                          scale[k] * d[i])
                elif not poly:
                    c, rows = at.get(spec.border, (None, 0))
                    if k < rows:
                        memo[(name, k, s, t)] = value(rk[c], prev, scale[k + 1])
                elif spec.border is None:
                    memo[(name, k, s, t)] = [value(v, prev, scale[k + 1])
                                             for v in rk[ident:]]
                else:
                    # Rraw_{k+1}: 2 x 2 Sylvester step on rows k, k+1 and
                    # columns phi, e_j; an exact entry is a minor, so the
                    # step divides by tau_k
                    c, rows = at.get(spec.border, (None, 0))
                    if k + 1 < rows and prev != 0:
                        nxt = M[k + 1]
                        p, q = rk[c], nxt[c]
                        cross = [p * b - q * a
                                 for a, b in zip(rk[ident:] + [0], nxt[ident:])]
                        if self.exact:
                            cross = [x // prev for x in cross]
                        memo[(name, k + 1, s, t)] = [
                            value(x, prev, scale[k + 2]) for x in cross]
            if not trusted:
                return k, rk[k], floors[k]

    def _frame_value(self, family, n, s, t, stop):
        """A value the sweep of its frame did not reach, `stop` the failed
        float pivot that stopped the sweep (see the module doc)."""
        spec = FAMILY_SPECS[family]
        vec = {"phi": self.ph, "u": self.u}.get(spec.border)
        poly = spec.lead is not None
        # square minors: n rows if a row is left out, else n+1; a border is a column
        width = n + (spec.skip is None and not poly) - (vec is not None)

        def line(i):
            i += spec.row
            cells = [self.m(i, j + spec.col, s, t) for j in range(width)]
            return cells + [vec(i, s, t)] if vec else cells

        drop = None if spec.skip is None else n - spec.skip
        rows = [line(i) for i in range(n + 1) if i != drop]   # or ExtentError
        reach = self.orders + (spec.skip == 0)
        if n > reach:
            raise ValueError("%s_%d^{%d,%d} is above the sweep bound of its "
                             "context: orders = %d reaches %s to order %d"
                             % (family, n, s, t, self.orders, family, reach))
        if not self.exact:
            k, pivot, floor = stop
            raise DegeneracyError(
                "%s_%d^{%d,%d} lies past float pivot %d of its frame, %s, "
                "not above its floor %s (10^-%d of its diagonal entry)"
                % (family, n, s, t, k, mp.nstr(pivot, 5), mp.nstr(floor, 5),
                   self.dps - WORKING_MARGIN))
        if not poly:
            return det_exact(rows)
        # coeff of x^k = (-1)^{k+n} * minor over frame rows != k
        minors = [det_exact(rows[:k] + rows[k + 1:]) for k in range(n + 1)]
        return [v if (k + n) % 2 == 0 else -v for k, v in enumerate(minors)]

    tau = _family_method("tau")
    xi = _family_method("xi")
    tauhat = _family_method("tau_hat")
    sigma = _family_method("sigma")
    psi = _family_method("psi")
    sigma_row = _family_method("sigma_row")
    sigtilde = _family_method("sigma_tilde")
    tautilde = _family_method("tau_tilde")

    # -- unnormalized polynomial coefficient vectors (degree-ordered) --

    Praw = _family_method("P", "Cofactor coefficients of tau_n P_n; "
                               "Praw(-1) is the zero polynomial.")
    Qraw = _family_method("Q")
    Rraw = _family_method("R", "Border [m cols 0..n-2 | phi | x^i]; "
                               "defined for n >= 1.")

    # -- recurrence coefficients --

    def wp(self):
        """Working-precision context for scalar arithmetic on family values."""
        return nullcontext() if self.exact else mp.workdps(self.dps)

    def _div(self, num, den, what):
        if den == 0:
            raise DegeneracyError("vanishing denominator in %s" % what)
        return num / den

    @derived
    def norm(self, n, s, t):
        """h_n = tau_{n+1}/tau_n, the squared biorthogonal norm."""
        with self.wp():
            return self._div(self.tau(n + 1, s, t), self.tau(n, s, t),
                             "norm h_%d" % n)

    @derived
    def psub(self, n, s, t):
        """Subleading coefficient p_n of P_n: -tautilde_n/tau_n."""
        with self.wp():
            return self._div(-self.tautilde(n, s, t), self.tau(n, s, t), "p_%d" % n)

    @derived
    def coeff_a(self, n, s, t):
        if n == 0:
            return self.zero()
        with self.wp():
            return self._div(-self.sigtilde(n, s, t) * self.tau(n - 1, s, t),
                             self.sigtilde(n - 1, s, t) * self.tau(n, s, t),
                             "a_%d" % n)

    @derived
    def coeff_b(self, n, s, t):
        with self.wp():
            return self.psub(n + 1, s, t) - self.psub(n, s, t)

    @derived
    def coeff_c(self, n, s, t):
        if n == 0:
            return self.zero()
        with self.wp():
            return self._div(self.tau(n - 1, s, t) * self.tau(n + 1, s, t),
                             self.tau(n, s, t) ** 2, "c_%d" % n)

    @derived
    def coeff_beta(self, n, s, t):
        with self.wp():
            return self._div(self.xi(n + 1, s, t) * self.tau(n, s, t),
                             self.tau(n + 1, s, t) * self.xi(n, s, t),
                             "beta_%d" % n)

    @derived
    def coeff_alpha(self, n, s, t):
        """alpha_n = xi_{n+1} tau_{n-1}^{s+1} / (xi_n tau_n^{s+1})."""
        if n == 0:
            return self.zero()
        with self.wp():
            return self._div(self.xi(n + 1, s, t) * self.tau(n - 1, s + 1, t),
                             self.xi(n, s, t) * self.tau(n, s + 1, t),
                             "alpha_%d" % n)

    def _phi_all_zero(self, s, t):
        tb = self._table(t)
        vec = tb.phi_by_t.get(t)
        if vec is None:
            return False
        return all(v == 0 for v in vec[s - self.s0:])

    @derived
    def coeff_d(self, n, s, t):
        return self._sigma_ratio("d", n, s, t, 1)

    @derived
    def coeff_e(self, n, s, t):
        return self._sigma_ratio("e", n, s, t, 0)

    def _sigma_ratio(self, name, n, s, t, dt):
        # d_n (dt = 1) and e_n (dt = 0): -sigma_n tau_{n-1}^{t+dt} /
        # (sigma_{n-1} tau_n^{t+dt}), 0 when phi vanishes from s on; d_0 and
        # e_0 are 0, like a_0 and c_0
        if n == 0:
            return self.zero()
        with self.wp():
            num = -self.sigma(n, s, t) * self.tau(n - 1, s, t + dt)
            den = self.sigma(n - 1, s, t) * self.tau(n, s, t + dt)
            if den == 0 and self._phi_all_zero(s, t):
                return self.zero()
            return self._div(num, den, "%s_%d" % (name, n))

    @derived
    def coeff_f(self, n, s, t):
        with self.wp():
            return self.coeff_beta(n, s, t) - self.coeff_alpha(n, s, t)

    @derived
    def coeff_g(self, n, s, t):
        with self.wp():
            return self.coeff_d(n, s, t) - self.coeff_e(n, s, t)

    @derived
    def coeff_chat(self, n, s, t):
        """chat_n = c_n - 2 a_n b_{n-1}, the corrected bilinear combination."""
        if n == 0:
            return self.zero()
        with self.wp():
            return (self.coeff_c(n, s, t)
                    - 2 * self.coeff_a(n, s, t) * self.coeff_b(n - 1, s, t))


# ---- Module-level operation wrappers ----

def eval_det(ctx, family, n, s, t):
    """Evaluate one family of FAMILY_SPECS at (n, s, t) with its edge values."""
    spec = FAMILY_SPECS.get(family)
    if spec is None:
        raise ValueError("unknown family %r (one of %s)"
                         % (family, ", ".join(FAMILY_SPECS)))
    return getattr(ctx, spec.method)(n, s, t)

