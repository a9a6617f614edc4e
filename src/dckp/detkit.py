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
scales each frame row to integers once, by the lcm of its denominators, and
then divides each column outside the I block by its content, the gcd of its
entries (the rank-one t-steps leave common factors in the columns).  After k
Bareiss steps the entry a^{(k)}_{ij} (i >= k) is the minor of these integers
on rows and columns 0..k-1 plus row i and column j (Sylvester's identity;
Bareiss, Math. Comp. 22, 1968); the value of that minor of m is a^{(k)}_{ij}
times the contents of its columns over the scales of its rows.  So tau_n is
the pivot a^{(n-1)}_{n-1,n-1}, tautilde_n the entry a^{(n-1)}_{n,n-1} below
it, sigma_n (psi, sigtilde, sigma_row alike) the border entry
a^{(n)}_{n,phi}, and Praw_n (Qraw_n alike) row n of the I block after n
steps: a^{(n)}_{n,e_k} is the Laplace cofactor of x^k.  Rraw_n, whose minor
holds two border columns, phi and e_k, in the frame's order, is one 2 x 2
Sylvester step on rows n-1, n and those columns after n-1 steps, divided by
tau_{n-1}.  An exact scalar is memoized as a canonical Fraction.  An exact
cofactor vector is memoized as one pair (numerators, denominator) with no
common factor, its coefficients a_k / den: the identity zero tests read
the pair through `_family`, and Praw, Qraw and Rraw return the Fractions.

Float mode eliminates in Schur-complement form on integers.  Each frame row
is Python ints times one power of two of its own, 2^e_i, with W = working
precision + GUARD_BITS bits at the row's largest entry; a step computes
f = round(2^W a_ik / p_k) and a_ij -= round(f a_kj / 2^W), and a row that
cancellation leaves more than SLACK_BITS below W is shifted left, exactly.
After k steps the entry S^{(k)}_{ij} = a_ij 2^e_i times prev, the product of
the k pivots so far, is that same minor.  So tau_{k+1} = prev S_{k,k},
tautilde_{k+1} = prev S_{k+1,k}, a border family prev S_{k,phi}, a cofactor
row prev S_{k,I}, and Rraw_{k+1} = prev (S_{k,phi} S_{k+1,e} - S_{k+1,phi}
S_{k,e}), whose cross products are exact integers at exponent e_k + e_{k+1}.
Each value is rounded to the working precision once, as prev (v 2^e), and
prev once per step.  No pivoting is needed on these frames: with a positive
weight the Cauchy-kernel bimoment matrix is totally positive (Bertola,
Gekhtman & Szmigielski, J. Approx. Theory 162, 2010), where elimination
without pivoting is backward stable (de Boor & Pinkus, Linear Algebra Appl.
17, 1977).

A context is built with `orders`, the highest family orders its caller
reads: a dict gives each family's own (a family left out is never read
above its edge values), an int o every family's, o + 1 for the pivot
families tau, xi and tauhat.  A family's sweeps memoize it up to that
order, its reach.  Order n of a pivot family is read from frame rows
0..n-1, of any other family from rows 0..n, and each sweep takes the frame
rows the reaches of its families need (fewer where the table ends): a
catalog verify at n = 14 sweeps the tau and P frames on 16 rows, the xi, Q
and sigma_row frames on 15 and tauhat's on 14.  By Sylvester's identity an
entry after k steps depends only on rows 0..k-1, i and columns 0..k-1, j,
so the rows and columns left out change no value that is read, in either
mode; the orders above the bound are the costliest ones, with the most
steps and, in exact mode, the largest integers.

The float sweep checks each pivot before it divides by it.  Pivot k fails
unless it exceeds 10^-(dps - WORKING_MARGIN), that is 10^-precision, times
|its row's original diagonal entry|: at dps digits a Schur complement carries
a rounding error of about 10^-dps of its row's scale, so a pivot within
WORKING_MARGIN digits of that level has no digit the margin can vouch for.  A
zero or negative pivot fails too: the float path never proves a determinant
zero, and on a totally positive frame every pivot is positive, so every swept
tau, xi and tauhat is.  At a failed pivot the sweep keeps the values of that
step that do not use it (all but the pivot family's next order) and stops.

A read the sweeps do not reach raises ExtentError past the table's extent
(the literal minor's rows do not exist); above its family's reach, a
ValueError naming it, so a bound set too tight fails loudly rather than as
a skipped site; past a failed float pivot, DegeneracyError naming the
family, (n, s, t) and the pivot.  Past a zero divisor tau_k of the exact
sweep it is det_exact of the literal minor.

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
from math import gcd

import mpmath as mp
from mpmath import libmp

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

# Bits a float frame row carries below a working ulp of its largest entry.
# A Schur step rounds each entry to 2^-GUARD_BITS of that ulp, so the
# elimination's own rounding stays about 19 digits below the working
# precision until cancellation has taken those digits, and each value the
# sweep yields is rounded to the working precision once.  (With mpf steps,
# each rounded at the working precision, the jacobi frame values at 120
# digits, n <= 9, came out some 19 digits short of it.)
GUARD_BITS = 64
# The bits a row may lose to cancellation before it is renormalized: the
# largest live entry of a row keeps at least working precision +
# GUARD_BITS - SLACK_BITS bits.
SLACK_BITS = 32


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


def _divide_content(M, width):
    """Divide each of the first `width` columns of the integer rows M by its
    content, the gcd of its entries (1 for a zero column), in place.  Returns
    the contents."""
    contents = []
    for j in range(width):
        c = gcd(*[r[j] for r in M]) or 1
        if c > 1:
            for r in M:
                r[j] //= c
        contents.append(c)
    return contents


def _pair(nums, num, den):
    """The integers nums times num / den (num, den > 0) as one gcd-reduced
    pair (numerators, denominator)."""
    c = gcd(num, den)
    num, den = num // c, den // c
    c = gcd(den, *nums)
    return tuple(v // c * num for v in nums), den // c


def _fixed(values, bits):
    """mpf values (or ints) as (integers, e), each value its integer times
    2^e rounded to nearest, with e set so that the largest has `bits` bits."""
    parts = [v._mpf_ if isinstance(v, mp.mpf) else libmp.from_int(v)
             for v in values]
    e = max((exp + bc for _, man, exp, bc in parts if man), default=bits) - bits
    ints = []
    for sign, man, exp, _ in parts:
        sh = exp - e
        v = man << sh if sh >= 0 else (man + (1 << (-sh - 1))) >> -sh
        ints.append(-v if sign else v)
    return ints, e


def _scaled(prev, v, e):
    """prev (v 2^e), rounded once to the ambient precision."""
    return mp.make_mpf(libmp.mpf_mul(prev._mpf_, libmp.from_man_exp(v, e),
                                     mp.mp.prec, libmp.round_nearest))


def _schur_steps(M, ex, C):
    """_bareiss_steps for float rows in Schur-complement form on integers:
    frame row i is the integers M[i] times 2^ex[i], and has
    W = ambient precision + GUARD_BITS bits at its largest entry.

    A step computes f = round(2^W a_ik / p_k) and a_ij -= round(f a_kj / 2^W);
    a_ik and a_ij share row i's exponent, and a_kj / p_k row k's, so no
    exponent enters.  A row whose live entries (columns k+1 on) fall more
    than SLACK_BITS below W is shifted left to W bits, exactly, and its
    exponent lowered; the columns left of them are never read again and are
    not shifted.  prev is the product of the pivots so far, rounded once per
    step, and prev * M[i][j] 2^ex[i] the minor _bareiss_steps has in M[i][j].
    Step k runs only when the caller asks for the next value, so a caller
    that stops at a failed pivot M[k][k] never divides by it."""
    W = mp.mp.prec + GUARD_BITS
    half = 1 << (W - 1)
    prev = mp.mpf(1)
    for k in range(len(M)):
        yield k, prev
        if k >= C or k + 1 >= len(M):
            return
        rk = M[k]
        pk = rk[k]
        width = len(rk)
        tail = rk[k + 1:]
        for i in range(k + 1, len(M)):
            row = M[i]
            f = ((row[k] << (W + 1)) + pk) // (2 * pk)
            live = ([a - ((f * b + half) >> W)
                     for a, b in zip(row[k + 1:width], tail)]
                    + row[width:])
            top = max(map(int.bit_length, live), default=0)
            if 0 < top < W - SLACK_BITS:
                live = [a << (W - top) for a in live]
                ex[i] -= W - top
            M[i] = row[:k + 1] + live
        prev = _scaled(prev, pk, ex[k])


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


def _values(v):
    """A memoized family value as its public one: an exact cofactor vector,
    memoized as a pair (numerators, denominator), as a list of Fractions."""
    if isinstance(v, tuple):
        nums, den = v
        return [Fraction(a, den) for a in nums]
    return v


def _family_method(family, doc=None):
    """A DetContext method delegating to the memoized family evaluator."""
    def method(self, n, s, t):
        return _values(self._family(family, n, s, t))
    method.__name__ = FAMILY_SPECS[family].method
    method.__doc__ = doc
    return method


class DetContext:
    """Family evaluators at absolute (n, s, t) over one base moment table.

    t moves through rank-one evolved copies of the base table, s through index
    shifts inside each copy.  All determinants are memoized in `memo`; one
    sweep per frame and (s, t) fills it up to `orders`, the highest family
    orders the caller reads, an int or a dict by family (see the module
    doc).  Values derived from the families (recurrence coefficients, monic
    polynomials, Lax operators) are memoized apart, in `derived`, so `memo`
    holds families only.
    """

    def __init__(self, base_table, orders):
        self.base = base_table
        self.orders = orders
        # family -> the highest order its sweeps memoize
        self.reach = {f: (orders + (spec.skip == 0) if isinstance(orders, int)
                          else orders.get(f, -1))
                      for f, spec in FAMILY_SPECS.items()}
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
        reaches, each family up to self.reach, from frame rows 0..r-1 inside
        the table, r the most rows a family's reach needs: order n of a
        pivot family, tau, xi or tauhat, is read from rows 0..n-1, of any
        other family from rows 0..n.  Returns the float pivot that stopped
        it, as (step, pivot, floor), or None.
        Only the integer rows, the elimination, the value of a swept entry
        and the pivot check depend on the mode: exact rows are numerators
        over a denominator per row, with each column's content divided out,
        float rows ints times a power of two per row; an exact entry is a
        minor times the contents of its columns over the scales of its rows,
        a float one a Schur complement entry times prev, the product of the
        pivots, and only a float pivot is checked against its floor."""
        col, row, poly = frame
        names, borders = _FRAMES[frame]
        specs = [(name, FAMILY_SPECS[name], self.reach[name])
                 for name in names]
        for name, spec, _ in specs:
            empty = -1 + (spec.skip is not None)    # the order of a 0 x 0 minor
            if empty >= spec.start:
                self.memo[(name, empty, s, t)] = (
                    self.one() if not poly else ((), 1) if self.exact else [])
        ds = s - self.s0
        tb = self.tables.get(t)
        if tb is None or ds < 0:
            return
        top = ds + row                  # table row of frame row 0
        need = max(reach + (spec.skip != 0) for _, spec, reach in specs)
        R = max(0, min(tb.K - top, need))       # frame rows
        C = max(0, min(tb.K - ds - col, R))    # bimoment columns
        vecs, at = [], {}               # border -> (frame column, rows it has)
        for b in borders:
            vec = tb.phi_by_t.get(t) if b == "phi" else tb.single
            if vec is not None:
                at[b] = (C + len(vecs), min(len(vec) - top, R))
                vecs.append(vec)
        ident = C + len(vecs)           # first column of the I block
        if self.exact:
            convert = _integers
        else:
            convert = functools.partial(_fixed, bits=mp.mp.prec + GUARD_BITS)
            # pivot k must exceed 10^-precision of its row's diagonal entry
            eps = mp.mpf(10) ** (WORKING_MARGIN - self.dps)
            floors = []
        M, d = [], []       # integer rows; each row's denominator (exact)
        for i in range(R):  # or exponent of two (float)
            r = top + i
            cells = ([tb.m(r, ds + col + j) for j in range(C)]
                     + [v[r] if r < len(v) else 0 for v in vecs])
            if not self.exact and i < C:
                floors.append(eps * abs(cells[i]))
            ints, di = convert(cells + [1] if poly else cells)
            if poly:
                ints[-1:-1] = [0] * i   # I block up to its diagonal, the 1
            M.append(ints)
            d.append(di)
        if self.exact:
            # each column's content, then the I block's first column's, 1
            g = _divide_content(M, ident) + [1]
            G = [1]                     # G[k]: the contents of columns 0..k-1
            for gj in g[:C]:
                G.append(G[-1] * gj)
            scale = [1]                 # scale[k]: the scales of rows 0..k-1
            for di in d:
                scale.append(scale[-1] * di)

            def den(k, rows):
                # the scales of rows 0..k-1 and `rows`, which are either rows
                # k, k+1, .. or one row
                return (scale[k + len(rows)] if rows[0] == k
                        else scale[k] * d[rows[0]])

            def value(v, prev, k, rows, j):
                # v a minor on rows 0..k-1 plus `rows` and columns 0..k-1
                # plus j (and an I block column)
                return Fraction(v * G[k] * g[j], den(k, rows))

            def vector(vs, prev, k, rows, j):
                return _pair(vs, G[k] * g[j], den(k, rows))
            steps = _bareiss_steps(M, C)
        else:
            def value(v, prev, k, rows, j):
                # a product of entries of `rows` times prev
                return _scaled(prev, v, sum(d[r] for r in rows))

            def vector(vs, prev, k, rows, j):
                return [value(v, prev, k, rows, j) for v in vs]
            steps = _schur_steps(M, d, C)
        memo = self.memo
        for k, prev in steps:
            rk = M[k]
            pivot = (None if self.exact or k >= C
                     else mp.make_mpf(libmp.from_man_exp(rk[k], d[k])))
            trusted = pivot is None or pivot > floors[k]
            for name, spec, reach in specs:
                if spec.skip is not None:
                    # tau_{k+1} = a^{(k)}_{k,k}, the pivot (kept only if it
                    # passes), and tautilde_{k+1} = a^{(k)}_{k+1,k}
                    i = k + spec.skip
                    if k < min(C, reach) and i < R and (trusted or spec.skip):
                        memo[(name, k + 1, s, t)] = value(M[i][k], prev, k,
                                                          (i,), k)
                elif not poly:
                    c, rows = at.get(spec.border, (None, 0))
                    if k < rows and k <= reach:
                        memo[(name, k, s, t)] = value(rk[c], prev, k, (k,), c)
                elif spec.border is None:
                    if k <= reach:
                        memo[(name, k, s, t)] = vector(rk[ident:], prev, k,
                                                       (k,), ident)
                else:
                    # Rraw_{k+1}: 2 x 2 Sylvester step on rows k, k+1 and
                    # columns phi, e_j; an exact entry is a minor, so the
                    # step divides by tau_k
                    c, rows = at.get(spec.border, (None, 0))
                    if k + 1 < rows and k < reach and prev != 0:
                        nxt = M[k + 1]
                        p, q = rk[c], nxt[c]
                        cross = [p * b - q * a
                                 for a, b in zip(rk[ident:] + [0], nxt[ident:])]
                        if self.exact:
                            cross = [x // prev for x in cross]
                        memo[(name, k + 1, s, t)] = vector(cross, prev, k,
                                                           (k, k + 1), c)
            if not trusted:
                return k, pivot, floors[k]

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
        reach = self.reach[family]
        if n > reach:
            raise ValueError("%s_%d^{%d,%d} is above the sweep bound of its "
                             "context, which reaches %s to order %d"
                             % (family, n, s, t, family, reach))
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
        ints, den = _integers([v if (k + n) % 2 == 0 else -v
                               for k, v in enumerate(minors)])
        return _pair(ints, 1, den)

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

