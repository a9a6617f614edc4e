"""Determinant kernel and the bordered-determinant families built on a moment
table: one no-pivot elimination per frame (fraction-free Bareiss for exact
entries, Schur complements for floats, whose pivots it checks), exact
determinants of single minors as the fallback, and one memoized evaluator for
every family, read by `eval_det` under its name in FAMILY_SPECS

  tau_n         = det(m_{ij})                     n x n
  xi_n          = det(m_{i,j+1})
  tau_hat_n     = det(m_{i,j+2})
  sigma_n       = det[m cols 0..n-1 | phi_i]      (n+1) x (n+1)
  psi_n         = det[m cols 1..n   | phi_i]
  sigma_row_n   = det[m_{i+1,j} cols 0..n-1 | phi_{i+1}]
  sigma_tilde_n = det[m cols 0..n-1 | u_i]
  tau_tilde_n   = det(m rows 0..n-2,n, cols 0..n-1)
  P_n           = det[m cols 0..n-1 | x^i]         (n+1) x (n+1), rows 0..n,
  Q_n           = det[m cols 1..n   | x^i]         as the coefficient vector
  R_n           = det[m cols 0..n-2 | phi_i | x^i] of x^0..x^n (cofactors)

P, Q and R are the raw cofactor vectors; polyfam divides each by its x^n
coefficient for the monic polynomial.  Each family is a minor of one
frame, rows 0..n of the moment matrix, with its border columns after the
m columns: FAMILY_SPECS gives the row and column offsets, the border
vector, the frame row left out and the edges.

Both modes read every family from one elimination per frame and (s, t),
without pivoting.  The frames come from FAMILY_SPECS: families sharing a
column offset, a row offset and scalar-or-polynomial share one, with their
border columns appended after the bimoment columns,

  [m cols 0.. | phi | u]   tau, sigma, sigma_tilde, tau_tilde
  [m cols 1.. | phi]       xi, psi
  [m cols 2..]             tau_hat
  [m rows 1.. | phi]       sigma_row
  [m cols 0.. | phi | I]   P, R    (swept only when asked for)
  [m cols 1.. | I]         Q

where I is the identity block, one column e_k per frame row.  Exact mode
scales each frame row to integers once, by the lcm of its denominators, and
then divides each column outside the I block by its content, the gcd of its
entries (the rank-one t-steps leave common factors in the columns).  After k
Bareiss steps the entry a^{(k)}_{ij} (i >= k) is the minor of these integers
on rows and columns 0..k-1 plus row i and column j (Sylvester's identity;
Bareiss, Math. Comp. 22, 1968); the value of that minor of m is a^{(k)}_{ij}
times the contents of its columns over the scales of its rows.  So tau_n is
the pivot a^{(n-1)}_{n-1,n-1}, tau_tilde_n the entry a^{(n-1)}_{n,n-1} below
it, sigma_n (psi, sigma_tilde, sigma_row alike) the border entry
a^{(n)}_{n,phi}, and P_n (Q_n alike) row n of the I block after n
steps: a^{(n)}_{n,e_k} is the Laplace cofactor of x^k.  R_n, whose minor
holds two border columns, phi and e_k, in the frame's order, is one 2 x 2
Sylvester step on rows n-1, n and those columns after n-1 steps, divided by
tau_{n-1}.  An exact scalar is memoized as a canonical Fraction.  An exact
cofactor vector is memoized as one pair (numerators, denominator) with no
common factor, its coefficients a_k / den: the identity zero tests read
the pair through `_family`, and `eval_det` returns the Fractions.

Float mode eliminates in Schur-complement form on integers.  Each frame row
is Python ints times one power of two of its own, 2^e_i, with W = working
precision + GUARD_BITS bits at the row's largest entry; a step computes
f = round(2^W a_ik / p_k) and a_ij -= round(f a_kj / 2^W), and a row that
cancellation leaves more than SLACK_BITS below W is shifted left, exactly.
After k steps the entry S^{(k)}_{ij} = a_ij 2^e_i times prev, the product of
the k pivots so far, is that same minor.  So tau_{k+1} = prev S_{k,k},
tau_tilde_{k+1} = prev S_{k+1,k}, a border family prev S_{k,phi}, a cofactor
row prev S_{k,I}, and R_{k+1} = prev (S_{k,phi} S_{k+1,e} - S_{k+1,phi}
S_{k,e}), whose cross products are exact integers at exponent e_k + e_{k+1}.
Each value is rounded to the working precision once, as prev (v 2^e), and
prev once per step; prev stays an integer and an exponent, and each pivot
is compared with its floor exactly on integers, so a step makes no mpf.
No pivoting is needed on these frames: with a positive
weight the Cauchy-kernel bimoment matrix is totally positive (Bertola,
Gekhtman & Szmigielski, J. Approx. Theory 162, 2010), where elimination
without pivoting is backward stable (de Boor & Pinkus, Linear Algebra Appl.
17, 1977).

A context is built with `orders`, the highest family orders its caller
reads: a dict maps (family, s, t) to the highest order read at that site
(a family left out at a site is never read there above its edge values;
`orders_read` derives it from what the caller evaluates), an int o gives
every family o at every site, o + 1 for the pivot families tau, xi and
tau_hat.  The sweep at (s, t) memoizes each family up to that order, its
reach there.  Order n of a pivot family is read from frame rows 0..n-1
and bimoment columns 0..n-1, of any other family from rows 0..n and
columns 0..n-1, but R_n, whose phi column stands in for column n-1, from
columns 0..n-2.  So each sweep takes only the frame rows and bimoment
columns the reaches of its families need at its site (fewer where the
table ends), and only the border columns of families read there above
their edge values: a frame read only at edge values eliminates nothing.
By Sylvester's identity an entry after k steps depends only on rows
0..k-1, i and columns 0..k-1, j, so the rows and columns left out change
no value that is read; the orders above the bound are the costliest
ones, with the most steps and, in exact mode, the largest integers.

The float sweep checks each pivot before it divides by it.  Pivot k fails
unless it exceeds 10^-(dps - WORKING_MARGIN), that is 10^-precision, times
|its row's original diagonal entry|: at dps digits a Schur complement carries
a rounding error of about 10^-dps of its row's scale, so a pivot within
WORKING_MARGIN digits of that level has no digit the margin can vouch for.  A
zero or negative pivot fails too: the float path never proves a determinant
zero, and on a totally positive frame every pivot is positive, so every swept
tau, xi and tau_hat is.  At a failed pivot the sweep keeps the values of that
step that do not use it (all but the pivot family's next order) and stops.

A read the sweeps do not reach raises ExtentError past the table's extent
(the literal minor's rows do not exist); above its family's reach at its
site, a ValueError naming it, the site and that reach, so a bound set too
tight fails loudly rather than as a skipped site; past a failed float
pivot, DegeneracyError naming the family, (n, s, t) and the pivot.  Past a
zero divisor tau_k of the exact sweep it is det_exact of the literal
minor.

Edge conventions: tau_0 = xi_0 = tau_hat_0 = 1 and sigma_tilde_{-1} = 1
(empty determinants); P_{-1} = Q_{-1} = [] (the zero polynomial); tau_{-1}
= xi_{-1} = 0; sigma_{-1} = psi_{-1} = 0; tau_tilde_{n<=0} = 0; R needs
n >= 1.  Shifts in s reindex into the same table; shifts in t use the
rank-one evolved tables.

The recurrence coefficients are ratios of these determinants: COEFFICIENTS
gives each as a numerator stencil (signed products of reads at shifts of
(n, s, t), parsed by `stencil` like the catalog's identities and lax's
equations and operators), a denominator product and a lowest n, below which
it is 0.  One memoized `DetContext.coeff` reads them all through
`DetContext.terms`, the signed products of `DetContext.factors`, which reads
every stencil.  `stencil_reads` derives the family reads a stencil makes
from the same tables, and `orders_read` a context's `orders` from the
stencils its caller evaluates, each evaluation up to its first read of a
family whose border the table does not carry at that t (`carries`), where
it raises ExtentError: the one rule for a missing border, so every bound is
derived, verify's, lax's and the lattice's.

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

from .numerics import DegeneracyError, ExtentError, _integers

# ---- Family table ----

@dataclass(frozen=True)
class Family:
    """A family as a minor of the frame rows 0..n of m (see the module doc)."""
    col: int = 0                # column offset into m
    row: int = 0                # row offset of the frame
    border: str = None          # "phi" or "u": a column after the m columns
    skip: int = None            # scalar family: frame row n - skip left out
    lead: tuple = None          # polynomial family: (family, order shift) of
                                # its x^n cofactor
    start: int = 0              # lowest n from the frame (tau_0 = det() = 1);
    error: str = None           # below it 0, or ExtentError(error)


FAMILY_SPECS = {
    "tau": Family(skip=0),
    "xi": Family(col=1, skip=0),
    "tau_hat": Family(col=2, skip=0),
    "sigma": Family(border="phi"),
    "psi": Family(col=1, border="phi"),
    "sigma_row": Family(row=1, border="phi"),
    "sigma_tilde": Family(border="u", start=-1),
    "tau_tilde": Family(skip=1, start=1),
    "P": Family(lead=("tau", 0), start=-1, error="polynomial order below -1"),
    "Q": Family(col=1, lead=("xi", 0), start=-1,
                error="polynomial order below -1"),
    "R": Family(border="phi", lead=("sigma", -1), start=1,
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


def carries(table, family, t):
    """Whether the t-evolved tables of `table` carry the border of `family`
    at t: a family without one always, one with phi or u where the table
    has that vector at t.  A read of a family above its edge values where
    it is not carried raises ExtentError."""
    border = FAMILY_SPECS[family].border
    return border is None or t in (table.phi_by_t if border == "phi"
                                   else table.single_by_t)


# ---- Stencils ----

@functools.lru_cache(maxsize=None)
def stencil(text):
    """Signed products from text such as "+ tau[n+1] xi[n-1,s+1] - 2 a b[n-1]",
    parsed once per text as (sign, factors).  A factor is an integer
    constant, a parenthesised group "( + g - alpha )", itself a stencil, or
    a read, which names a family, a coefficient of COEFFICIENTS or x, and
    its shifts of (n, s, t): tau[n-1,s+1] is tau_{n-1}^{s+1,t}, a bare xi is
    xi_n^{s,t}.  The read x multiplies a catalog product's P, Q or R vector
    by x."""
    def products(tokens):               # up to the ")" closing a group
        out = []
        for token in tokens:
            if token == ")":
                break
            if token in ("+", "-"):
                out.append((1 if token == "+" else -1, []))
            elif token == "(":
                out[-1][1].append(products(tokens))
            elif token.isdigit():
                out[-1][1].append(int(token))
            else:
                name, _, shifts = token.rstrip("]").partition("[")
                d = [0, 0, 0]
                for shift in filter(None, shifts.split(",")):
                    d["nst".index(shift[0])] = int(shift[1:])
                out[-1][1].append((name, *d))
        return tuple((sign, tuple(factors)) for sign, factors in out)
    return products(iter(text.split()))


# Each coefficient's numerator, its denominator (None for a combination of
# coefficients) and its lowest n: the squared norm h_n, the subleading p_n
# of P_n, the recurrence's a, b, c, the s-step's beta, alpha, the t-step's
# d, e, then f = beta - alpha, g = d - e and the corrected chat.
COEFFICIENTS = {
    "h": ("+ tau[n+1]", "tau", 0),
    "p": ("- tau_tilde", "tau", 0),
    "a": ("- sigma_tilde tau[n-1]", "sigma_tilde[n-1] tau", 1),
    "b": ("+ p[n+1] - p", None, 0),
    "c": ("+ tau[n-1] tau[n+1]", "tau tau", 1),
    "beta": ("+ xi[n+1] tau", "tau[n+1] xi", 0),
    "alpha": ("+ xi[n+1] tau[n-1,s+1]", "xi tau[s+1]", 1),
    "d": ("- sigma tau[n-1,t+1]", "sigma[n-1] tau[t+1]", 1),
    "e": ("- sigma tau[n-1]", "sigma[n-1] tau", 1),
    "f": ("+ beta - alpha", None, 0),
    "g": ("+ d - e", None, 0),
    "chat": ("+ c - 2 a b[n-1]", None, 1),
}


def stencil_reads(products, n, s, t, memo=None):
    """The family reads (family, n, s, t) that evaluating the stencil
    `products` at (n, s, t) makes, in the order it makes them: a
    coefficient reads those of its numerator and then of its denominator,
    and none below its lowest n; a constant and x read none.  A dict
    `memo` keeps each coefficient's reads by (name, n, s, t) across calls."""
    memo = {} if memo is None else memo
    reads = []
    for _, factors in products:
        for f in factors:
            if isinstance(f, int):
                continue
            if not isinstance(f[0], str):
                reads += stencil_reads(f, n, s, t, memo)
                continue
            name, dn, ds, dt = f
            at = (n + dn, s + ds, t + dt)
            if name in COEFFICIENTS:
                key = (name, *at)
                if key not in memo:
                    num, den, low = COEFFICIENTS[name]
                    memo[key] = [] if at[0] < low else stencil_reads(
                        stencil(num + " + " + den if den else num), *at, memo)
                reads += memo[key]
            elif name != "x":
                reads.append((name, *at))
    return reads


def orders_read(evaluations, table):
    """A DetContext's `orders` on `table`: the highest order of each family
    read at each (s, t) by `evaluations`.  An evaluation is the sequence of
    (stencil products, n, s, t) its caller reads, in its caller's order; it
    stops at its first read of a family that `table` does not carry at
    that t, where evaluating it raises ExtentError."""
    memo, orders = {}, {}
    carried = functools.cache(functools.partial(carries, table))
    for evaluation in evaluations:
        reads = [read for products, n, s, t in evaluation
                 for read in stencil_reads(products, n, s, t, memo)]
        for family, n, s, t in reads:
            if not carried(family, t):
                break
            key = (family, s, t)
            if n > orders.get(key, n - 1):
                orders[key] = n
    return orders


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
    """Determinant of a square Fraction matrix by integer Bareiss elimination
    (`_bareiss_steps`), swapping in a row below with a nonzero pivot where
    one is zero."""
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
    for k, _ in _bareiss_steps(M, n):
        if M[k][k] == 0:
            r = next((r for r in range(k + 1, n) if M[r][k] != 0), None)
            if r is None:
                return Fraction(0)
            M[k], M[r] = M[r], M[k]
            sign = -sign
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
    """prev (v 2^e), prev a pair (integer, exponent), rounded once to the
    ambient precision, as an mpf tuple."""
    return libmp.from_man_exp(prev[0] * v, prev[1] + e, mp.mp.prec,
                              libmp.round_nearest)


def _above(v, e, floor):
    """Whether v 2^e exceeds `floor`, a nonnegative mpf, compared exactly on
    integers.  No value exceeds a NaN floor."""
    _, m, fe, _ = floor._mpf_
    if not m:
        return v > 0 and not fe
    d = e - fe
    return (v << d if d >= 0 else v) > (m if d >= 0 else m << -d)


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
    step, as a pair (integer, exponent), and prev * M[i][j] 2^ex[i] the minor
    _bareiss_steps has in M[i][j].
    Step k runs only when the caller asks for the next value, so a caller
    that stops at a failed pivot M[k][k] never divides by it."""
    W = mp.mp.prec + GUARD_BITS
    half = 1 << (W - 1)
    prev = (1, 0)
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
        sign, man, exp, _ = _scaled(prev, pk, ex[k])
        prev = (-man if sign else man, exp)


# ---- Context over a stack of t-evolved tables ----

def derived(fn):
    """fn(ctx, *args), a value built from ctx's families under ctx.wp(), the
    context's working precision, and memoized per context in ctx.derived
    under (fn's name, *args).  A call that raises stores nothing, so a
    repeated call raises again.  Callers must not mutate a value they are
    given."""
    name = fn.__qualname__

    @functools.wraps(fn)
    def cached(ctx, *args):
        key = (name,) + args
        v = ctx.derived.get(key)
        if v is None:
            with ctx.wp():
                v = ctx.derived[key] = fn(ctx, *args)
        return v
    return cached


def _product(factors):
    """The product of `factors`, multiplied left to right."""
    prod = factors[0]
    for f in factors[1:]:
        prod = prod * f
    return prod


class DetContext:
    """The families at absolute (n, s, t) over one base moment table, read
    through `eval_det` (or `_family`, the memo's own value).

    t moves through rank-one evolved copies of the base table, s through index
    shifts inside each copy.  All determinants are memoized in `memo`; one
    sweep per frame and (s, t) fills it up to `orders`, the highest family
    orders the caller reads, an int or a dict by (family, s, t) (see the
    module doc).  Values derived from the families (recurrence
    coefficients, monic polynomials, Lax operators) are memoized apart, in
    `derived`, so `memo` holds families only.
    """

    def __init__(self, base_table, orders):
        self.base = base_table
        self.orders = orders
        self.exact = base_table.exact
        self.dps = None if self.exact else base_table.policy.working_dps
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

    # -- determinant families: one memoized evaluator over FAMILY_SPECS --

    def _reach(self, family, s, t):
        """The highest order of `family` the sweep at (s, t) memoizes."""
        if isinstance(self.orders, int):
            return self.orders + (FAMILY_SPECS[family].skip == 0)
        return self.orders.get((family, s, t), -1)

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
        reaches, each family up to its reach there, from the frame rows,
        bimoment columns and border columns those reaches need inside the
        table (see the module doc).  Returns the float pivot that stopped
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
        specs = [(name, FAMILY_SPECS[name], self._reach(name, s, t))
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
        # the families read here above their edge values: order n needs
        # frame rows 0..n-1 (pivot family) or 0..n, and bimoment columns
        # 0..n-1, 0..n-2 for R
        read = [(spec, reach) for _, spec, reach in specs
                if reach >= max(spec.start, spec.skip is not None)]
        rows = max([0] + [reach + (spec.skip != 0) for spec, reach in read])
        cols = max([0] + [reach - (poly and spec.border is not None)
                          for spec, reach in read])
        top = ds + row                  # table row of frame row 0
        R = max(0, min(tb.K - top, rows))           # frame rows
        C = max(0, min(tb.K - ds - col, R, cols))   # bimoment columns
        vecs, at = [], {}               # border -> (frame column, rows it has)
        for b in borders:
            vec = tb.phi_by_t.get(t) if b == "phi" else tb.single
            if vec is not None and any(spec.border == b for spec, _ in read):
                at[b] = (C + len(vecs), min(len(vec) - top, R))
                vecs.append(vec)
        ident = C + len(vecs)           # first column of the I block
        if self.exact:
            convert = _integers
        else:
            convert = functools.partial(_fixed, bits=mp.mp.prec + GUARD_BITS)
            # pivot k must exceed 10^-precision of its row's diagonal entry
            eps = mp.mpf(10) ** -self.base.precision_digits
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
                return mp.make_mpf(_scaled(prev, v, sum(d[r] for r in rows)))

            def vector(vs, prev, k, rows, j):
                return [value(v, prev, k, rows, j) for v in vs]
            steps = _schur_steps(M, d, C)
        memo = self.memo
        for k, prev in steps:
            rk = M[k]
            trusted = self.exact or k >= C or _above(rk[k], d[k], floors[k])
            for name, spec, reach in specs:
                if spec.skip is not None:
                    # tau_{k+1} = a^{(k)}_{k,k}, the pivot (kept only if it
                    # passes), and tau_tilde_{k+1} = a^{(k)}_{k+1,k}
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
                    # R_{k+1}: 2 x 2 Sylvester step on rows k, k+1 and
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
                return (k, mp.make_mpf(libmp.from_man_exp(rk[k], d[k])),
                        floors[k])

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
        reach = self._reach(family, s, t)
        if n > reach:
            raise ValueError("%s_%d^{%d,%d} is above the sweep bound of its "
                             "context, which reaches %s to order %d at "
                             "(s, t) = (%d, %d)"
                             % (family, n, s, t, family, reach, s, t))
        if not self.exact:
            k, pivot, floor = stop
            raise DegeneracyError(
                "%s_%d^{%d,%d} lies past float pivot %d of its frame, %s, "
                "not above its floor %s (10^-%d of its diagonal entry)"
                % (family, n, s, t, k, mp.nstr(pivot, 5), mp.nstr(floor, 5),
                   self.base.precision_digits))
        if not poly:
            return det_exact(rows)
        # coeff of x^k = (-1)^{k+n} * minor over frame rows != k
        minors = [det_exact(rows[:k] + rows[k + 1:]) for k in range(n + 1)]
        ints, den = _integers([v if (k + n) % 2 == 0 else -v
                               for k, v in enumerate(minors)])
        return _pair(ints, 1, den)

    # -- stencils: the recurrence coefficients and their combinations --

    def wp(self):
        """Working-precision context for scalar arithmetic on family values."""
        return nullcontext() if self.exact else mp.workdps(self.dps)

    def _div(self, num, den, what):
        if den == 0:
            raise DegeneracyError("vanishing denominator in %s" % what)
        return num / den

    def factors(self, products, n, s, t):
        """The (sign, factor values) of a stencil's products at (n, s, t), in
        written order: a constant is itself, a group the sum of its own
        products in written order, and a family read its memoized value (an
        exact P, Q or R the memo's pair); x is skipped."""
        family = self._family
        out = []
        for sign, factors in products:
            values = []
            for f in factors:
                if isinstance(f, int):
                    values.append(f)
                elif not isinstance(f[0], str):
                    values.append(self._sum(f, n, s, t))
                elif f[0] != "x":
                    name, dn, ds, dt = f
                    read = self.coeff if name in COEFFICIENTS else family
                    values.append(read(name, n + dn, s + ds, t + dt))
            out.append((sign, values))
        return out

    def terms(self, products, n, s, t):
        """The values of a stencil's signed products at (n, s, t): factors
        multiplied left to right, the sign applied to the whole product."""
        return [_product(values) if sign > 0 else -_product(values)
                for sign, values in self.factors(products, n, s, t)]

    def _sum(self, products, n, s, t):
        values = self.terms(products, n, s, t)
        return sum(values[1:], values[0])

    @derived
    def coeff(self, name, n, s, t):
        """Coefficient `name` of COEFFICIENTS at (n, s, t).  A vanishing exact
        denominator raises DegeneracyError, but d and e, over sigma_{n-1},
        are 0 where phi vanishes from s on."""
        num, den, low = COEFFICIENTS[name]
        if n < low:
            return self.zero()
        v = self._sum(stencil(num), n, s, t)
        if den is None:
            return v
        d, = self.terms(stencil("+ " + den), n, s, t)
        if d == 0 and name in ("d", "e") and not any(
                self._table(t).phi_by_t[t][s - self.s0:]):   # read by sigma
            return self.zero()
        return self._div(v, d, "%s_%d" % ("norm h" if name == "h" else name, n))


# ---- Module-level operation wrappers ----

def eval_det(ctx, family, n, s, t):
    """Family `family` of FAMILY_SPECS at (n, s, t) with its edge values: a
    scalar, or a P, Q or R cofactor vector as its list of coefficients."""
    if family not in FAMILY_SPECS:
        raise ValueError("unknown family %r (one of %s)"
                         % (family, ", ".join(FAMILY_SPECS)))
    v = ctx._family(family, n, s, t)
    if isinstance(v, tuple):    # an exact vector, memoized as a pair
        nums, den = v
        return [Fraction(a, den) for a in nums]
    return v

