"""Determinant kernel and family evaluators: exact vs float agreement, edge
conventions, closed-form oracles, coefficient ratios."""

import collections
import dataclasses
import operator
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from dckp.numerics import (WORKING_MARGIN, DegeneracyError, ExtentError,
                           TolerancePolicy, digits_of_agreement)
from dckp import cli, detkit, identities, lattice, lax, moments

# ---- Determinant kernels ----

def _rand_matrix(rng, n):
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            for _ in range(n)]


def test_det_exact_known_values():
    assert detkit.det_exact([]) == 1
    assert detkit.det_exact([[Fraction(3, 2)]]) == Fraction(3, 2)
    M = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
    assert detkit.det_exact(M) == -2
    singular = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert detkit.det_exact(singular) == 0


def test_det_exact_desnanot_jacobi():
    """det(A) det(core) = det(A11) det(Ann) - det(A1n) det(An1) on random data."""
    rng = random.Random("dj:0")
    for _ in range(5):
        A = _rand_matrix(rng, 4)

        def minor(drop_rows, drop_cols):
            return detkit.det_exact(
                [[A[i][j] for j in range(4) if j not in drop_cols]
                 for i in range(4) if i not in drop_rows])

        lhs = detkit.det_exact(A) * minor({0, 3}, {0, 3})
        rhs = (minor({0}, {0}) * minor({3}, {3})
               - minor({0}, {3}) * minor({3}, {0}))
        assert lhs == rhs


def det_float(rows, dps):
    """Determinant of a square mpf matrix by LU with full pivoting: the
    oracle of the literal-matrix float checks.  An exactly zero full pivot
    raises DegeneracyError (the float path never proves a determinant zero).
    """
    n = len(rows)
    with mp.workdps(dps):
        if n == 0:
            return mp.mpf(1)
        M = [[mp.mpf(v) for v in r] for r in rows]
        det = mp.mpf(1)
        sign = 1
        for k in range(n):
            pi, pj, best = k, k, abs(M[k][k])
            for i in range(k, n):
                for j in range(k, n):
                    a = abs(M[i][j])
                    if a > best:
                        pi, pj, best = i, j, a
            if best == 0:
                raise DegeneracyError("singular pivot in float elimination")
            if pi != k:
                M[k], M[pi] = M[pi], M[k]
                sign = -sign
            if pj != k:
                for r in M:
                    r[k], r[pj] = r[pj], r[k]
                sign = -sign
            piv = M[k][k]
            det *= piv
            for i in range(k + 1, n):
                fct = M[i][k] / piv
                if fct == 0:
                    continue
                row = M[i]
                rk = M[k]
                for j in range(k + 1, n):
                    row[j] -= fct * rk[j]
        return sign * det


def test_det_float_matches_exact():
    rng = random.Random("detfloat:0")
    for trial in range(50):
        n = rng.randint(1, 5)
        A = _rand_matrix(rng, n)
        ex = detkit.det_exact(A)
        with mp.workdps(55):
            Af = [[mp.mpf(v.numerator) / v.denominator for v in row] for row in A]
        fl = det_float(Af, 40)
        with mp.workdps(40):
            if ex == 0:
                assert abs(fl) < mp.mpf(10) ** -25
            else:
                assert digits_of_agreement(fl, mp.mpf(ex.numerator) / ex.denominator) >= 25


def test_det_float_reports_exact_zero_pivot():
    with pytest.raises(DegeneracyError):
        det_float([[mp.mpf(0), mp.mpf(0)], [mp.mpf(0), mp.mpf(0)]], 30)


# ---- Edge conventions ----

def test_family_edge_conventions(generic_ctx):
    c = generic_ctx
    assert c.tau(-1, 0, 0) == 0 and c.tau(0, 0, 0) == 1
    assert c.xi(-1, 0, 0) == 0 and c.xi(0, 0, 0) == 1
    assert c.tauhat(0, 0, 0) == 1
    assert c.sigma(-1, 0, 0) == 0 and c.sigma(0, 0, 0) == c.ph(0, 0, 0)
    assert c.psi(0, 0, 0) == c.ph(0, 0, 0)
    assert c.sigtilde(-1, 0, 0) == 1 and c.sigtilde(-2, 0, 0) == 0
    assert c.tautilde(0, 0, 0) == 0 and c.tautilde(-1, 0, 0) == 0
    assert c.tau(1, 0, 0) == c.m(0, 0, 0, 0)
    assert c.tautilde(1, 0, 0) == c.m(1, 0, 0, 0)


def test_coefficient_edges(structured_ctx):
    c = structured_ctx
    assert c.coeff("a", 0, 0, 0) == 0
    assert c.coeff("c", 0, 0, 0) == 0
    assert c.coeff("alpha", 0, 0, 0) == 0
    assert c.coeff("p", 0, 0, 0) == 0
    assert c.coeff("d", 0, 0, 0) == 0
    assert c.coeff("e", 0, 0, 0) == 0
    assert c.coeff("g", 0, 0, 0) == 0


class _CountingDict(dict):
    """A dict counting the stores to each key."""

    def __init__(self):
        super().__init__()
        self.stores = collections.Counter()

    def __setitem__(self, key, value):
        self.stores[key] += 1
        super().__setitem__(key, value)


def test_coefficients_evaluated_once_per_context():
    ctx = detkit.DetContext(moments.synthetic_structured(2, 9, tmax=2), 9)
    ctx.derived = _CountingDict()
    divisions = collections.Counter()
    div = ctx._div

    def counting(num, den, what):
        divisions[what] += 1
        return div(num, den, what)

    ctx._div = counting
    values = [[ctx.coeff(name, n, 1, 0) for name in detkit.COEFFICIENTS
               for n in range(4)] for _ in range(2)]
    assert values[0] == values[1]
    # b_n reads p_{n+1}, so a few more values than were asked for are kept
    assert set(ctx.derived.stores) >= {("DetContext.coeff", name, n, 1, 0)
                                       for name in detkit.COEFFICIENTS
                                       for n in range(4)}
    assert set(ctx.derived.stores.values()) == {1}
    assert divisions and set(divisions.values()) == {1}


def test_degenerate_coefficient_raises_every_time():
    tab = moments.synthetic_generic(1, 6, tmax=1)
    tab.bimoments[0][0] = Fraction(0)   # tau_1 = m_00 = 0
    ctx = detkit.DetContext(tab, tab.K)
    for _ in range(2):
        with pytest.raises(DegeneracyError, match="c_1"):
            ctx.coeff("c", 1, 0, 0)
    assert ("DetContext.coeff", "c", 1, 0, 0) not in ctx.derived


def test_extent_errors(generic_ctx):
    c = generic_ctx
    with pytest.raises(ExtentError):
        c.m(20, 0, 0, 0)
    with pytest.raises(ExtentError):
        c.m(0, 0, 0, 9)   # beyond the evolved table stack
    with pytest.raises(ExtentError):
        c.u(0, 0, 0)      # generic mode has no singles
    with pytest.raises(ExtentError):
        c.Praw(-2, 0, 0)


# ---- Closed-form oracles on the true weight ----

def test_jacobi_family_closed_forms(jacobi_ctx, jacobi_policy):
    c = jacobi_ctx
    with c.wp():
        L = mp.ln(2)
        checks = (
            (c.tau(1, 0, 0), 2 * L),
            (c.tau(2, 0, 0), mp.mpf(4) / 3 * L * (1 - L) - mp.mpf(1) / 4),
            (c.sigma(0, 0, 0), mp.sqrt(2) * L),
            (c.coeff("p", 1, 0, 0), -1 / (4 * L)),
            (c.coeff("c", 1, 0, 0),
             (mp.mpf(4) / 3 * L * (1 - L) - mp.mpf(1) / 4) / (4 * L ** 2)),
        )
        worst = min(digits_of_agreement(a, b) for a, b in checks)
    assert worst >= jacobi_policy.precision_digits - 8


def test_jacobi_positivity_small_grid(jacobi_ctx):
    c = jacobi_ctx
    with c.wp():
        for n in range(4):
            for s in range(2):
                for t in range(2):
                    assert c.tau(n, s, t) > 0
                    assert c.xi(n, s, t) > 0


# ---- Coefficient identities ----

def _alpha_difference(c, n, s, t):
    """alpha_n as beta_n - xi_{n+1} xi_n / (tau_{n+1} tau_n^{s+1})."""
    return c.coeff("beta", n, s, t) - (c.xi(n + 1, s, t) * c.xi(n, s, t)
                                       / (c.tau(n + 1, s, t)
                                          * c.tau(n, s + 1, t)))


def test_alpha_forms_agree_exactly(generic_ctx, structured_ctx):
    # the ratio and beta-difference forms of alpha_n agree exactly iff the
    # tau/xi bilinear identity holds at (n, s, t)
    for c in (generic_ctx, structured_ctx):
        for n in range(1, 4):
            for s in range(2):
                assert (c.coeff("alpha", n, s, 0)
                        == _alpha_difference(c, n, s, 0)), (n, s)


def test_chat_definition(structured_ctx):
    c = structured_ctx
    for n in range(1, 4):
        assert c.coeff("chat", n, 0, 0) == (c.coeff("c", n, 0, 0)
                                            - 2 * c.coeff("a", n, 0, 0)
                                            * c.coeff("b", n - 1, 0, 0))
    assert c.coeff("chat", 0, 0, 0) == 0


def test_norm_is_tau_ratio(generic_ctx):
    c = generic_ctx
    for n in range(3):
        assert c.coeff("h", n, 0, 0) == c.tau(n + 1, 0, 0) / c.tau(n, 0, 0)


@pytest.mark.parametrize("mode", ["structured", "jacobi"])
def test_stencil_reads_are_the_reads_evaluation_makes(mode, monkeypatch):
    # every coefficient and every form of the six equations, evaluated at
    # n <= 4 and s, t <= 1 with the coefficient memo cleared, reads each
    # family at each site up to the order detkit.stencil_reads derives.  An
    # evaluation that raises ExtentError stops at the first read of
    # sigma_tilde at a t without singles (structured data past its base t),
    # and the derivation up to that read holds.
    table = {"structured": lambda: moments.synthetic_structured(1, 9, tmax=2),
             "jacobi": lambda: moments.build_jacobi(
                 9, TolerancePolicy(30, 10), tmax=2)}[mode]()
    ctx = detkit.DetContext(table, 9)
    logged, family = {}, detkit.DetContext._family

    def read(ctx, f, n, s, t):
        logged[(f, s, t)] = max(logged.get((f, s, t), n), n)
        return family(ctx, f, n, s, t)

    monkeypatch.setattr(detkit.DetContext, "_family", read)
    cases = [(detkit.stencil("+ " + name),
              lambda n, s, t, name=name: ctx.coeff(name, n, s, t))
             for name in detkit.COEFFICIENTS]
    cases += [(detkit.stencil(form), lambda n, s, t, eq=eq, v=variant:
               lax.evaluate_equation(ctx, eq, n, s, t, v))
              for eq, forms in lax.EQUATION_FORMS.items()
              for variant, form in forms.items()]
    stopped = 0
    for form, evaluate in cases:
        for n in range(5):
            for s in range(2):
                for t in range(2):
                    ctx.derived.clear()
                    logged.clear()
                    reads = detkit.stencil_reads(form, n, s, t)
                    try:
                        evaluate(n, s, t)
                    except ExtentError:
                        stop = next(i for i, (f, _, _, u) in enumerate(reads)
                                    if f == "sigma_tilde"
                                    and not ctx.has_single(u))
                        reads = reads[:stop + 1]
                        stopped += 1
                    assert logged == detkit.orders_of(reads), (form, n, s, t)
    assert stopped > 0 if mode == "structured" else stopped == 0


# ---- Literal-matrix oracle for every family ----

def _literal(ctx, family, n, s, t, det):
    """Each family's matrix written out from the detkit module docstring,
    with its edge values; cofactor families by Laplace expansion along the
    x^i column."""
    def m(i, j):
        return ctx.m(i, j, s, t)

    def ph(i):
        return ctx.ph(i, s, t)

    if family in ("tau", "xi", "tau_hat"):
        c = {"tau": 0, "xi": 1, "tau_hat": 2}[family]
        if n <= 0:
            return 1 if n == 0 else 0
        return det([[m(i, j + c) for j in range(n)] for i in range(n)])
    if family in ("sigma", "psi"):
        c = 1 if family == "psi" else 0
        if n < 0:
            return 0
        return det([[m(i, j + c) for j in range(n)] + [ph(i)]
                    for i in range(n + 1)])
    if family == "sigma_row":
        if n < 0:
            return 0
        return det([[m(i + 1, j) for j in range(n)] + [ph(i + 1)]
                    for i in range(n + 1)])
    if family == "sigma_tilde":
        if n < 0:
            return 1 if n == -1 else 0
        return det([[m(i, j) for j in range(n)] + [ctx.u(i, s, t)]
                    for i in range(n + 1)])
    if family == "tau_tilde":
        if n <= 0:
            return 0
        return det([[m(i, j) for j in range(n)]
                    for i in list(range(n - 1)) + [n]])
    if family in ("P", "Q"):
        c = 1 if family == "Q" else 0
        if n < -1:
            raise ExtentError("polynomial order below -1")

        def row(i):
            return [m(i, j + c) for j in range(n)]
    else:
        if n < 1:
            raise ExtentError("third-family polynomial needs order >= 1")

        def row(i):
            return [m(i, j) for j in range(n - 1)] + [ph(i)]
    minors = [det([row(i) for i in range(n + 1) if i != k]) for k in range(n + 1)]
    with ctx.wp():
        return [d if (k + n) % 2 == 0 else -d for k, d in enumerate(minors)]


def _within(bound):
    """Agreement of a family value with its literal one: each scalar or
    cofactor coefficient to a relative error <= bound (an exact zero exactly)."""
    def agree(got, want):
        if isinstance(want, list):
            return len(got) == len(want) and all(map(agree, got, want))
        return abs(got - want) <= bound * abs(want)
    return agree


def _count_calls(monkeypatch, name):
    """The calls of detkit.<name> from now on, each as its matrix size."""
    real, calls = getattr(detkit, name), []

    def counted(rows, *args):
        calls.append(len(rows))
        return real(rows, *args)

    monkeypatch.setattr(detkit, name, counted)
    return calls


def _check_against_literal(ctx, det, ss, ts, ns=range(-2, 5),
                           agree=operator.eq):
    assert set(detkit.FAMILY_SPECS) == {
        "tau", "xi", "tau_hat", "sigma", "psi", "sigma_row", "sigma_tilde",
        "tau_tilde", "P", "Q", "R"}
    checked = 0
    for family in detkit.FAMILY_SPECS:
        for n in ns:
            for s in ss:
                for t in ts:
                    try:
                        want = _literal(ctx, family, n, s, t, det)
                    except ExtentError:
                        with pytest.raises(ExtentError):
                            detkit.eval_det(ctx, family, n, s, t)
                        continue
                    got = detkit.eval_det(ctx, family, n, s, t)
                    assert agree(got, want), (family, n, s, t, got, want)
                    checked += 1
    return checked


def test_families_match_literal_matrices_exact(generic_ctx, structured_ctx):
    for ctx in (generic_ctx, structured_ctx):
        assert _check_against_literal(ctx, detkit.det_exact, (0, 1), (0, 1)) > 250
    # a base table at nonzero s0/t0: absolute s and t index into it
    offset = detkit.DetContext(moments.synthetic_structured(5, 9, tmax=2,
                                                            s0=2, t0=1), 9)
    assert _check_against_literal(offset, detkit.det_exact, (2, 3), (1, 2)) > 250


@settings(max_examples=10, deadline=None)
@given(mode=st.sampled_from(["synthetic-structured", "synthetic-generic"]),
       seed=st.integers(0, 10 ** 6), K=st.integers(6, 9),
       s0=st.integers(0, 2), t0=st.integers(0, 2))
def test_exact_sweep_matches_literal_matrices(mode, seed, K, s0, t0):
    # every family, every order up to past the table's extent (ExtentError
    # from the minor) and every site of a fresh context, each read from the
    # frame sweeps, against det_exact of the literal matrix
    ctx = detkit.DetContext(moments.build_base_table(mode, s0, t0, K, seed=seed,
                                                     tmax=2), K)
    assert _check_against_literal(ctx, detkit.det_exact, range(s0, s0 + 3),
                                  range(t0, t0 + 4), range(-2, K + 1)) > 0


def test_exact_sweeps_divide_out_column_content(monkeypatch):
    # the rank-one t-steps leave a common factor in frame columns, which the
    # exact sweep divides out and puts back into each value: on structured
    # data, seed 4, at s0 = 2 and t0 = 1, some column of a frame at t > t0
    # has content > 1, and every family, P, Q and R included, still equals
    # det_exact of its literal minor
    contents, sweep = [], detkit.DetContext._sweep
    divide = detkit._divide_content

    def logged_sweep(ctx, frame, s, t):
        contents.append((t, []))
        return sweep(ctx, frame, s, t)

    def logged_divide(M, width):
        found = divide(M, width)
        contents[-1][1].extend(found)
        return found

    monkeypatch.setattr(detkit.DetContext, "_sweep", logged_sweep)
    monkeypatch.setattr(detkit, "_divide_content", logged_divide)
    ctx = detkit.DetContext(moments.synthetic_structured(4, 9, tmax=2, s0=2,
                                                         t0=1), 9)
    assert _check_against_literal(ctx, detkit.det_exact, (2, 3), (1, 2, 3),
                                  range(-2, 9)) > 400
    assert max(c for t, cs in contents if t > 1 for c in cs) > 1


def test_vanishing_leading_minor_falls_back_per_minor(monkeypatch):
    tab = moments.synthetic_generic(3, 8, tmax=2)
    m = tab.bimoments
    m[1][1] = m[0][1] ** 2 / m[0][0]        # tau_2 = 0 at (s, t) = (0, 0)
    ctx = detkit.DetContext(tab, tab.K)
    real = detkit.det_exact
    calls = _count_calls(monkeypatch, "det_exact")
    fallback = set()
    for family in detkit.FAMILY_SPECS:
        for n in range(-1, 9):
            try:
                want = _literal(ctx, family, n, 0, 0, real)
            except ExtentError:
                with pytest.raises(ExtentError):
                    detkit.eval_det(ctx, family, n, 0, 0)
                continue
            before = len(calls)
            assert detkit.eval_det(ctx, family, n, 0, 0) == want, (family, n)
            if len(calls) > before:
                fallback.add((family, n))
    assert ctx.tau(1, 0, 0) != 0 and ctx.tau(2, 0, 0) == 0
    # the sweeps of [m cols 0.. | ...] stop at the zero divisor tau_2, after
    # the step it divides: tau_3 and tau_tilde_3 are their last values,
    # sigma_2, P_2 and R_2 those of their borders.  Every order above, up to
    # the last one the table holds, comes per minor.
    reach = {"tau": (3, 8), "tau_tilde": (3, 7), "sigma": (2, 7), "P": (2, 7),
             "R": (2, 7)}
    assert fallback == {(f, n) for f, (last, top) in reach.items()
                        for n in range(last + 1, top + 1)}


def test_families_match_literal_matrices_float(jacobi_ctx):
    # the frame sweeps eliminate without pivoting, so they agree with the
    # full-pivot det_float of each literal matrix to within rounding:
    # 10^-precision relative, 10^guard inside rel_tol.  Evaluated at mpmath's
    # default precision, which must not leak into the memoized values.
    def det(rows):
        return det_float(rows, jacobi_ctx.dps)

    bound = mp.mpf(10) ** -jacobi_ctx.base.precision_digits
    assert _check_against_literal(jacobi_ctx, det, (0, 1), (0, 1),
                                  agree=_within(bound)) > 250


def test_float_sweep_matches_a_wide_sweep_of_the_same_tables():
    # every value of the 11 families (n <= 9, s <= 2, t <= 3) at 120/40
    # against the same sweep at 400 digits over the same mpf entries at every
    # t (the reference reads the working context's evolved tables, so the
    # rounding of the rank-one t-steps is left out), within
    # 10^-(precision + 5) relative; for P, Q and R the worst coefficient
    # error over the largest |coefficient|
    tab = moments.build_jacobi(13, TolerancePolicy(120, 40), tmax=3)
    ctx = detkit.DetContext(tab, 9)
    ref = detkit.DetContext(dataclasses.replace(tab, precision_digits=385), 9)
    ref.tables = {t: dataclasses.replace(tb, precision_digits=385)
                  for t, tb in ctx.tables.items()}
    assert ref.dps == 400
    bound = mp.mpf(10) ** -125
    checked = 0
    with mp.workdps(ref.dps):
        for family, spec in detkit.FAMILY_SPECS.items():
            for n in range(max(spec.start, 0), 10):
                for s in range(3):
                    for t in range(4):
                        got = detkit.eval_det(ctx, family, n, s, t)
                        want = detkit.eval_det(ref, family, n, s, t)
                        if spec.lead is None:
                            got, want = [got], [want]
                        err = max(abs(a - b) for a, b in zip(got, want))
                        assert err <= bound * max(map(abs, want)), (
                            family, n, s, t, mp.nstr(err, 5))
                        checked += 1
    assert checked == 12 * (11 * 10 - 2)    # tau_tilde and R start at 1


def test_float_mode_makes_no_per_minor_determinants(jacobi_ctx, jacobi_policy):
    # every float family comes from a frame sweep, and on jacobi data every
    # pivot of a lattice and a catalog run (on a cold context over the shared
    # table) passes its check: no sweep stops early and no record is skipped
    lat = lattice.build_lattice("jacobi-float", 5, 2, 2,
                                {"precision": 60, "guard": 20})
    ctx = detkit.DetContext(jacobi_ctx.base, 9)
    records = identities.run_suite(ctx, 4, 2, 2, policy=jacobi_policy)
    assert all(r.skipped is None for r in records)
    for c in (lat.ctx, ctx):
        assert len(c.swept) > 20 and set(c.swept.values()) == {None}


_VERIFY = ["verify", "--jobs", "1", "--n", "3", "--s", "1", "--t", "1"]


@pytest.mark.parametrize("mode", ["structured", "jacobi"])
@pytest.mark.parametrize("argv", [
    _VERIFY,
    ["polys", "--n", "3", "--s", "1", "--t", "1"],
    ["lax", "--n", "4", "--s", "1", "--t", "1"],
    ["lattice", "--n", "3", "--s", "1", "--t", "1"],
] + [_VERIFY + ["--identities", ident] for ident in identities.CATALOG_IDS],
    ids=lambda argv: "-".join(argv[:1] + [v for k, v in zip(argv, argv[1:])
                                          if k == "--identities"]))
def test_commands_bound_sweeps_above_every_order_they_read(argv, mode, capsys,
                                                           monkeypatch):
    # each command bounds its contexts' sweeps by the highest order it reads:
    # a read above the bound raises, so the command would fail; and no exact
    # value comes per minor.  verify bounds each family by the reads of its
    # ids, so each id alone checks its own stencils and declared reads.
    calls = _count_calls(monkeypatch, "det_exact")
    assert cli.main(argv + ["--mode", mode, "--precision", "30",
                            "--guard", "10"]) == 0
    assert calls == []


def test_lattice_context_serves_lax_at_its_order(monkeypatch):
    # the README and benchmark path: propagation, then the Lax residuals at
    # K = Nmax and the six equations, on the lattice's own context
    calls = _count_calls(monkeypatch, "det_exact")
    # (structured tables carry singles at their base t only)
    for mode, config, ts in (("synthetic-structured", {"seed": 1}, (0,)),
                             ("jacobi-float", {"precision": 30, "guard": 10},
                              (0, 1))):
        lat = lattice.build_lattice(mode, 5, 1, 2, config)
        lattice.propagate(lat, 0, 2)
        for s in (0, 1):
            for t in ts:
                lax.compat_residuals(lat.ctx, 5, s, t)
                lax.eigen_residuals(lat.ctx, 5, s, t)
        lax.verify_six_equations(lat.ctx, 4, 0, 0)
    assert calls == []


def _log_sweeps(monkeypatch):
    """From now on: the highest n of every family read, by (context,
    family, s, t), and the shape of every frame sweep, by (context, frame,
    s, t): its frame rows, bimoment columns and border columns."""
    reads, shapes, sweeping = {}, {}, []
    family, sweep = detkit.DetContext._family, detkit.DetContext._sweep

    def read(ctx, f, n, s, t):
        key = (id(ctx), f, s, t)
        reads[key] = max(reads.get(key, n), n)
        return family(ctx, f, n, s, t)

    def swept(ctx, frame, s, t):
        sweeping.append((id(ctx), frame, s, t))
        try:
            return sweep(ctx, frame, s, t)
        finally:
            sweeping.pop()

    def shaped(steps):
        def run(M, *args):
            if sweeping:        # not det_exact on one minor
                C, key = args[-1], sweeping[-1]
                # row 0 holds the bimoment and border columns, then the I
                # block's one entry of a cofactor frame
                shapes[key] = (len(M), C,
                               len(M[0]) - C - key[1][2] if M else 0)
            return steps(M, *args)
        return run

    monkeypatch.setattr(detkit.DetContext, "_family", read)
    monkeypatch.setattr(detkit.DetContext, "_sweep", swept)
    for name in ("_bareiss_steps", "_schur_steps"):
        monkeypatch.setattr(detkit, name, shaped(getattr(detkit, name)))
    return reads, shapes


def _loose_sweeps(reads, shapes):
    """The sweeps, with what they took and needed, that take a frame row,
    bimoment column or border column beyond what the reads of their site
    need: order n of a pivot family needs rows 0..n-1, of any other family
    rows 0..n, and columns 0..n-1 (0..n-2 for R, whose phi column stands
    in for column n-1); an edge value needs none."""
    loose = []
    for (ctx, frame, s, t), took in shapes.items():
        rows = cols = 0
        borders = set()
        for family in detkit._FRAMES[frame][0]:
            spec = detkit.FAMILY_SPECS[family]
            n = reads.get((ctx, family, s, t), -2)
            if n >= _first_swept(spec):
                rows = max(rows, n + (spec.skip != 0))
                cols = max(cols, n - (spec.lead is not None
                                      and spec.border is not None))
                borders |= {spec.border} - {None}
        need = (rows, cols, len(borders))
        if any(a > b for a, b in zip(took, need)):
            loose.append((frame, s, t, took, need))
    return loose


@pytest.mark.parametrize("mode", ["structured", "generic", "jacobi"])
def test_sweeps_take_only_what_their_site_reads(mode, monkeypatch):
    # every frame sweep of a tiny verify and lax, and of a lattice build, its
    # propagation and the Lax residuals and six equations on its context,
    # takes no frame row, bimoment column or border column beyond what the
    # reads at its (s, t) need.  Where the table has no singles at t (on
    # structured tables past their base t, on generic ones at every t), L
    # raises at its first read, so no read of L there is declared.
    reads, shapes = _log_sweeps(monkeypatch)
    for argv, sweeps in ((_VERIFY, 30),
                         (["lax", "--n", "4", "--s", "1", "--t", "1"], 10)):
        assert cli.main(argv + ["--mode", mode, "--precision", "30",
                                "--guard", "10"]) == 0
        assert len(shapes) > sweeps and _loose_sweeps(reads, shapes) == []
        reads.clear()
        shapes.clear()
    kind, config, T = {
        "structured": ("synthetic-structured", {"seed": 1}, 1),
        "generic": ("synthetic-generic", {"seed": 1}, 1),
        "jacobi": ("jacobi-float", {"precision": 30, "guard": 10}, 2)}[mode]
    lat = lattice.build_lattice(kind, 5, 1, T, config)
    lattice.propagate(lat, 0, T)
    for s in (0, 1):
        for t in range(T):
            lax.compat_residuals(lat.ctx, 5, s, t)
            if lat.ctx.has_single(t):
                lax.eigen_residuals(lat.ctx, 5, s, t)
    lax.verify_six_equations(lat.ctx, 4, 0, 0)
    assert len(shapes) > 20 and _loose_sweeps(reads, shapes) == []


def _outcome(ctx, family, n, s, t):
    try:
        return detkit.eval_det(ctx, family, n, s, t)
    except (DegeneracyError, ExtentError) as err:
        return err


def _exactly(v):
    """A family value or error as something == compares bit for bit: an mpf
    by its sign, mantissa, exponent and bit count."""
    if isinstance(v, list):
        return [_exactly(x) for x in v]
    if isinstance(v, Exception):
        return type(v), str(v)
    return v._mpf_ if isinstance(v, mp.mpf) else v


# the families whose frames, [m cols 0.. | phi | u] and [m cols 0.. | phi | I],
# carry the pivots of tau
TAU_PIVOTED = ("tau", "sigma", "sigma_tilde", "tau_tilde", "P", "R")


@pytest.mark.parametrize("pivot", ["zero", "tiny", "negative"])
def test_failed_float_pivot_raises_past_it(pivot):
    # m_11 set against m_00, m_01 and m_10 of a jacobi table makes the second
    # pivot of the tau frames, m_11 - (m_10 / m_00) m_01, 0, positive but
    # 10^-35 of its diagonal (below the floor 10^-30), or negative.  The zero
    # case also sets m_10 = m_00, so that m_11 = m_01 makes that pivot 0 in
    # any arithmetic; ref has every change but the one to m_11
    tab = moments.build_jacobi(8, TolerancePolicy(30, 10), tmax=1)
    bm = [list(row) for row in tab.bimoments]
    if pivot == "zero":
        bm[1][0] = bm[0][0]
    ref = detkit.DetContext(
        dataclasses.replace(tab, bimoments=[list(row) for row in bm]), tab.K)
    with mp.workdps(ref.dps):
        first = bm[1][0] / bm[0][0] * bm[0][1]
        bm[1][1] = {"zero": bm[0][1],
                    "tiny": first * (1 + mp.mpf(10) ** -35),
                    "negative": first / 2}[pivot]
        want = bm[1][1] - bm[1][0] / bm[0][0] * bm[0][1]
        floor = mp.mpf(10) ** -30 * bm[1][1]
    ctx = detkit.DetContext(dataclasses.replace(tab, bimoments=bm), tab.K)
    assert {"zero": want == 0, "tiny": 0 < want < floor,
            "negative": want < 0}[pivot]
    # the sweeps keep every value that does not read the pivot: tau_1 before
    # it, and tau_tilde_2, sigma_1, sigma_tilde_1, P_1 and R_2 of its step,
    # bit for bit those of ref, which none of them reads m_11 from; every
    # order above raises, naming the pivot
    last = {"tau": 1, "tau_tilde": 2, "sigma": 1, "sigma_tilde": 1, "P": 1,
            "R": 2}
    raised = 0
    for family in TAU_PIVOTED:
        for n in range(-1, 9):
            got = _outcome(ctx, family, n, 0, 0)
            if n <= last[family]:
                assert _exactly(got) == _exactly(_outcome(ref, family, n, 0, 0))
                continue
            if isinstance(got, ExtentError):    # past the table's extent
                assert n == 8 and family != "tau"
                continue
            assert isinstance(got, DegeneracyError), (family, n, got)
            assert str(got) == (
                "%s_%d^{0,0} lies past float pivot 1 of its frame, %s, not "
                "above its floor %s (10^-30 of its diagonal entry)"
                % (family, n, mp.nstr(want, 5), mp.nstr(floor, 5))), str(got)
            raised += 1
    assert raised == 7 + 6 + 6 + 5 + 6 + 5
    # a failure stops its own frame only: at s = 2 no entry is m_11
    assert ctx.tau(3, 2, 0) > 0 and ctx.swept[((0, 0, False), 2, 0)] is None


def _first_swept(spec):
    """The lowest order of a family that a sweep computes; the orders below
    are edge values, fixed whatever the bound."""
    return max(spec.start, spec.skip is not None)


def _reach(orders, family, s, t):
    """The highest order of `family` that a context built with `orders`
    sweeps at (s, t): an int bounds every family, one more for a pivot
    family, and a dict gives each family's highest order read at each site,
    none for one left out there."""
    if isinstance(orders, int):
        return orders + (detkit.FAMILY_SPECS[family].skip == 0)
    return orders.get((family, s, t), -1)


@pytest.mark.parametrize("mode", ["synthetic-structured", "jacobi-float"])
def test_reads_above_the_sweep_bound_raise(mode, monkeypatch):
    # orders = 3 sweeps the pivot families to order 4 and the others to 3;
    # a read above is neither a skip nor per minor, but an error naming it,
    # its site and the family's reach there
    table = moments.build_base_table(mode, 0, 0, 8, seed=2, tmax=1,
                                     policy=TolerancePolicy(30, 10))
    calls = _count_calls(monkeypatch, "det_exact")
    ctx = detkit.DetContext(table, 3)
    assert ctx.tau(4, 0, 0) and ctx.sigma(3, 0, 0) and ctx.tautilde(3, 0, 0)
    for family, n in (("tau", 5), ("xi", 5), ("tau_hat", 5), ("sigma", 4),
                      ("tau_tilde", 4), ("P", 4), ("R", 4)):
        with pytest.raises(ValueError, match=r"^%s_%d\^\{0,0\} is above the "
                           r"sweep bound of its context, which reaches %s to "
                           r"order %d at \(s, t\) = \(0, 0\)$"
                           % (family, n, family, n - 1)):
            detkit.eval_det(ctx, family, n, 0, 0)
    # past the table's extent the minor's own ExtentError comes first
    with pytest.raises(ExtentError):
        ctx.tau(9, 0, 0)
    # per-site bounds, as verify and the lattice set them: at each (s, t)
    # each family is swept to its own order there and one above raises, in
    # frames whose rows reach further for another family; a family left out
    # at a site raises above its edge values, and at a site read only at
    # edge values no sweep memoizes anything above them
    at = {(0, 0): {"tau": 2, "sigma": 4, "tau_tilde": 3, "xi": 1, "psi": 3,
                   "tau_hat": 4, "P": 1, "R": 4, "Q": 0, "sigma_tilde": 2},
          (1, 1): {"tau": 4, "sigma_row": 3, "P": 3, "R": 1, "xi": 0},
          (2, 0): {}}
    orders = {(family, s, t): n for (s, t), reads in at.items()
              for family, n in reads.items()}
    ctx = detkit.DetContext(table, orders)
    for s, t in at:
        for family, spec in detkit.FAMILY_SPECS.items():
            if spec.border == "u" and not ctx.has_single(t):
                continue        # no minor of it exists: ExtentError
            reach = _reach(orders, family, s, t)
            top = max(reach, _first_swept(spec) - 1)
            for n in range(-1, top + 1):
                if n >= spec.start or not spec.error:
                    detkit.eval_det(ctx, family, n, s, t)
            with pytest.raises(ValueError, match=(
                    r"^%s_%d\^\{%d,%d\} is above the sweep bound of its "
                    r"context, which reaches %s to order %d at \(s, t\) = "
                    r"\(%d, %d\)$" % (family, top + 1, s, t, family, reach,
                                      s, t))):
                detkit.eval_det(ctx, family, top + 1, s, t)
    assert {n for _, n, s, t in ctx.memo if (s, t) == (2, 0)} == {-1, 0}
    assert calls == []


@settings(max_examples=16, deadline=None)
@given(mode=st.sampled_from(["synthetic-structured", "synthetic-generic",
                             "jacobi-float"]),
       seed=st.integers(0, 10 ** 6), K=st.integers(4, 7),
       orders=st.one_of(st.integers(0, 8), st.dictionaries(
           st.tuples(st.sampled_from(sorted(detkit.FAMILY_SPECS)),
                     st.integers(0, 2), st.integers(0, 3)),
           st.integers(-1, 8), max_size=40)))
def test_bounded_sweeps_read_the_full_sweeps_values(mode, seed, K, orders):
    # after k steps an entry depends on rows 0..k-1, i and columns 0..k-1, j
    # only, so a context whose sweep at each (s, t) stops at the frame row,
    # bimoment column and border its families' bounds there need reads the
    # values of one sweeping the whole table at every order it reaches (an
    # int `orders`, and one more for a pivot family, or each family's own
    # order at the site): equal Fractions, bit-identical mpf.  Above, it
    # raises the bound error, unless the minor lies past the table's
    # extent, where both raise its ExtentError.
    table = moments.build_base_table(
        mode, 0, 0, K, seed=seed, tmax=2,
        policy=TolerancePolicy(precision_digits=30, guard_digits=10))
    full = detkit.DetContext(table, table.K)
    bounded = detkit.DetContext(table, orders)
    for family, spec in detkit.FAMILY_SPECS.items():
        for s in range(3):
            for t in range(4):
                reach = max(_reach(orders, family, s, t), _first_swept(spec) - 1)
                for n in range(-2, K + 2):
                    want = _outcome(full, family, n, s, t)
                    if n <= reach or isinstance(want, ExtentError):
                        got = _outcome(bounded, family, n, s, t)
                        assert _exactly(got) == _exactly(want), (family, n, s, t)
                    else:
                        with pytest.raises(ValueError, match="sweep bound"):
                            detkit.eval_det(bounded, family, n, s, t)


# ---- Module-level wrappers ----

def test_eval_det_dispatch(generic_ctx):
    assert detkit.eval_det(generic_ctx, "tau", 2, 0, 1) == generic_ctx.tau(2, 0, 1)
    assert detkit.eval_det(generic_ctx, "sigma_row", 1, 0, 0) == \
        generic_ctx.sigma_row(1, 0, 0)
    with pytest.raises(ValueError):
        detkit.eval_det(generic_ctx, "nope", 0, 0, 0)


def test_full_table_stack():
    tab = moments.synthetic_generic(1, 6, tmax=3)
    ctx = detkit.DetContext(tab, tab.K)
    assert sorted(ctx.tables) == [0, 1, 2, 3, 4]
