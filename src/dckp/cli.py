"""Command-line front end: selfcheck, lattice export, identity verification,
polynomial dumps, and Lax-system reports.

Configuration comes from flags, optionally layered over a JSON config file
(flags win).  Each subcommand takes only the options it reads, as flags and
as config keys alike; both come from one table, OPTIONS, and so does the run
config a subcommand reads, a namespace of every OPTIONS key.  Outputs are
byte-identical for identical configs; diagnostics go to standard error.  Exit
codes: 0 success, 1 verification failure, 2 usage or configuration error.
"""

import argparse
import json
import sys
from fractions import Fraction

import mpmath as mp

from .numerics import (ConfigError, DegeneracyError, ExtentError,
                       TolerancePolicy, csv_text, digits_of_agreement,
                       fmt_scalar, parse_scalar, selfcheck_ln2)
from . import moments, quadrature, detkit, polyfam, identities, lax, lattice

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2

MODE_ALIASES = {"jacobi": "jacobi-float", "generic": "synthetic-generic",
                "structured": "synthetic-structured"}

SUBCOMMANDS = (
    ("selfcheck", "quadrature, arithmetic, and serialization sanity"),
    ("lattice", "build the determinant lattice and export it"),
    ("verify", "run the identity suite and report residuals"),
    ("polys", "dump polynomial coefficient vectors"),
    ("lax", "operator compatibility, eigen relations, six equations"))

_ALL = tuple(name for name, _ in SUBCOMMANDS)
_GRID = _ALL[1:]

# name -> (type, default, subcommands that read it, help).  Each subcommand's
# flags and the keys its config file may hold both come from this table; a
# config value must have the option's type, or be null where the default is
# None.  guard None takes TolerancePolicy's default.
OPTIONS = {
    "mode": (str, "jacobi-float", _GRID,
             "jacobi-float | synthetic-generic | synthetic-structured "
             "(aliases: jacobi, generic, structured)"),
    "precision": (int, 120, _ALL, "decimal digits (float mode)"),
    "guard": (int, None, _ALL, "guard digits, 0 <= guard < precision; "
              "rel_tol = 10^-(precision-guard)"),
    "n": (int, 4, _GRID, "max polynomial order"),
    "s": (int, 2, _GRID, "max s shift"),
    "t": (int, 2, _GRID, "max t shift"),
    "seed": (int, 0, _GRID, "synthetic data seed"),
    "out": (str, None, _GRID, "output path (default: stdout)"),
    "format": (str, "json", ("lattice", "verify", "polys"),
               "artifact format: json | csv"),
    # verify runs in one process; perfbench/job.py still passes --jobs 1
    "jobs": (int, 1, ("verify",), "must be 1 (verify runs in one process)"),
    "identities": (str, None, ("verify",), "comma-separated identity id filter"),
}


# ---- Config resolution ----

def _options(command):
    return [key for key, (_, _, commands, _) in OPTIONS.items()
            if command in commands]


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser: an unknown flag is an error with its own usage,
    not left to the top-level parser."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: %s" % " ".join(extras))
        return namespace, extras


def _build_parser():
    p = argparse.ArgumentParser(
        prog="dckp",
        description="Biorthogonal tau-function lattice: build, verify, export.")
    sub = p.add_subparsers(dest="command", required=True,
                           parser_class=_SubcommandParser)
    for name, helptext in SUBCOMMANDS:
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("--config", help="JSON config file; flags win")
        for key in _options(name):
            typ, _, _, helptext = OPTIONS[key]
            sp.add_argument("--" + key, type=typ, help=helptext)
    return p


def resolve_config(args):
    """The run config: every OPTIONS key under its own name (flags over the
    config file over the defaults), the mode, guard and identity filter
    resolved, and the command."""
    keys = _options(args.command)
    merged = {key: default for key, (_, default, _, _) in OPTIONS.items()}
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError("cannot read config file: %s" % exc)
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(file_cfg) - set(keys)
        if unknown:
            raise ConfigError("unknown config keys for %s: %s"
                              % (args.command, sorted(unknown)))
        for key, v in file_cfg.items():
            typ, default, _, _ = OPTIONS[key]
            # type() rather than isinstance: a bool is not an int
            if type(v) is not typ and not (v is None and default is None):
                raise ConfigError("config key %r must be %s, got %r"
                                  % (key, typ.__name__, v))
        merged.update(file_cfg)
    for key in keys:
        v = getattr(args, key)
        if v is not None:
            merged[key] = v
    mode = MODE_ALIASES.get(merged["mode"], merged["mode"])
    if mode not in moments.MODES:
        raise ConfigError("unknown mode: %r" % (merged["mode"],))
    if merged["precision"] < 3:
        raise ConfigError("precision must be at least 3 digits")
    guard = TolerancePolicy(merged["precision"], merged["guard"]).guard_digits
    for key in ("n", "s", "t"):
        if merged[key] < 0:
            raise ConfigError("--%s must be nonnegative" % key)
    if merged["jobs"] != 1:
        raise ConfigError("--jobs must be 1: verify runs in one process, "
                          "got %d" % merged["jobs"])
    if merged["format"] not in ("json", "csv"):
        raise ConfigError("format must be json or csv")
    ids = None
    if merged["identities"] is not None:
        ids = tuple(x.strip() for x in merged["identities"].split(",")
                    if x.strip())
        bad = [x for x in ids if x not in identities.CATALOG_IDS]
        if bad:
            raise ConfigError("unknown identity ids: %s" % bad)
        repeated = sorted({x for x in ids if ids.count(x) > 1})
        if repeated:
            raise ConfigError("repeated identity ids: %s" % repeated)
        # judged at the base t, where each mode gates every id it gates
        # anywhere; an empty filter gates nothing
        if not any(identities.gates(mode, x, 0, 0) for x in ids):
            raise ConfigError("no identity in %s gates in %s mode, so verify "
                              "could never fail" % (list(ids), mode))
    merged.update(mode=mode, guard=guard, identities=ids)
    return argparse.Namespace(command=args.command, **merged)


# ---- Shared plumbing ----

def _policy(cfg):
    return TolerancePolicy(cfg.precision, cfg.guard)


def _build_table(cfg, K, tmax):
    return moments.build_base_table(cfg.mode, 0, 0, K, policy=_policy(cfg),
                                    seed=cfg.seed, tmax=tmax)


def _emit(text, out):
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError("cannot write --out: %s" % exc)


def _diag(msg):
    print(msg, file=sys.stderr)


# ---- selfcheck ----

def cmd_selfcheck(cfg):
    policy = _policy(cfg)
    dps = policy.working_dps
    need = cfg.precision - 20
    lines = []

    ok, d = selfcheck_ln2(policy)
    lines.append(("ln2-stability", d, cfg.precision - 2, ok))

    with mp.workdps(dps):
        m00 = quadrature.bimoment_entry(0, 0, 0, 0, policy)
        d = digits_of_agreement(m00, 2 * mp.ln(2))
    ok = d >= need
    lines.append(("m00-vs-2ln2", d, need, ok))

    with mp.workdps(dps):
        K = 6
        swept = []
        for t in (0, 1):
            uv = quadrature.single_vector(K, 0, t, policy)
            swept.append((uv, quadrature.bimoment_table(K, 0, t, policy,
                                                        mu=uv)))
        uv, bm = swept[0]
        worst = mp.inf
        for i in range(K - 1):
            for j in range(K - 1):
                if i + j > K - 2:
                    continue
                d = digits_of_agreement(bm[i + 1][j] + bm[i][j + 1],
                                        uv[i] * uv[j])
                worst = min(worst, d)
    ok = worst >= need
    lines.append(("antidiagonal-grid", worst, need, ok))

    # the closed-form table against the sweep: singles and bimoments at
    # t = 0, and at t = 1 after the rank-one step by the closed-form phi
    base = moments.build_jacobi(K, policy, tmax=0)
    with mp.workdps(dps):
        worst = mp.inf
        for tab, (uv, bm) in zip((base, base.evolve_t()), swept):
            worst = min([worst]
                        + [digits_of_agreement(a, b)
                           for a, b in zip(tab.single, uv)]
                        + [digits_of_agreement(tab.m(i, j), bm[i][j])
                           for i in range(K) for j in range(K)])
    ok = worst >= need
    lines.append(("closed-vs-quadrature", worst, need, ok))

    import random
    rng = random.Random("selfcheck:0")
    frac_ok = True
    for _ in range(50):
        fr = Fraction(rng.randrange(-10**30, 10**30),
                      rng.randrange(1, 10**30))
        frac_ok &= parse_scalar(fmt_scalar(fr), True) == fr
    frac_ok &= parse_scalar(fmt_scalar(Fraction(0)), True) == 0
    lines.append(("rational-round-trip", mp.inf if frac_ok else 0.0,
                  "exact", frac_ok))

    with mp.workdps(dps):
        x = mp.pi / 7
        y = parse_scalar(fmt_scalar(x, cfg.precision), False, cfg.precision)
        d = digits_of_agreement(x, y)
    ok = d >= cfg.precision - 2
    lines.append(("float-round-trip", d, cfg.precision - 2, ok))

    for name, d, need_d, ok in lines:
        dtxt = "exact" if d == mp.inf else "%.1f" % d
        print("%-20s digits=%s need=%s %s"
              % (name, dtxt, need_d, "ok" if ok else "FAIL"))
    return EXIT_OK if all(ok for *_, ok in lines) else EXIT_VERIFY


# ---- lattice ----

def cmd_lattice(cfg):
    lat = lattice.build_lattice(cfg.mode, cfg.n, cfg.s, cfg.t,
                                {"precision": cfg.precision, "guard": cfg.guard,
                                 "seed": cfg.seed})
    if cfg.format == "json":
        text = json.dumps(lat.to_json_dict(), indent=1) + "\n"
    else:
        text = lat.csv_text()
    _emit(text, cfg.out)
    _diag("lattice: %d sites (%s mode)" % (len(lat.values), cfg.mode))
    return EXIT_OK


# ---- verify ----

def cmd_verify(cfg):
    K = cfg.n + cfg.s + 3
    ids = cfg.identities or identities.CATALOG_IDS
    table = _build_table(cfg, K, cfg.t)
    # one context, so the records and the variant report share its memo
    ctx = detkit.DetContext(table, detkit.orders_read(
        identities.evaluations(ids, cfg.n, cfg.s, cfg.t), table))
    recs = identities.run_suite(ctx, cfg.n, cfg.s, cfg.t, ids=ids)
    adjud = identities.variant_report(
        ctx, cfg.n, cfg.s, cfg.t,
        ids=[i for i in identities.VARIANT_IDS if i in ids], records=recs)
    summ = identities.suite_summary(recs)
    summ_line = {"summary": summ, "adjudication": adjud}

    if cfg.format == "json":
        out_lines = [json.dumps(r.to_json_dict(cfg.precision)) for r in recs]
        out_lines.append(json.dumps(summ_line))
        text = "\n".join(out_lines) + "\n"
    else:
        columns = ["id", "n", "s", "t", "residual_abs", "residual_rel", "pass",
                   "mode", "skipped"]
        text = csv_text(columns, [[d.get(k, "") for k in columns] for d in
                                  (r.to_json_dict(cfg.precision) for r in recs)])
        _diag(json.dumps(summ_line))
    _emit(text, cfg.out)
    verdict = "PASS" if summ["all_gating_pass"] else "FAIL"
    _diag("verify: %s (%d records, %d gating failures, %d skipped)"
          % (verdict, summ["records"], summ["gating_failures"], summ["skipped"]))
    return EXIT_OK if summ["all_gating_pass"] else EXIT_VERIFY


# ---- polys ----

def cmd_polys(cfg):
    K = cfg.n + cfg.s + 3
    ctx = detkit.DetContext(_build_table(cfg, K, cfg.t), cfg.n)
    rows = []
    for fam, low in polyfam.LOWEST_ORDER.items():
        for n in range(low, cfg.n + 1):
            for s in range(cfg.s + 1):
                for t in range(cfg.t + 1):
                    try:
                        coeffs = polyfam.poly(ctx, fam, n, s, t)
                    except (DegeneracyError, ExtentError) as exc:
                        rows.append({"family": fam, "n": n, "s": s, "t": t,
                                     "skipped": str(exc)})
                        continue
                    rows.append({"family": fam, "n": n, "s": s, "t": t,
                                 "coeffs": [fmt_scalar(c, cfg.precision)
                                            for c in coeffs]})
    if cfg.format == "json":
        text = "\n".join(json.dumps(r) for r in rows) + "\n"
    else:
        text = csv_text(["family", "n", "s", "t", "k", "coeff"],
                        [[r["family"], r["n"], r["s"], r["t"], k, c]
                         for r in rows for k, c in enumerate(r.get("coeffs", []))])
    _emit(text, cfg.out)
    _diag("polys: %d polynomials (%s mode)" % (len(rows), cfg.mode))
    return EXIT_OK


# ---- lax ----

def cmd_lax(cfg):
    Kop = cfg.n + 1
    if Kop < 5:
        raise ConfigError("lax needs --n >= 4 (operator truncation K = n+1 >= 5)")
    K = Kop + cfg.s + 4
    table = _build_table(cfg, K, cfg.t + 1)
    ctx = detkit.DetContext(table, detkit.orders_read(
        lax.evaluations(Kop, cfg.s, cfg.t), table))
    doc = {"meta": {"mode": cfg.mode, "K": Kop,
                    "ranges": {"Smax": cfg.s, "Tmax": cfg.t},
                    "precision": table.precision_digits},
           "sites": []}
    for s in range(cfg.s + 1):
        for t in range(cfg.t + 1):
            entry = {"s": s, "t": t}
            comp = lax.compat_residuals(ctx, Kop, s, t)
            entry["compat"] = {
                k: (v if v is None or isinstance(v, str)
                    else fmt_scalar(v, identities.REPORT_DIGITS))
                for k, v in comp.items() if k.startswith("compat")}
            try:
                eig = lax.eigen_residuals(ctx, Kop, s, t)
                entry["eigen"] = {k: fmt_scalar(v, identities.REPORT_DIGITS)
                                  for k, v in eig.items() if k != "K"}
            except (DegeneracyError, ExtentError) as exc:
                entry["eigen"] = {"skipped": str(exc)}
            doc["sites"].append(entry)
    doc["six_equations"] = lax.verify_six_equations(ctx, cfg.n, 0, 0)
    _emit(json.dumps(doc, indent=1) + "\n", cfg.out)
    chosen = {eq: e["chosen"] for eq, e in doc["six_equations"]["equations"].items()}
    bad = [eq for eq, ch in chosen.items() if ch is None and not ctx.exact]
    _diag("lax: six-equation chosen variants %s" % chosen)
    return EXIT_VERIFY if bad else EXIT_OK


# ---- entry ----

COMMANDS = {"selfcheck": cmd_selfcheck, "lattice": cmd_lattice,
            "verify": cmd_verify, "polys": cmd_polys, "lax": cmd_lax}


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:   # argparse has printed the usage error or help
        return exc.code
    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        _diag("config error: %s" % exc)
        return EXIT_USAGE
    try:
        return COMMANDS[cfg.command](cfg)
    except ConfigError as exc:
        _diag("config error: %s" % exc)
        return EXIT_USAGE
    except ExtentError as exc:
        _diag("extent error (table too small for the request): %s" % exc)
        return EXIT_USAGE
    except (DegeneracyError, ArithmeticError) as exc:
        _diag("verification failure: %s" % exc)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
