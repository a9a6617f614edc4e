"""Output oracle: checks one job's artifacts against the recorded reference.

Exact artifacts (synthetic-structured data) must match the reference's
SHA-256 byte for byte.  Float artifacts must agree with the reference value
by value to the policy tolerance, keep every non-float field unchanged (pass
flags, chosen variants, site lists) and pass every gate.  The reference is
recorded by make_reference.py; it stores float values rounded to what the
comparison needs.

Every check returns a list of problems (empty when the job is correct) and
the job's margin in digits: min log10(tol / residual) over its gated float
residuals, or None for an exact workload.
"""

import decimal
import gzip
import hashlib
import json
import math
import re
from pathlib import Path

import workloads

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
ARTIFACTS = {"jacobi-verify": ("artifact.jsonl",),
             "structured-verify": ("artifact.jsonl",),
             "jacobi-lattice-lax": ("jacobi.json", "structured.json")}

_FLOAT = re.compile(r"^-?\d+\.\d+(e[+-]?\d+)?$")
_CTX = decimal.Context(prec=400, Emin=-999999, Emax=999999)
_KEEP_DIGITS = 95       # reference digits kept for values above the tolerance
_RESIDUAL_DIGITS = 6    # ... and for residuals below it
_MAX_PROBLEMS = 5


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def to_decimal(text):
    return _CTX.create_decimal(text)


def _digits(text):
    mant = text.split("e")[0].lstrip("-").replace(".", "").lstrip("0")
    return len(mant)


# ---- float trees ----

def round_floats(tree, tol):
    """A float artifact as stored in the reference: decimal strings above tol
    cut to _KEEP_DIGITS significant digits, those below it to _RESIDUAL_DIGITS."""
    if isinstance(tree, dict):
        return {k: round_floats(v, tol) for k, v in tree.items()}
    if isinstance(tree, list):
        return [round_floats(v, tol) for v in tree]
    if isinstance(tree, str) and _FLOAT.match(tree):
        v = to_decimal(tree)
        keep = _RESIDUAL_DIGITS if abs(v) < tol else _KEEP_DIGITS
        if _digits(tree) > keep:
            return "{:.{}e}".format(v, keep - 1)
    return tree


def _agree(a, ref, tol):
    """A decimal string agrees with the reference's if it prints at least as
    many digits and matches to tol relative, or to the reference's last digit
    when that is coarser; two residuals both below tol always agree."""
    x, y = to_decimal(a), to_decimal(ref)
    if abs(x) < tol and abs(y) < tol:
        return True
    if _digits(a) < _digits(ref):
        return False
    rel = max(tol, decimal.Decimal(10) ** (1 - _digits(ref)))
    return abs(x - y) <= rel * max(abs(x), abs(y))


def compare(tree, ref, tol, path="", out=None):
    """Problems where `tree` departs from `ref` (float leaves to tol)."""
    out = [] if out is None else out
    if len(out) >= _MAX_PROBLEMS:
        return out
    if isinstance(ref, dict) and isinstance(tree, dict):
        if set(ref) != set(tree):
            out.append("%s: keys %s != reference %s" % (path, sorted(tree), sorted(ref)))
        for k in ref:
            if k in tree:
                compare(tree[k], ref[k], tol, "%s/%s" % (path, k), out)
    elif isinstance(ref, list) and isinstance(tree, list):
        if len(ref) != len(tree):
            out.append("%s: %d items != reference %d" % (path, len(tree), len(ref)))
        for i, (a, b) in enumerate(zip(tree, ref)):
            compare(a, b, tol, "%s/%d" % (path, i), out)
    elif (isinstance(ref, str) and isinstance(tree, str)
          and _FLOAT.match(ref) and _FLOAT.match(tree)):
        if not _agree(tree, ref, tol):
            out.append("%s: %s disagrees with reference %s" % (path, tree[:40], ref[:40]))
    elif tree != ref or type(tree) is not type(ref):
        out.append("%s: %r != reference %r" % (path, tree, ref))
    return out


def _log10(d):
    exp = d.adjusted()
    return exp + math.log10(float(d.scaleb(-exp)))


def _margin(residuals, tol):
    """min log10(tol/r) over nonzero residuals; problems for any r >= tol."""
    margin, problems = math.inf, []
    for where, text in residuals:
        r = to_decimal(text)
        if r >= tol:
            problems.append("%s: residual %s >= gate %s" % (where, text[:20], tol))
        elif r > 0:
            margin = min(margin, _log10(tol) - _log10(r))
    return margin, problems


# ---- workloads ----

def verify_lines(data):
    lines = [json.loads(x) for x in data.decode().splitlines()]
    return lines[:-1], lines[-1]


def check_jacobi_verify(files, ref, params, seed):
    tol = to_decimal(workloads.rel_tol(params))
    records, summary = verify_lines(files["artifact.jsonl"])
    problems = compare(records + [summary], ref["artifact"], tol)
    if not summary["summary"]["all_gating_pass"]:
        problems.append("summary: gating failures")
    margin, bad = _margin([("%s n%d s%d t%d" % (r["id"], r["n"], r["s"], r["t"]),
                            r["residual_rel"])
                           for r in records if r["pass"] is not None], tol)
    return problems + bad, margin


def check_structured_verify(files, ref, params, seed):
    data = files["artifact.jsonl"]
    problems = []
    if sha256(data) != ref["sha256"][str(seed)]:
        problems.append("artifact differs from the reference (sha256)")
    records, summary = verify_lines(data)
    nonzero = [r for r in records if r["pass"] is not None
               and not (r["residual_abs"] == "0/1" and r["pass"])]
    if nonzero:
        r = nonzero[0]
        problems.append("%d records not literal zero, first %s n%d s%d t%d"
                        % (len(nonzero), r["id"], r["n"], r["s"], r["t"]))
    if not summary["summary"]["all_gating_pass"]:
        problems.append("summary: gating failures")
    return problems, None


def check_jacobi_lattice_lax(files, ref, params, seed):
    tol = to_decimal(workloads.rel_tol(params))
    loose, tight = to_decimal(params["gate_loose"]), to_decimal(params["gate_tight"])
    doc = json.loads(files["jacobi.json"])
    problems = compare(doc, ref["jacobi"], tol)
    gated = [(loose, "propagation max_rel", doc["propagation"]["max_rel"])]
    for site in doc["lax"]:
        where = "lax s%d t%d " % (site["s"], site["t"])
        gated += [(loose, where + k, v) for k, v in site["compat"].items()]
        gated += [(tight, where + k, v) for k, v in site["eigen"].items()]
    for eq, entry in doc["six_equations"]["equations"].items():
        if entry["chosen"] is None:
            problems.append("six equations: no variant of %s passes" % eq)
        else:
            gated.append((loose, eq, entry["variants"][entry["chosen"]]["max_residual_rel"]))
    margin = math.inf
    for gate, where, text in gated:
        m, bad = _margin([(where, text)], gate)
        margin = min(margin, m)
        problems += bad
    sdata = files["structured.json"]
    if sha256(sdata) != ref["structured_sha256"][str(seed)]:
        problems.append("structured.json differs from the reference (sha256)")
    if json.loads(sdata)["propagation"]["max_abs"] != "0/1":
        problems.append("structured propagation is not exact")
    return problems, margin


CHECKS = {"jacobi-verify": check_jacobi_verify,
          "structured-verify": check_structured_verify,
          "jacobi-lattice-lax": check_jacobi_lattice_lax}


def check(workload, files, reference, params, seed):
    """(problems, margin_digits) of one job's artifacts {name: bytes}."""
    missing = [n for n in ARTIFACTS[workload] if n not in files]
    if missing:
        return ["missing artifacts %s" % missing], None
    try:
        problems, margin = CHECKS[workload](files, reference[workload], params, seed)
    except (ValueError, KeyError, TypeError, IndexError, decimal.InvalidOperation) as exc:
        return ["malformed artifact: %s: %s" % (type(exc).__name__, exc)], None
    if margin is not None and math.isinf(margin):
        margin = None
    return problems, margin


# ---- reference files ----

def reference_path(scale, directory=REFERENCE_DIR):
    return Path(directory) / ("%s.json.gz" % scale)


def load_reference(path):
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def save_reference(ref, path):
    # mtime=0 keeps the file byte-identical when the reference is unchanged
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write((json.dumps(ref, indent=0, sort_keys=True) + "\n").encode())
