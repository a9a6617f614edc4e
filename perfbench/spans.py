"""Span tracer for the traced benchmark run.

The tracer wraps, from outside the program, every public function of each
dckp module and every public method of its classes.  Each call is a span;
a span's self time is its duration minus the time of the spans it encloses,
and everything outside any span is the self time of the job's root span, so
the self times of one job add up to its traced wall time.  Spans are
aggregated in memory per name and reported when the job ends.

Not wrapped: scalar accessors (one table or matrix entry per call, so a span
would cost more than the call) and `integrate_01`, the level-doubling kernel
that its callers' times are meant to include, as for the private kernels.
"""

import functools
import inspect
import json
import time

MODULES = ("numerics", "quadrature", "moments", "detkit", "polyfam",
           "identities", "lax", "lattice", "cli")

ACCESSORS = frozenset({"m", "u", "ph", "phi", "zero", "one", "has_single",
                       "has_phi", "wp", "get", "sites"})
KERNELS = frozenset({"quadrature.integrate_01"})

# The memoized DetContext entry points: a call is a memo miss when it computes
# at least one determinant.
MEMOIZED = frozenset("detkit.DetContext." + m for m in
                     ("tau", "xi", "tauhat", "sigma", "psi", "sigma_row",
                      "sigtilde", "tautilde", "Praw", "Qraw", "Rraw"))
COFACTOR = frozenset("detkit.DetContext." + m for m in ("Praw", "Qraw", "Rraw"))
DETERMINANTS = frozenset({"detkit.det_exact", "detkit.det_float"})
SUITE = "identities.run_suite"
# Artifact serialization, wherever it is called from: the to_json_dict
# methods and the json encoder.
SERIALIZE = "cli.serialize"

# Per-layer metric -> span name (".s" is self seconds, ".calls" a count).
SELF_SECONDS = {
    "quadrature.bimoment_table.s": "quadrature.bimoment_table",
    "quadrature.single_vector.s": "quadrature.single_vector",
    "quadrature.phi_vector.s": "quadrature.phi_vector",
    "quadrature.bimoment_entry.s": "quadrature.bimoment_entry",
    "moments.build_jacobi.s": "moments.build_jacobi",
    "moments.evolve_t.s": "moments.MomentTable.evolve_t",
    "detkit.det_exact.s": "detkit.det_exact",
    "detkit.det_float.s": "detkit.det_float",
    "identities.run_suite.s": "identities.run_suite",
    "identities.variant_report.s": "identities.variant_report",
    "polyfam.poly.s": "polyfam.poly",
    "lax.compat_residuals.s": "lax.compat_residuals",
    "lax.eigen_residuals.s": "lax.eigen_residuals",
    "lax.verify_six_equations.s": "lax.verify_six_equations",
    "lattice.build_lattice.s": "lattice.build_lattice",
    "lattice.propagate.s": "lattice.propagate",
    "cli.serialize.s": SERIALIZE,
    "numerics.fmt_scalar.s": "numerics.fmt_scalar",
}
CALLS = {
    "quadrature.single_vector.calls": "quadrature.single_vector",
    "quadrature.bimoment_entry.calls": "quadrature.bimoment_entry",
    "moments.evolve_t.calls": "moments.MomentTable.evolve_t",
    "detkit.det_exact.calls": "detkit.det_exact",
    "detkit.det_float.calls": "detkit.det_float",
    "polyfam.poly.calls": "polyfam.poly",
    "lattice.solve_dckp_corner.calls": "lattice.solve_dckp_corner",
    "numerics.fmt_scalar.calls": "numerics.fmt_scalar",
}


class _Frame:
    __slots__ = ("name", "child", "missed")

    def __init__(self, name):
        self.name = name
        self.child = 0.0
        self.missed = False


class Tracer:
    """Aggregated spans of one job: self seconds and calls per span name,
    plus the determinant counters that need the enclosing spans."""

    def __init__(self):
        self.stack = [_Frame("job")]
        self.self_s = {}
        self.calls = {}
        self.cofactor_s = 0.0
        self.elim_ops = 0
        self.memo_calls = 0
        self.memo_misses = 0
        self.records = 0

    def wrap(self, name, fn):
        stack, clock = self.stack, time.perf_counter
        self_s, calls = self.self_s, self.calls
        self_s.setdefault(name, 0.0)
        calls.setdefault(name, 0)
        is_det = name in DETERMINANTS
        is_memo = name in MEMOIZED
        is_suite = name == SUITE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = _Frame(name)
            stack.append(frame)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1].child += dt
                self_s[name] += dt - frame.child
                calls[name] += 1
                if is_det:
                    self._determinant(len(args[0]), dt)
                elif is_memo:
                    self.memo_calls += 1
                    self.memo_misses += frame.missed
                elif is_suite and result is not None:
                    self.records += len(result)
        return traced

    def _determinant(self, n, dt):
        self.elim_ops += n ** 3
        marked = False
        for frame in reversed(self.stack):
            if not marked and frame.name in MEMOIZED:
                frame.missed = marked = True
            if frame.name in COFACTOR:
                self.cofactor_s += dt
                break

    def summary(self, job_s):
        """Per-layer metrics of one job whose traced wall time is job_s."""
        covered = sum(self.self_s.values())
        # a function a later change removes reads 0
        out = {k: self.self_s.get(v, 0.0) for k, v in SELF_SECONDS.items()}
        out.update({k: self.calls.get(v, 0) for k, v in CALLS.items()})
        named = set(SELF_SECONDS.values())
        for mod in MODULES:
            out[mod + ".rest.s"] = sum(
                s for name, s in self.self_s.items()
                if name.split(".", 1)[0] == mod and name not in named)
        out["detkit.cofactor.s"] = self.cofactor_s
        out["detkit.elim_ops"] = self.elim_ops
        out["detkit.memo_hit_ratio"] = (
            1 - self.memo_misses / self.memo_calls if self.memo_calls else 0.0)
        out["identities.records"] = self.records
        out["job.self.s"] = job_s - covered
        return out


def instrument(tracer, package):
    """Replace the public functions and methods of `package`'s modules, and
    every reference to them (re-exports, dispatch dicts), by traced wrappers.
    """
    modules = [getattr(package, m) for m in MODULES]
    wrapped = {}    # id(original) -> (original, wrapper)

    def wrap(name, fn):
        w = tracer.wrap(name, fn)
        wrapped[id(fn)] = (fn, w)
        return w

    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                name = "%s.%s" % (short, attr)
                if name not in KERNELS:
                    setattr(mod, attr, wrap(name, obj))
            elif inspect.isclass(obj):
                for meth, fn in list(vars(obj).items()):
                    if (meth.startswith("_") or meth in ACCESSORS
                            or not inspect.isfunction(fn)):
                        continue
                    name = (SERIALIZE if meth == "to_json_dict"
                            else "%s.%s.%s" % (short, attr, meth))
                    setattr(obj, meth, wrap(name, fn))

    def swap(obj):
        hit = wrapped.get(id(obj))
        return hit[1] if hit is not None and hit[0] is obj else obj

    for mod in modules + [package]:
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("__"):
                continue
            if isinstance(obj, dict):
                for k, v in list(obj.items()):
                    obj[k] = swap(v)
            elif swap(obj) is not obj:
                setattr(mod, attr, swap(obj))
    json.dumps = tracer.wrap(SERIALIZE, json.dumps)
    json.dump = tracer.wrap(SERIALIZE, json.dump)
