"""One benchmark job, run by run.py in a fresh interpreter.

    python3 perfbench/job.py --workload NAME --data-seed S --scale full|tiny
                             --out DIR [--trace]

The runner puts the checkout's `src` on PYTHONPATH.  The job imports dckp,
then times one workload from the end of import to its artifact being
written in DIR, with every cache cold.  Right before and right after the
workload it times a fixed reference computation, which measures how fast the
shared host runs at that moment.  The last stdout line is a JSON object:
job_s, the two reference times, peak resident memory, the exit code the
workload's CLI returned and, with --trace, the per-layer metrics of
spans.py.
"""

import argparse
import gc
import json
import os
import resource
import sys
import time

import workloads


def jacobi_verify(p, seed, out):
    from dckp import cli
    return cli.main(["verify", "--mode", "jacobi", "--jobs", "1",
                     "--precision", str(p["precision"]), "--guard", str(p["guard"]),
                     "--n", str(p["n"]), "--s", str(p["s"]), "--t", str(p["t"]),
                     "--out", os.path.join(out, "artifact.jsonl")])


def structured_verify(p, seed, out):
    from dckp import cli
    return cli.main(["verify", "--mode", "structured", "--jobs", "1",
                     "--seed", str(seed),
                     "--n", str(p["n"]), "--s", str(p["s"]), "--t", str(p["t"]),
                     "--out", os.path.join(out, "artifact.jsonl")])


def _export(lat, prop, digits):
    """Propagated lattice plus its propagation report, as written to disk."""
    from dckp import lattice
    from dckp.numerics import fmt_scalar
    rep = lattice.propagation_report(prop, lat)
    doc = prop.to_json_dict()
    doc["propagation"] = {"sites": rep["sites"],
                          "max_abs": fmt_scalar(rep["max_abs"], digits),
                          "max_rel": fmt_scalar(rep["max_rel"], digits)}
    return doc


def jacobi_lattice_lax(p, seed, out):
    from dckp import TolerancePolicy, identities, lattice, lax
    from dckp.numerics import fmt_scalar
    digits = identities.REPORT_DIGITS
    policy = TolerancePolicy(precision_digits=p["precision"], guard_digits=p["guard"])
    lat = lattice.build_lattice("jacobi-float", p["n"], p["s"], p["t"],
                                {"precision": p["precision"], "guard": p["guard"]})
    doc = _export(lat, lattice.propagate(lat, 0, p["t"]), digits)
    doc["lax"] = []
    for s in (0, 1):
        for t in (0, 1):
            comp = lax.compat_residuals(lat.ctx, p["lax_K"], s, t)
            eig = lax.eigen_residuals(lat.ctx, p["lax_K"], s, t)
            doc["lax"].append({
                "s": s, "t": t,
                "compat": {k: fmt_scalar(v, digits) for k, v in comp.items()
                           if k.startswith("compat")},
                "eigen": {k: fmt_scalar(v, digits) for k, v in eig.items()
                          if k != "K"}})
    doc["six_equations"] = lax.verify_six_equations(lat.ctx, p["six_n"], 0, 0,
                                                    policy=policy)
    with open(os.path.join(out, "jacobi.json"), "w") as fh:
        fh.write(json.dumps(doc, indent=1) + "\n")

    slat = lattice.build_lattice("synthetic-structured", p["structured_n"],
                                 p["s"], p["t"], {"seed": seed})
    sdoc = _export(slat, lattice.propagate(slat, 0, p["t"]), digits)
    with open(os.path.join(out, "structured.json"), "w") as fh:
        fh.write(json.dumps(sdoc, indent=1) + "\n")
    return 0


def reference_s():
    """Wall time of a fixed pure-Python computation: big-integer modular
    arithmetic and dict updates, the operations mpmath's Python backend and
    Fraction arithmetic spend their time in.  No dckp or mpmath code runs in
    it, so a change to the program cannot change it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        m = 10 ** 140 + 33
        a = 7 ** 160
        acc = 1
        for i in range(60000):
            acc = (acc * a + i) % m
        d = {}
        for i in range(250000):
            d[i % 1000] = d.get(i % 1000, 0) + i * 0.5
        return time.perf_counter() - t0
    finally:
        gc.enable()


RUN = {"jacobi-verify": jacobi_verify,
       "structured-verify": structured_verify,
       "jacobi-lattice-lax": jacobi_lattice_lax}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(RUN))
    ap.add_argument("--data-seed", type=int, required=True)
    ap.add_argument("--scale", required=True, choices=("full", "tiny"))
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    import dckp
    import dckp.cli  # noqa: F401  (the CLI's import is part of setup, not of the job)
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.instrument(tracer, dckp)
    params = workloads.WORKLOADS[args.workload][args.scale]
    before = reference_s()
    t0 = time.perf_counter()
    rc = RUN[args.workload](params, args.data_seed, args.out)
    job_s = time.perf_counter() - t0
    after = reference_s()
    result = {"rc": rc, "job_s": job_s, "reference_s": [before, after],
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "layers": tracer.summary(job_s) if tracer else None}
    sys.stdout.write(json.dumps(result) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
