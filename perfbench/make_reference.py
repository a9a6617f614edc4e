"""Record the oracle's reference outputs from the current source.

    python3 perfbench/make_reference.py

Run it from the root of a checkout of the commit whose outputs define a
correct job (the reference in perfbench/reference/ comes from the seed
commit, see README.md).  It runs every workload once per recorded data seed,
checks that every gate passes, and writes perfbench/reference/full.json.gz.
smoke.py records a tiny reference of its own through make().
A later commit whose outputs legitimately change re-records it in a change
of its own.
"""

import argparse
import json
import shutil
import sys

import oracle
import run
import workloads


def make(scale, directory=oracle.REFERENCE_DIR, seeds=range(workloads.DATA_SEEDS)):
    env = run.child_env()
    jobs = {}

    def job(workload, seed):
        j = run.run_job(workload, seed, scale, False, run.WORK / "reference", env)
        shutil.rmtree(run.WORK / "reference")
        if j["problems"]:
            raise SystemExit("%s seed %d: %s" % (workload, seed, j["problems"]))
        jobs[(workload, seed)] = j["files"]
        return j["files"]

    def tol(workload):
        return oracle.to_decimal(workloads.rel_tol(workloads.WORKLOADS[workload][scale]))

    jv = job("jacobi-verify", 0)["artifact.jsonl"]
    records, summary = oracle.verify_lines(jv)
    sv = {str(s): oracle.sha256(job("structured-verify", s)["artifact.jsonl"])
          for s in seeds}
    ll = {s: job("jacobi-lattice-lax", s) for s in seeds}
    jacobi = ll[seeds[0]]["jacobi.json"]
    if any(files["jacobi.json"] != jacobi for files in ll.values()):
        raise SystemExit("jacobi lattice artifact is not byte-identical across jobs")
    ref = {"source": run.environment(),
           "jacobi-verify": {"artifact": oracle.round_floats(records + [summary],
                                                               tol("jacobi-verify"))},
           "structured-verify": {"sha256": sv},
           "jacobi-lattice-lax": {
               "jacobi": oracle.round_floats(json.loads(jacobi),
                                             tol("jacobi-lattice-lax")),
               "structured_sha256": {str(s): oracle.sha256(f["structured.json"])
                                     for s, f in ll.items()}}}
    for (workload, seed), files in jobs.items():
        problems, _ = oracle.check(workload, files, ref,
                                   workloads.WORKLOADS[workload][scale], seed)
        if problems:
            raise SystemExit("%s seed %d fails its gates: %s" % (workload, seed, problems))
    path = oracle.reference_path(scale, directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    oracle.save_reference(ref, path)
    return path


def main():
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    print(make("full"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
