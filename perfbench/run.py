"""dckp benchmark: one command, three workloads, closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The runner starts one job at a time
(perfbench/job.py, each in a fresh interpreter with the checkout's `src` on
PYTHONPATH, so no cache or memo survives from one job to the next) for as
long as the next job is expected to end within S seconds, and checks each
job's artifacts against the recorded reference (oracle.py).  Before each job
of an untraced run it times fresh interpreters importing dckp.cli, so set-up
is sampled across the whole run like the jobs.  Job and import times are
divided by a reference computation timed in each job process (job.py), which
cancels the shared host's drifting speed.

The next-to-last stdout line is a JSON detail record: the environment, every
job, the margin in digits and the failed ratio.  The last line is the result:
{"correct", "attempted", "failed", "metrics"}, where metrics holds the
end-to-end metrics with --trace 0 and the per-layer metrics with --trace 1.
Exit code 2, with no result, when the checkout has no dckp source.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

SETUP_PROBES = 2        # timed imports before each job of an untraced run
RUN_LIMIT_S = 170       # a run must end within 180 s, so a hung job is cut here

UNITS = {"job_cost": "x_ref", "setup_s": "s", "peak_rss_mb": "MB"}

# setup_s is import time rescaled to a host on which the reference computation
# (job.reference_s) takes this long; see README.md.
NOMINAL_REFERENCE_S = 0.15

# Per-layer metric -> unit, in the order the traced run prints them.
LAYER_UNITS = {**{k: "s" for k in sorted(spans.SELF_SECONDS)},
               **{k: "count" for k in sorted(spans.CALLS)},
               **{"%s.rest.s" % m: "s" for m in sorted(spans.MODULES)},
               "detkit.cofactor.s": "s",
               "detkit.elim_ops": "count",
               "detkit.memo_hit_ratio": "ratio",
               "identities.records": "count",
               "cli.artifact_bytes": "bytes",
               "numerics.margin_digits": "digits",
               "job.self.s": "s",
               "trace.job_s": "s",
               "trace.overhead_s": "s"}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    # import from cached bytecode, as an installed CLI does; the warm-up
    # import of each run writes the cache into the checkout
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def environment():
    import mpmath
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    sources = sorted((SRC / "dckp").glob("*.py"))
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "git_commit": commit,
            "source_sha256": oracle.sha256(b"".join(p.read_bytes() for p in sources))}


def time_import(env):
    # Captured pipes make run() wait on their end-of-file; a bare timed wait
    # polls the child in steps of up to 50 ms, which quantizes the reading.
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import dckp.cli"], env=env, cwd=ROOT,
                   check=True, capture_output=True, timeout=60)
    return time.perf_counter() - t0


def run_job(workload, data_seed, scale, traced, out, env, timeout=RUN_LIMIT_S):
    """Run one job process; its result dict, with the artifacts read back."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "job.py"), "--workload", workload,
           "--data-seed", str(data_seed), "--scale", scale, "--out", str(out)]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "problems": ["timed out"]}
    try:
        job = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        job = {}
    job["traced"] = traced
    job["problems"] = []
    if proc.returncode != 0 or "job_s" not in job:
        job["problems"].append("exit code %d: %s" % (
            proc.returncode, proc.stderr.strip().splitlines()[-1:] or ""))
    job["files"] = {p.name: p.read_bytes() for p in out.iterdir()}
    return job


def measure(workload, seed, seconds, trace, scale="full", reference=None):
    """(detail, result) of one benchmark run."""
    params = workloads.WORKLOADS[workload][scale]
    if reference is None:
        reference = oracle.load_reference(oracle.reference_path(scale))
    data_seed = seed % workloads.DATA_SEEDS
    env = child_env()
    work = WORK / ("%s-%d" % (workload, os.getpid()))
    start = time.perf_counter()
    time_import(env)    # warm-up, writes the bytecode cache
    jobs = []
    first = None
    try:
        while True:
            is_traced = bool(trace) and len(jobs) % 2 == 1
            probes = [] if trace else [time_import(env) for _ in range(SETUP_PROBES)]
            left = RUN_LIMIT_S - (time.perf_counter() - start)
            job = run_job(workload, data_seed, scale, is_traced,
                          work / str(len(jobs)), env, timeout=max(1.0, left))
            job["setup_probes_s"] = probes
            jobs.append(job)
            files = job.pop("files", {})
            if files:
                problems, job["margin_digits"] = oracle.check(
                    workload, files, reference, params, data_seed)
                job["problems"] += problems
                job["artifact_bytes"] = sum(len(v) for v in files.values())
                job["sha256"] = {k: oracle.sha256(v) for k, v in sorted(files.items())}
                if first is None:
                    first = job["sha256"]
                elif job["sha256"] != first:
                    job["problems"].append("artifact not byte-identical to the "
                                           "run's first job")
            # start another job only if it should end within the window
            times = [j["job_s"] for j in jobs if "job_s" in j]
            expected = statistics.median(times) if times else 0.0
            both = not trace or len(jobs) >= 2
            if both and time.perf_counter() - start + expected >= seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(1 for j in jobs if j["problems"])
    plain = [j for j in jobs if not j["traced"] and "job_s" in j]
    traced = [j for j in jobs if j["traced"] and "job_s" in j and j.get("layers")]
    if not plain or (trace and not traced):
        raise RuntimeError("no job produced a timing: %s"
                           % [j["problems"] for j in jobs])
    margins = [j["margin_digits"] for j in jobs if j.get("margin_digits") is not None]
    job_s = [j["job_s"] for j in plain]
    ref_s = statistics.median(r for j in plain for r in j["reference_s"])

    if trace:
        traced.sort(key=lambda j: j["job_s"])
        rep = traced[(len(traced) - 1) // 2]
        values = dict(rep["layers"])
        values["trace.job_s"] = rep["job_s"]
        values["trace.overhead_s"] = (statistics.median(j["job_s"] for j in traced)
                                      - statistics.median(job_s))
        values["cli.artifact_bytes"] = rep.get("artifact_bytes", 0)
        values["numerics.margin_digits"] = rep.get("margin_digits") or 0.0
        metrics = {k: {"value": values[k], "unit": u} for k, u in LAYER_UNITS.items()}
    else:
        # Times in units of the reference computation timed in the job
        # processes: the shared host's speed drifts by up to 1.9x over
        # minutes, and the ratio of the run's medians cancels that drift
        # (see README.md).
        probes = [p for j in plain for p in j["setup_probes_s"]]
        values = {"job_cost": statistics.median(job_s) / ref_s,
                  "setup_s": statistics.median(probes) / ref_s * NOMINAL_REFERENCE_S,
                  "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in plain)}
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}

    detail = {"workload": workload, "seed": seed, "data_seed": data_seed,
              "scale": scale, "trace": int(bool(trace)),
              "environment": environment(),
              "jobs_attempted": len(jobs),
              "failed_ratio": failed / len(jobs),
              "job_median_s": statistics.median(job_s),
              "job_min_s": min(job_s),
              "reference_median_s": ref_s,
              "margin_digits": min(margins) if margins else None,
              "jobs": [{k: v for k, v in j.items() if k != "layers"} for j in jobs]}
    result = {"correct": failed == 0, "attempted": len(jobs), "failed": failed,
              "metrics": metrics}
    return detail, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dckp" / "cli.py").is_file():
        print("perfbench: no dckp source under %s; run from a checkout of the "
              "repository" % SRC, file=sys.stderr)
        return 2
    detail, result = measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
