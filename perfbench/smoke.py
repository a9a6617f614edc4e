"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

Records a tiny reference from the current source, then checks that:
  - every workload, untraced and traced, prints exactly the metrics that
    BENCHMARK.json names, each with its unit, and is correct;
  - the traced self times add up to the traced job time;
  - the oracle rejects a corrupted artifact of each workload;
  - the runner exits nonzero, printing no result, without the dckp source.
Exit code 0 when every check passes.
"""

import json
import numbers
import shutil
import subprocess
import sys

import make_reference
import oracle
import run
import workloads

SEED = 0


def require(cond, msg):
    if not cond:
        raise SystemExit("smoke: FAIL: " + msg)


def check_result(workload, trace, result, spec):
    listed = spec["per_layer" if trace else "end_to_end"]
    require(set(result) == {"correct", "attempted", "failed", "metrics"},
            "%s: result keys %s" % (workload, sorted(result)))
    require(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
            "%s trace=%d: not correct: %s" % (workload, trace, result))
    metrics = result["metrics"]
    require(set(metrics) == {m["name"] for m in listed},
            "%s trace=%d: metric names differ from BENCHMARK.json: %s"
            % (workload, trace, sorted(set(metrics) ^ {m["name"] for m in listed})))
    for m in listed:
        got = metrics[m["name"]]
        require(got["unit"] == m["unit"] and isinstance(got["value"], numbers.Real),
                "%s: metric %s is %s" % (workload, m["name"], got))
    if trace:
        total = sum(v["value"] for k, v in metrics.items()
                    if k.endswith(".s") and k != "detkit.cofactor.s")
        require(abs(total - metrics["trace.job_s"]["value"]) < 1e-6,
                "%s: self times sum to %s, traced job took %s"
                % (workload, total, metrics["trace.job_s"]["value"]))


def corrupt(workload, files):
    """One corrupted copy per workload, as {name: bytes}."""
    files = dict(files)
    if workload == "structured-verify":
        text = files["artifact.jsonl"].decode()
        files["artifact.jsonl"] = text.replace('"s": 1', '"s": 2', 1).encode()
    elif workload == "jacobi-verify":
        text = files["artifact.jsonl"].decode()
        files["artifact.jsonl"] = text.replace('"chosen": "confirmed"',
                                               '"chosen": "printed"', 1).encode()
    else:
        doc = json.loads(files["jacobi.json"])
        site = next(s for s in doc["sites"] if s["family"] == "tau" and s["n"] == 2)
        v = site["value"]       # change its tenth character, a mantissa digit
        site["value"] = v[:10] + ("1" if v[10] != "1" else "2") + v[11:]
        files["jacobi.json"] = json.dumps(doc).encode()
    return files


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    smoke_dir = run.WORK / "smoke"
    shutil.rmtree(smoke_dir, ignore_errors=True)
    ref = oracle.load_reference(make_reference.make("tiny", smoke_dir, seeds=(SEED,)))
    require(ref["source"]["mpmath_backend"] in ("python", "gmpy"),
            "environment block lacks the mpmath backend")

    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            _, result = run.measure(workload, SEED, 0, trace, scale="tiny",
                                    reference=ref)
            check_result(workload, trace, result, spec)

        params = workloads.WORKLOADS[workload]["tiny"]
        job = run.run_job(workload, SEED, "tiny", False, smoke_dir / "job", run.child_env())
        problems, _ = oracle.check(workload, job["files"], ref, params, SEED)
        require(not problems, "%s: clean artifact rejected: %s" % (workload, problems))
        problems, _ = oracle.check(workload, corrupt(workload, job["files"]), ref,
                                   params, SEED)
        require(problems, "%s: corrupted artifact accepted" % workload)

    bare = smoke_dir / "bare"
    shutil.copytree(run.BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable] + spec["command"][1:]
                          + ["--workload", "jacobi-verify", "--seed", "0",
                             "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    require(proc.returncode != 0 and not proc.stdout,
            "runner without the dckp source: exit %d, stdout %r"
            % (proc.returncode, proc.stdout[:200]))
    shutil.rmtree(smoke_dir, ignore_errors=True)
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
