"""SHA-256 digests of a fixed matrix of CLI runs and library exports.

    python3 tools/cli_digests.py > digests.txt

Runs each CLI invocation in-process through `dckp.cli.main` and prints one
line per output: the first 16 hex digits of the SHA-256 of its standard
output and standard error, its exit code and its arguments.  It then runs
the `jacobi-lattice-lax` workload of perfbench/job.py at its full size for
data seeds 0, 3 and 9 and prints one line per file it writes.  It takes no
options.  To check that a change keeps every output byte, run it in both
checkouts and `diff` the two outputs: they are equal iff it does.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from dckp import cli  # noqa: E402
import job  # noqa: E402
import workloads  # noqa: E402

_SMALL = ["--n", "4", "--s", "1", "--t", "1", "--precision", "30",
          "--guard", "10"]

RUNS = [
    ["verify"],
    ["verify", "--format", "csv"],
    ["verify", "--precision", "30", "--guard", "10", "--n", "14", "--s", "0",
     "--t", "0"],
    *[["verify", "--mode", "structured", "--n", "14", "--s", "2", "--t", "2",
       "--seed", str(seed)] for seed in (0, 3, 6, 9, 12, 15)],
    ["verify", "--mode", "structured", "--format", "csv"],
    ["verify", "--mode", "structured", "--identities", "4trr,dckp"],
    ["verify", "--mode", "generic", "--seed", "7"],
    ["verify", "--jobs", "2"],
    ["selfcheck", "--precision", "40"],
    *[[cmd, "--mode", mode] + extra
      for mode in ("jacobi", "structured", "generic")
      for cmd, extra in (("lattice", []), ("polys", []),
                         ("polys", ["--format", "csv"]), ("lax", []),
                         ("lax", _SMALL))],
    ["lattice", "--mode", "jacobi", "--n", "5", "--s", "2", "--t", "3",
     "--precision", "30", "--guard", "10", "--format", "csv"],
]


def _digest(*chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def main():
    for argv in RUNS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        print(_digest(out.getvalue(), err.getvalue()), rc, " ".join(argv),
              flush=True)
    params = workloads.WORKLOADS["jacobi-lattice-lax"]["full"]
    for seed in (0, 3, 9):
        with tempfile.TemporaryDirectory() as out:
            rc = job.jacobi_lattice_lax(params, seed, out)
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name)) as fh:
                    text = fh.read()
                print(_digest(text), rc,
                      "jacobi-lattice-lax --data-seed %d %s" % (seed, name),
                      flush=True)


if __name__ == "__main__":
    main()
