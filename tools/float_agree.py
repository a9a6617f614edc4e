"""Whether two float artifacts agree by the benchmark oracle's rule.

    python3 tools/float_agree.py OLD NEW REL_TOL

OLD and NEW are each a JSON document or a JSONL file, one JSON value a
line, such as two `verify`, `lax` or `lattice` artifacts of the same run
written by two checkouts.  REL_TOL is the run's rel_tol as a decimal, 1e-80
for 120 digits with a guard of 40.  The rule is perfbench/oracle.py's
`compare`, imported, with OLD as the reference: every non-float leaf equal,
every float leaf within REL_TOL relative, and two residuals below REL_TOL
always agreeing.

Prints one line per float leaf whose text moved (its path, both values and
their relative difference), then each problem `compare` finds, and exits 1
iff there is a problem.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "perfbench")]

import oracle  # noqa: E402


def load(path):
    with open(path) as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return [json.loads(line) for line in text.splitlines() if line]


def moved(old, new, path=""):
    """(path, old, new) of each float leaf whose text differs, where the
    two trees have the same shape."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [m for k in old if k in new
                for m in moved(old[k], new[k], "%s/%s" % (path, k))]
    if isinstance(old, list) and isinstance(new, list):
        return [m for i, (a, b) in enumerate(zip(old, new))
                for m in moved(a, b, "%s/%d" % (path, i))]
    if (isinstance(old, str) and isinstance(new, str) and old != new
            and oracle._FLOAT.match(old) and oracle._FLOAT.match(new)):
        return [(path, old, new)]
    return []


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    old, new = load(argv[0]), load(argv[1])
    tol = oracle.to_decimal(argv[2])
    leaves = moved(old, new)
    for path, a, b in leaves:
        x, y = oracle.to_decimal(a), oracle.to_decimal(b)
        big = max(abs(x), abs(y))
        print("moved %s: %s -> %s (relative %.2e)"
              % (path, a, b, abs(x - y) / big if big else 0))
    problems = oracle.compare(new, old, tol)
    for problem in problems:
        print("problem", problem)
    print("%s: %d float leaves moved, %d problems"
          % ("disagree" if problems else "agree", len(leaves),
             len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
