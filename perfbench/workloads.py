"""Workload definitions shared by the runner, the job process and the oracle.

Pure data: importing this module imports nothing from dckp.  Each workload has
a full size (what the benchmark measures) and a tiny size (what smoke.py runs
in seconds).  Gate tolerances are the pinned tolerances of the acceptance
gate at the full size and scale with the precision at the tiny one.
"""

# The benchmark seed selects one of this many recorded synthetic data sets
# (data seed = seed % DATA_SEEDS); make_reference.py records the exact
# artifact of every one, so any seed is checked against the seed commit.
DATA_SEEDS = 16

WORKLOADS = {
    # `dckp verify --mode jacobi` at its defaults: the CLI default and the
    # criterion-3 grid.  Quadrature is about three quarters of a job; the
    # determinants are a few percent.  No input depends on the seed.
    "jacobi-verify": {
        "full": {"precision": 120, "guard": 40, "n": 4, "s": 2, "t": 2},
        "tiny": {"precision": 30, "guard": 10, "n": 4, "s": 2, "t": 2},
    },
    # `dckp verify --mode structured`: exact mode with no quadrature at all;
    # determinant-bound (det_exact is three quarters of a job, most of it in
    # the cofactor minors behind Praw/Qraw/Rraw).  The seed picks the data.
    "structured-verify": {
        "full": {"n": 14, "s": 2, "t": 2},
        "tiny": {"n": 4, "s": 2, "t": 2},
    },
    # The README library path: build, propagate and report a jacobi lattice,
    # the Lax compatibility/eigen residuals and the six equations on its
    # context, a JSON export, then the same on a structured lattice.  Its
    # quadrature is mostly bimoment_entry (the t-evolution cross-check), and
    # it is the only workload reaching eager family materialisation, the
    # quartic corner solve, lax and polyfam.
    "jacobi-lattice-lax": {
        "full": {"precision": 120, "guard": 40, "n": 8, "s": 2, "t": 3,
                 "lax_K": 8, "six_n": 4, "structured_n": 12,
                 "gate_loose": "1e-60", "gate_tight": "1e-80"},
        "tiny": {"precision": 30, "guard": 10, "n": 5, "s": 2, "t": 3,
                 "lax_K": 5, "six_n": 4, "structured_n": 4,
                 "gate_loose": "1e-15", "gate_tight": "1e-20"},
    },
}

# Float artifacts are compared with the reference to the run's policy
# tolerance rel_tol = 10^-(precision - guard).
def rel_tol(params):
    return "1e-%d" % (params["precision"] - params["guard"])
