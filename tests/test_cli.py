"""Command-line contract: exit codes, artifact shapes, determinism, config
layering.  Commands run in-process through cli.main."""

import argparse
import hashlib
import json
import os
import subprocess
import sys

import mpmath as mp
import pytest

from dckp.numerics import digits_of_agreement, parse_scalar
from dckp import cli, detkit, identities, moments

# ---- selfcheck ----

def test_selfcheck_default_passes(capsys):
    assert cli.main(["selfcheck"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "m00-vs-2ln2" in out and "rational-round-trip" in out


def test_selfcheck_low_precision_still_passes(capsys):
    assert cli.main(["selfcheck", "--precision", "30"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_selfcheck_guard_at_precision_is_usage_error():
    assert cli.main(["selfcheck", "--precision", "30", "--guard", "40"]) == 2


def test_negative_guard_is_usage_error(capsys):
    # rel_tol 10^-90 at 30 digits would report a configuration error as
    # gating failures
    assert cli.main(["verify", "--mode", "jacobi", "--precision", "30",
                     "--guard", "-60"]) == 2
    assert "guard digits (-60) must be nonnegative" in capsys.readouterr().err


def test_importing_the_cli_leaves_the_process_pool_unimported():
    # verify runs in one process: neither importing the CLI nor a verify run
    # in exact or float mode loads a process pool or pickle
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    small = "'--n', '1', '--s', '1', '--t', '1', '--out', os.devnull"
    probe = ("import os, sys, dckp.cli\n"
             "for mode in ('structured', 'jacobi'):\n"
             "    assert dckp.cli.main(['verify', '--mode', mode, "
             "'--precision', '30', %s]) == 0\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] in "
             "('concurrent', 'multiprocessing', 'pickle', '_pickle')))" % small)
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_readme_library_example_runs():
    # README's one python block runs as written, so it cannot drift from
    # the library
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path) as fh:
        blocks = fh.read().split("```python\n")[1:]
    assert len(blocks) == 1
    exec(compile(blocks[0].split("```")[0], "README.md", "exec"), {})


# ---- verify ----

def test_verify_generic_desk_grid(capsys):
    code = cli.main(["verify", "--mode", "generic", "--seed", "7"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().split("\n")
    tail = json.loads(lines[-1])
    assert tail["summary"]["all_gating_pass"] is True
    assert tail["summary"]["gating_failures"] == 0
    assert tail["adjudication"]["xi-psi-sq"]["chosen"] == "confirmed"
    recs = [json.loads(x) for x in lines[:-1]]
    gated = [r for r in recs if r["id"] == "dckp"]
    assert gated and all(r["residual_abs"] == "0/1" for r in gated)
    assert "PASS" in captured.err


def test_verify_jacobi_default_precision(capsys):
    assert cli.main(["verify", "--mode", "jacobi", "--precision", "120"]) == 0
    *records, tail = map(json.loads, capsys.readouterr().out.strip().split("\n"))
    assert tail["summary"]["all_gating_pass"] is True
    # the worst gating headroom, min log10(rel_tol / residual_rel), of this
    # run at the verify defaults (guard 40, n 4, s 2, t 2): 4trr at (4, 2, 2)
    worst = max(mp.mpf(r["residual_rel"]) for r in records
                if r["pass"] is not None)
    assert -80 - mp.log10(worst) >= 47.01


def test_verify_jacobi_runs_no_quadrature(capsys, monkeypatch):
    # the table comes from closed forms; the sweep is only their oracle
    def no_quadrature(*args):
        raise AssertionError("verify ran quadrature")

    monkeypatch.setattr(cli.quadrature, "_nodes", no_quadrature)
    assert cli.main(["verify", "--mode", "jacobi", "--precision", "30",
                     "--guard", "10", "--n", "2", "--s", "1", "--t", "1"]) == 0
    assert "PASS" in capsys.readouterr().err


def test_selfcheck_unconverged_quadrature_exits_1(capsys, monkeypatch):
    # selfcheck sweeps as the oracle of the closed forms: a sweep that cannot
    # converge is a verification failure, not a pass
    monkeypatch.setattr(cli.quadrature, "MAX_LEVEL", cli.quadrature.START_LEVEL)
    assert cli.main(["selfcheck", "--precision", "30", "--guard", "10"]) == 1
    assert "did not converge" in capsys.readouterr().err


def test_lattice_jacobi_runs_no_quadrature(capsys, monkeypatch):
    # the t-evolution check is exact against a closed form: no sweep
    def no_quadrature(*args):
        raise AssertionError("lattice ran quadrature")

    monkeypatch.setattr(cli.quadrature, "_nodes", no_quadrature)
    assert cli.main(["lattice", "--mode", "jacobi", "--precision", "30",
                     "--guard", "10"]) == 0
    assert "sites (jacobi-float mode)" in capsys.readouterr().err


def test_verify_structured_small(capsys):
    code = cli.main(["verify", "--mode", "structured", "--seed", "2",
                     "--n", "2", "--s", "1", "--t", "1"])
    assert code == 0
    tail = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert tail["summary"]["skipped"] > 0   # 4trr off the base t


def test_verify_fails_on_data_that_breaks_an_identity(capsys, monkeypatch):
    # m_23 = m_32 bumped by 1 breaks the structured ladder m_{i+1,j} +
    # m_{i,j+1} = u_i u_j that the recurrence rests on: 4trr fails
    table = moments.synthetic_structured(0, 9, tmax=2)
    table.bimoments[2][3] += 1
    table.bimoments[3][2] += 1
    ids = identities.CATALOG_IDS
    ctx = detkit.DetContext(table, detkit.orders_read(
        identities.evaluations(ids, 4, 2, 2), table))
    recs = identities.run_suite(ctx, 4, 2, 2)
    summary = identities.suite_summary(recs)
    assert summary["gating_failures"] == 9 and not summary["all_gating_pass"]
    assert {r.identity_id for r in recs if r.gating and not r.passed} \
        == {"4trr"}

    monkeypatch.setattr(cli, "_build_table", lambda cfg, K, tmax: table)
    code = cli.main(["verify", "--mode", "structured", "--n", "4", "--s", "2",
                     "--t", "2"])
    assert code == 1
    assert "verify: FAIL (1080 records, 9 gating failures, 24 skipped)" \
        in capsys.readouterr().err


def test_verify_identity_filter_rules():
    assert cli.main(["verify", "--mode", "generic", "--identities", "4trr"]) == 2
    assert cli.main(["verify", "--mode", "generic", "--identities", "nope"]) == 2
    # a filter in which no id gates would be a vacuous pass
    assert cli.main(["verify", "--mode", "generic", "--identities", "eq1",
                     "--n", "2", "--s", "1", "--t", "1"]) == 2
    small = ["--precision", "20", "--n", "1", "--s", "0", "--t", "0"]
    assert cli.main(["verify", "--mode", "jacobi", "--identities", "eq1"]
                    + small) == 0
    assert cli.main(["verify", "--mode", "structured", "--identities", "4trr"]
                    + small) == 0
    # an empty filter gates nothing either
    for empty in ("", ",", " , "):
        assert cli.main(["verify", "--mode", "structured", "--identities",
                         empty] + small) == 2


def test_verify_rejects_repeated_identity(capsys):
    small = ["--mode", "structured", "--n", "1", "--s", "0", "--t", "0"]
    assert cli.main(["verify", "--identities", "eq1,dckp, eq1"] + small) == 2
    assert "repeated identity ids: ['eq1']" in capsys.readouterr().err


def test_verify_jobs_accepts_only_one(tmp_path, capsys):
    # verify runs in one process; --jobs stays only as the value 1
    args = ["verify", "--mode", "generic", "--seed", "3",
            "--n", "2", "--s", "1", "--t", "1"]
    (tmp_path / "cfg.json").write_text(json.dumps({"jobs": 2}))
    for extra, got in ((["--jobs", "0"], 0), (["--jobs", "2"], 2),
                       (["--config", str(tmp_path / "cfg.json")], 2)):
        assert cli.main(args + extra) == 2, extra
        assert ("config error: --jobs must be 1: verify runs in one process, "
                "got %d" % got) in capsys.readouterr().err
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert cli.main(args + ["--out", str(p1)]) == 0
    assert cli.main(args + ["--jobs", "1", "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


# SHA-256 of an exact and a float verify artifact: any change to the bytes
# verify writes fails here
VERIFY_DIGESTS = {
    "structured": (["--mode", "structured", "--n", "6", "--s", "1", "--t", "1",
                    "--seed", "3"],
                   "569fde81002e6c3f6ab4f1ed69d91262899098a5dd3d79dedf970ed0b88b1e5c"),
    "jacobi": (["--mode", "jacobi", "--precision", "30", "--guard", "10"],
               "109633f699302e1bf656f1e940444190e48cf3c975c738a38aa9a63107cda975"),
}


@pytest.mark.parametrize("mode", sorted(VERIFY_DIGESTS))
def test_verify_artifact_bytes_are_pinned(mode, tmp_path):
    argv, digest = VERIFY_DIGESTS[mode]
    path = tmp_path / "a.jsonl"
    assert cli.main(["verify"] + argv + ["--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# artifacts whose precision and rel_tol come from the table's policy: the lax
# meta and six-equation report, and the lattice values
_SMALL = ["--n", "4", "--s", "1", "--t", "1", "--precision", "30", "--guard", "10"]
EXPORT_DIGESTS = {
    "lax-jacobi": (["lax", "--mode", "jacobi"] + _SMALL,
                   "5d5e645f44bed55f92bebae95ed5fa668b402428d55225c2884058333f17d2b9"),
    "lax-structured": (["lax", "--mode", "structured"] + _SMALL,
                       "98809db5a74c4a9cc6cc203c55c657880bbf41e1a66a0fba74201b76c8cba5d4"),
    "lax-generic": (["lax", "--mode", "generic"] + _SMALL,
                    "c8cae672fee7dfec31e5fe38a9f200c7251601a99bc57ff4a274516956158283"),
    "lattice-jacobi-csv": (["lattice", "--mode", "jacobi", "--n", "5", "--s", "2",
                            "--t", "3", "--precision", "30", "--guard", "10",
                            "--format", "csv"],
                           "fcc58dd3c68a0529814ef76fb40bc1e403dbf93be79cc3445702b62ad1949a4a"),
}


@pytest.mark.parametrize("name", sorted(EXPORT_DIGESTS))
def test_export_artifact_bytes_are_pinned(name, tmp_path):
    argv, digest = EXPORT_DIGESTS[name]
    path = tmp_path / "a.out"
    assert cli.main(argv + ["--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_verify_csv_format(tmp_path):
    path = str(tmp_path / "r.csv")
    assert cli.main(["verify", "--mode", "generic", "--seed", "1",
                     "--n", "1", "--s", "0", "--t", "1",
                     "--format", "csv", "--out", path]) == 0
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    assert header[:4] == ["id", "n", "s", "t"]


# ---- config file ----

def test_config_file_layering(tmp_path):
    cfgp = str(tmp_path / "cfg.json")
    with open(cfgp, "w") as fh:
        json.dump({"mode": "generic", "seed": 5, "n": 2, "s": 1, "t": 1}, fh)
    p1, p2 = str(tmp_path / "c1.jsonl"), str(tmp_path / "c2.jsonl")
    assert cli.main(["verify", "--config", cfgp, "--seed", "6",
                     "--out", p1]) == 0
    assert cli.main(["verify", "--mode", "generic", "--seed", "6",
                     "--n", "2", "--s", "1", "--t", "1", "--out", p2]) == 0
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_config_file_unknown_key(tmp_path):
    cfgp = str(tmp_path / "bad.json")
    with open(cfgp, "w") as fh:
        json.dump({"levels": 3}, fh)
    assert cli.main(["selfcheck", "--config", cfgp]) == 2


def test_a_new_option_reaches_every_run_config(monkeypatch):
    # one table: a row added to OPTIONS is a flag, a config key and a
    # run-config field under its own name, with no other edit
    monkeypatch.setitem(cli.OPTIONS, "extra",
                        (int, 7, ("verify",), "an option only this test has"))
    parse = cli._build_parser().parse_args
    assert cli.resolve_config(parse(["verify", "--extra", "3"])).extra == 3
    assert cli.resolve_config(parse(["verify"])).extra == 7
    for name, _ in cli.SUBCOMMANDS:
        cfg = cli.resolve_config(parse([name]))
        assert cfg.command == name
        assert set(cli.OPTIONS) <= set(vars(cfg)), name


# ---- lattice ----

def test_lattice_jacobi_order_zero(capsys):
    assert cli.main(["lattice", "--mode", "jacobi", "--n", "0",
                     "--precision", "40", "--guard", "12"]) == 0
    doc = json.loads(capsys.readouterr().out)
    taus = [s for s in doc["sites"] if s["family"] == "tau" and s["n"] == 0]
    assert taus
    for site in taus:
        assert parse_scalar(site["value"], False, 40) == 1


def test_lattice_exports_full_precision(capsys):
    assert cli.main(["lattice", "--mode", "jacobi", "--n", "1", "--s", "0",
                     "--t", "0", "--precision", "60", "--guard", "20"]) == 0
    doc = json.loads(capsys.readouterr().out)
    tau1 = next(s for s in doc["sites"]
                if s["family"] == "tau" and s["n"] == 1)
    with mp.workdps(80):
        d = digits_of_agreement(mp.mpf(tau1["value"]), 2 * mp.ln(2))
    assert d >= 55


def test_lattice_csv(tmp_path):
    path = str(tmp_path / "lat.csv")
    assert cli.main(["lattice", "--mode", "generic", "--seed", "2",
                     "--n", "1", "--s", "1", "--t", "1",
                     "--format", "csv", "--out", path]) == 0
    with open(path) as fh:
        assert fh.readline().startswith("family,")


# ---- polys ----

def test_polys_generic_monic_heads(capsys):
    assert cli.main(["polys", "--mode", "generic", "--seed", "1",
                     "--n", "1", "--s", "0", "--t", "0"]) == 0
    rows = [json.loads(x) for x in capsys.readouterr().out.strip().split("\n")]
    p0 = next(r for r in rows if r["family"] == "P" and r["n"] == 0)
    assert p0["coeffs"] == ["1/1"]
    assert all(r["coeffs"][-1] == "1/1" for r in rows if "coeffs" in r)


def test_polys_jacobi_full_precision(capsys):
    assert cli.main(["polys", "--mode", "jacobi", "--precision", "60",
                     "--guard", "20", "--n", "1", "--s", "0", "--t", "0"]) == 0
    rows = [json.loads(x) for x in capsys.readouterr().out.strip().split("\n")]
    p1 = next(r for r in rows if r["family"] == "P" and r["n"] == 1)
    with mp.workdps(80):
        d = digits_of_agreement(mp.mpf(p1["coeffs"][0]), -1 / (4 * mp.ln(2)))
    assert d >= 55


# ---- lax ----

def test_lax_usage_errors():
    assert cli.main(["lax", "--mode", "generic", "--format", "csv"]) == 2
    assert cli.main(["lax", "--mode", "generic", "--n", "3"]) == 2


def test_lax_jacobi_report(capsys):
    assert cli.main(["lax", "--mode", "jacobi", "--precision", "40",
                     "--guard", "12", "--n", "4", "--s", "0", "--t", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    eqs = doc["six_equations"]["equations"]
    assert eqs["eq1"]["chosen"] == "printed"
    assert eqs["eq4"]["chosen"] == "repaired"
    site = doc["sites"][0]
    assert set(site["compat"]) == {"compat_MN", "compat_LN", "compat_ML"}
    assert set(site["eigen"]) == {"L_eigen", "N_shift", "M_shift"}


def test_lax_structured_skips_are_reported(capsys):
    assert cli.main(["lax", "--mode", "structured", "--seed", "1",
                     "--n", "4", "--s", "0", "--t", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    site = doc["sites"][0]
    assert site["compat"]["compat_MN"] == "0/1"
    assert site["compat"]["compat_ML"] is None
    assert doc["six_equations"]["equations"]["eq6"]["chosen"] is None


# ---- argument plumbing ----

GRID_FLAGS = {"--config", "--precision", "--guard", "--mode", "--n", "--s",
              "--t", "--seed", "--out", "--format"}


def test_each_subcommand_takes_only_the_options_it_reads(tmp_path, capsys):
    parser = cli._build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    accepted = {name: {flag for action in sp._actions
                       for flag in action.option_strings} - {"-h", "--help"}
                for name, sp in sub.choices.items()}
    assert accepted == {
        "selfcheck": {"--config", "--precision", "--guard"},
        "lattice": GRID_FLAGS,
        "polys": GRID_FLAGS,
        "lax": GRID_FLAGS - {"--format"},
        "verify": GRID_FLAGS | {"--jobs", "--identities"}}
    for argv in (["polys", "--identities", "eq1"], ["lattice", "--jobs", "4"],
                 ["selfcheck", "--mode", "structured"],
                 ["verify", "--quad-level", "6"]):
        assert cli.main(argv) == 2, argv
        # reported with the subcommand's own usage, not the top-level one
        err = capsys.readouterr().err
        assert "usage: dckp %s " % argv[0] in err, err
        assert "dckp %s: error: unrecognized arguments: %s" % (
            argv[0], " ".join(argv[1:])) in err, err
    # a config file may hold only the keys its subcommand reads
    for command, key, value in (("selfcheck", "mode", "generic"),
                                ("lattice", "jobs", 2),
                                ("polys", "identities", "eq1"),
                                ("lax", "format", "json"),
                                ("verify", "quad_level", 6)):
        path = tmp_path / ("%s.json" % command)
        path.write_text(json.dumps({key: value}))
        assert cli.main([command, "--config", str(path)]) == 2, command


@pytest.mark.parametrize("config, argv", [
    ({"n": "4"}, []),
    ({"jobs": 1.5}, []),
    ({"n": True}, []),
    (None, ["--out", "missing-dir/x.jsonl"]),
], ids=["str-for-int", "float-for-int", "bool-for-int", "unwritable-out"])
def test_bad_input_values_are_usage_errors(tmp_path, monkeypatch, capsys,
                                           config, argv):
    monkeypatch.chdir(tmp_path)
    argv = ["verify", "--mode", "generic", "--s", "0", "--t", "0"] + argv
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ["--config", "cfg.json"]
    assert cli.main(argv) == 2
    assert "config error:" in capsys.readouterr().err


def test_negative_grid_rejected():
    assert cli.main(["verify", "--mode", "generic", "--n", "-1"]) == 2


def test_unknown_mode_rejected():
    assert cli.main(["verify", "--mode", "hermite"]) == 2
