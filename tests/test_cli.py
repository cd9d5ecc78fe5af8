"""Command-line surface: formats, determinism, exit codes."""

import ast
import hashlib
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import pytest

import q3series
from q3series import cli
from q3series.cli import main
from q3series.counts import CountingFunction, Kind
from q3series.series import TruncatedSeries
from q3series.verifier import SuiteConfig, SuiteReport

import oracles
from oracles import enumerate_count


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExpand:
    def test_regular_triple_csv(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--spec", "E(3)^3 * E(1)^-3",
                               "--order", "6", "--format", "csv")
        assert code == 0 and out.strip() == "1,3,9,19,42,81"

    def test_laurent_json(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--spec", "q^-1 * E(1)^3 * E(9)^-3",
                               "--order", "2", "--format", "json")
        data = json.loads(out)
        assert code == 0 and data["first_exponent"] == -1
        assert data["coefficients"][0] == "1"

    def test_bad_grammar_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "expand", "--spec", "F(2)^3", "--order", "4")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("spec, order, fmt, digest", [
        ("q^-2 * E(1)^7 * E(3)^-5", 40, "csv",
         "b1fd0f24a5887eb5e94a60165b049fd77a909656bc90b7832edb253284bb8ac0"),
        ("q^1 * E(3)^-4 * E(2)^5 * E(1)^-11", 60, "json",
         "2a314245b78f3c49c51cdc7e40efe1a38bc18e2812dd24d40fc483c759247251"),
        ("q^-1 * E(3)^15 * E(1)^-13 * E(9)^2", 50, "text",
         "b6d21f775534d52bf171fc9c2f35dd47cccecad471cdfa32360ff7427901d6bb"),
    ])
    def test_output_digest(self, capsys, spec, order, fmt, digest):
        # Laurent windows and exponents off multiples of 3, pinned by the
        # sha256 of the printed output
        code, out, _ = run_cli(capsys, "expand", "--spec", spec, "--order", str(order),
                               "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestCount:
    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--kind", "regular", "--ell", "3",
                               "--nmax", "5", "--format", "csv")
        assert code == 0 and out.strip() == "1,3,9,19,42,81"

    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    @pytest.mark.parametrize("kind, ell", [("p3", None), ("regular", 2), ("twocolor", 3)])
    def test_window_from_nmin_matches_enumeration(self, capsys, fmt, kind, ell):
        fn = CountingFunction(Kind(kind), ell)
        argv = ["count", "--kind", kind, "--nmin", "7", "--nmax", "30", "--format", fmt]
        code, out, _ = run_cli(capsys, *argv, *(["--ell", str(ell)] if ell else []))
        want = [enumerate_count(fn, n) for n in range(7, 31)]
        if fmt == "csv":
            got = [int(v) for v in out.strip().split(",")]
        elif fmt == "json":
            data = json.loads(out)
            assert data["function"] == fn.label() and data["first_n"] == 7
            got = [int(v) for v in data["values"]]
        else:
            lines = [line.split("\t") for line in out.strip().splitlines()]
            assert [int(n) for n, _ in lines] == list(range(7, 31))
            got = [int(v) for _, v in lines]
        assert code == 0 and got == want

    def test_missing_ell_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "count", "--kind", "regular", "--nmax", "5")
        assert code == 2

    def test_p3_ell_exits_2(self, capsys):
        # p3 has no modulus: a stray --ell would be dropped and p3 printed
        assert run_cli(capsys, "count", "--kind", "p3", "--ell", "5", "--nmax", "3") == \
            (2, "", "error: p3 takes no modulus parameter\n")


class TestMTable:
    def test_seed_block(self, capsys):
        code, out, _ = run_cli(capsys, "mtable", "--imax", "5", "--jmax", "5")
        rows = [list(map(int, line.split(","))) for line in out.strip().splitlines()]
        assert code == 0
        assert rows == [
            [9, 0, 0, 0, 0],
            [6, 243, 0, 0, 0],
            [1, 243, 6561, 0, 0],
            [0, 90, 8748, 177147, 0],
            [0, 15, 4860, 295245, 4782969],
        ]

    def test_json_strings(self, capsys):
        code, out, _ = run_cli(capsys, "mtable", "--imax", "2", "--jmax", "2",
                               "--format", "json")
        data = json.loads(out)
        assert data["rows"] == [["9", "0"], ["6", "243"]]

    def test_deep_table_digest(self, capsys):
        # 40 columns grown by the recurrence, pinned by the sha256 of the printed CSV
        code, out, _ = run_cli(capsys, "mtable", "--imax", "60", "--jmax", "40")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "9377bdd757b210ceb948dc1472d6afc8b356aee14e731109227c0d95dd219be5"

    @pytest.mark.parametrize("imax, jmax", [(2, -1), (0, 3)])
    def test_size_below_one_exits_2(self, capsys, imax, jmax):
        code, out, err = run_cli(capsys, "mtable", "--imax", str(imax), "--jmax", str(jmax))
        assert (code, out, err) == (2, "", "error: need imax >= 1 and jmax >= 1\n")


class TestVector:
    def test_json_with_valuations(self, capsys):
        code, out, _ = run_cli(capsys, "vector", "--family", "r", "--alpha", "0",
                               "--mu", "2", "--jmax", "8")
        data = json.loads(out)
        assert code == 0
        assert data["entries"][0] == {"j": 1, "value": "9", "valuation": 2, "bound": 2}
        # beyond the support the entries vanish: their valuation is null, not a number
        assert data["entries"][3] == {"j": 4, "value": "0", "valuation": None, "bound": 15}

    @pytest.mark.parametrize("alpha, jmax", [(0, 0), (0, -1), (-1, 6)])
    def test_negative_alpha_or_jmax_below_one_exits_2(self, capsys, alpha, jmax):
        code, out, err = run_cli(capsys, "vector", "--family", "r", "--alpha", str(alpha),
                                 "--mu", "2", "--jmax", str(jmax))
        assert (code, out, err) == (2, "", "error: need alpha >= 0 and jmax >= 1\n")

    @pytest.mark.parametrize("family, alpha, mu, jmax, digest", [
        ("v", 3, 6, 2, "b2365688e64b358c4f233f9f847a587f8569c8cad5e08e5fa333f313ca24ca15"),
        ("z", 1, 4, 6, "904d9fcae36b7e1b4ddb67aa55d70447ddf46120d632352563316680b53a91a3"),
        ("x", 3, 8, 40, "97ea3c9f9794726920b696806b8a346417f6e60a45de25f3a5d97eec24e33c73"),
    ])
    def test_deep_chain_digest(self, capsys, family, alpha, mu, jmax, digest):
        # deep chains (seeds up to x_8, up to 11 steps), pinned by the
        # sha256 of the printed JSON
        code, out, _ = run_cli(capsys, "vector", "--family", family, "--alpha", str(alpha),
                               "--mu", str(mu), "--jmax", str(jmax))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestVerify:
    def test_congruence_pass_exit_0(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "congruence", "--case", "MR1",
                               "--alpha", "0", "--beta", "0", "--nmax", "60")
        data = json.loads(out)
        assert code == 0 and data["status"] == "PASS"

    def test_congruence_fail_exit_1(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "congruence", "--case", "MR8",
                               "--alpha", "0", "--beta", "1", "--ell", "3",
                               "--nmax", "30")
        data = json.loads(out)
        assert code == 1 and data["status"] == "FAIL" and data["failures"]

    def test_conjecture_fail_does_not_gate(self, capsys):
        # conjecture probes report but never flip the exit code
        code, out, _ = run_cli(capsys, "verify", "congruence", "--case", "BC1",
                               "--k", "1", "--m", "0", "--nmax", "30")
        assert code == 0

    def test_branch_case_negative_range_exit_2(self, capsys):
        # an empty range would fit no constant; a negative depth is refused instead
        code, out, err = run_cli(capsys, "verify", "congruence", "--case", "MR10", "--alpha", "0",
                                 "--beta", "0", "--ell", "3", "--nmax", "-1")
        assert (code, out, err) == (2, "", "error: MR10: n_max=-1 must be at least 1\n")

    @pytest.mark.parametrize("argv", [
        ("--case", "MR10", "--alpha", "0", "--beta", "0", "--ell", "3"),  # n = 0 fits the constant
        ("--case", "MR4", "--alpha", "0", "--beta", "0", "--p", "7", "--k", "0"),  # 7 | 0 is dropped
    ])
    def test_single_index_range_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", "congruence", *argv, "--nmax", "0")
        assert (code, out, err) == (2, "", f"error: {argv[1]}: n_max=0 must be at least 1\n")

    def test_identity(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "identity", "--id", "H1",
                               "--alpha", "0", "--terms", "20", "--mode", "exact")
        data = json.loads(out)
        assert code == 0 and data["exact_equal"] is True

    @pytest.mark.parametrize("argv", [
        ("congruence", "--case", "MR5", "--alpha", "0", "--beta", "-1"),  # would PASS at exponent 0
        ("congruence", "--case", "B1", "--beta", "-1"),
        ("congruence", "--case", "T1", "--beta", "-1"),  # would FAIL outside the family
        ("congruence", "--case", "MR4", "--alpha", "0", "--beta", "0", "--p", "7", "--k", "-1"),
        ("identity", "--id", "T11", "--alpha", "-1", "--beta", "0"),
        ("congruence", "--case", "MR1", "--alpha", "0", "--beta", "0", "--nmax", "-1"),
        ("identity", "--id", "H1", "--alpha", "0", "--terms", "0"),
    ])
    def test_negative_parameter_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert re.fullmatch(r"error: \w+: \w+=(-1 must be at least 0|0 must be at least 1)\n", err)

    @pytest.mark.parametrize("case_id", ["BC1", "BC2"])
    def test_open_statement_k_0_exit_2(self, capsys, case_id):
        code, out, err = run_cli(capsys, "verify", "congruence", "--case", case_id,
                                 "--k", "0", "--m", "1", "--nmax", "20")
        assert (code, out, err) == (2, "", f"error: {case_id}: k=0 must be at least 1\n")

    @pytest.mark.parametrize("argv, message", [
        # MR1's ell is 3^(2 alpha + 1): a stray --ell would be dropped and regular(3) checked
        (("congruence", "--case", "MR1", "--alpha", "0", "--beta", "0", "--ell", "9", "--nmax", "5"),
         "MR1 takes no parameters ['ell']; it takes ['alpha', 'beta']"),
        (("identity", "--id", "H1", "--alpha", "0", "--beta", "3"),
         "H1 takes no parameters ['beta']; it takes ['alpha']"),
    ])
    def test_unknown_parameter_exit_2(self, capsys, argv, message):
        assert run_cli(capsys, "verify", *argv) == (2, "", f"error: {message}\n")

    def test_identity_missing_parameter_names_identity(self, capsys):
        code, out, err = run_cli(capsys, "verify", "identity", "--id", "T11", "--alpha", "0")
        assert (code, out, err) == (2, "", "error: T11 needs parameters ['beta']\n")

    @pytest.mark.parametrize("p", [9, 2, 7])  # not prime, even, -3 a square mod 7
    def test_nonresidue_prime_check_names_case(self, capsys, p):
        code, out, err = run_cli(capsys, "verify", "congruence", "--case", "MR16", "--alpha", "0",
                                 "--beta", "0", "--p", str(p), "--k", "0", "--nmax", "5")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"error: MR16: p={p} ")

    def test_invalid_class_member_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "congruence", "--case", "MR7",
                               "--alpha", "0", "--beta", "0", "--ell", "4")
        assert code == 2 and "error" in err

    def test_suite_without_config_runs_the_defaults(self, monkeypatch, capsys):
        # no --config: run_suite gets exactly SuiteConfig(), no copy of its grids
        seen = []
        monkeypatch.setattr(cli, "run_suite", lambda cfg: seen.append(cfg) or SuiteReport())
        assert run_cli(capsys, "verify", "suite", "--format", "text") == (1, "overall: SKIPPED\n", "")
        assert seen == [SuiteConfig()]

    def test_suite_text_lines_match_single_checks(self, tmp_path, capsys):
        # each suite line is the first line `verify congruence --format text` prints
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"include": ["MR1", "MR7"], "alphas": [0], "betas": [0],
                                    "class_reps_per_sign": 1, "n_max": 20, "n_max_small": 20}))
        code, out, _ = run_cli(capsys, "verify", "suite", "--config", str(path), "--format", "text")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 4 and lines[-1] == "overall: PASS"
        for line, ell in zip(lines, (None, 3, 6)):
            case = line.split()[0]
            argv = ["--case", case, "--alpha", "0", "--beta", "0", "--nmax", "20"]
            argv += ["--ell", str(ell)] if ell else []
            _, single, _ = run_cli(capsys, "verify", "congruence", *argv, "--format", "text")
            assert single.splitlines()[0] == line

    def test_suite_with_config(self, tmp_path, capsys):
        cfg = replace(SuiteConfig(), include=("MR1", "G1"), n_max=30, n_max_small=30,
                      priors_n_max=30)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(asdict(cfg)))
        code, out, _ = run_cli(capsys, "verify", "suite", "--config", str(path))
        data = json.loads(out)
        assert code == 0 and data["status"] == "PASS"
        assert {r["case"] for r in data["reports"]} == {"MR1", "G1"}

    def test_suite_thread_count_has_no_effect(self, tmp_path, capsys):
        # the suite takes no --threads flag; a config's integer "threads" key does nothing
        cfg = {"include": ["MR1", "MR9", "H1"], "n_max": 30, "n_max_small": 30,
               "identity_terms": 10, "class_reps_per_sign": 1}
        plain, flagged = tmp_path / "plain.json", tmp_path / "flagged.json"
        plain.write_text(json.dumps(cfg))
        flagged.write_text(json.dumps(dict(cfg, threads=2)))
        code, _, err = run_cli(capsys, "verify", "suite", "--config", str(plain), "--threads", "2")
        assert code == 2 and "--threads" in err
        serial = run_cli(capsys, "verify", "suite", "--config", str(plain))
        assert run_cli(capsys, "verify", "suite", "--config", str(flagged)) == serial
        assert serial[2] == ""

    def test_suite_error_report_exits_1(self, tmp_path, capsys):
        # MR4 refuses p = 5; the refusal fails the suite though MR1 passes
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"primes_3mod4": [5], "include": ["MR4", "MR1"], "n_max": 10,
                                    "n_max_small": 10, "prime_n_max": 10}))
        code, out, _ = run_cli(capsys, "verify", "suite", "--config", str(path), "--format", "text")
        assert code == 1 and out.endswith("overall: FAIL\n")


    @pytest.mark.parametrize("include, reports", [(["BC1"], 2), ([], 0)])
    def test_suite_without_gating_check_exits_1(self, tmp_path, capsys, include, reports):
        # only open statements, or nothing, ran: the suite reads SKIPPED, which exits 1
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"include": include, "conjecture_n_max": 10}))
        code, out, _ = run_cli(capsys, "verify", "suite", "--config", str(path), "--format", "text")
        lines = out.splitlines()
        assert code == 1 and lines[-1] == "overall: SKIPPED" and len(lines) == reports + 1
        assert all(line.startswith("BC1 ") and line.endswith(": PASS") for line in lines[:-1])

    def test_undecided_single_check_exits_1(self, capsys):
        # MR19 needs 3^16 there and residues mod 3^15 read zero: SKIPPED exits 1,
        # as a SKIPPED suite does, so no script takes it for a pass
        code, out, _ = run_cli(capsys, "verify", "congruence", "--case", "MR19", "--alpha", "3",
                               "--beta", "0", "--nmax", "3", "--format", "text")
        assert (code, out) == (1, 'MR19 {"alpha":3,"beta":0,"n_max":3}: SKIPPED\n')

    def test_open_statement_alone_exits_0(self, capsys):
        # the same check as one command gates nothing, so it exits 0
        code, out, _ = run_cli(capsys, "verify", "congruence", "--case", "BC1", "--k", "1",
                               "--m", "0", "--nmax", "10")
        assert code == 0 and json.loads(out)["conjecture"] is True


class TestSuiteConfigErrors:
    @pytest.mark.parametrize("doc", [
        "5",                      # not an object
        '{"alphas": 5}',          # a grid that is not a list of integers
        '{"threads": "2"}',       # threads not an integer
        '{"threads": null}',
        '{"include": "MR171"}',   # a string would match ids by substring
        '{"alphas": [-1]}',       # would write 3^-1 as an ell
        '{"prime_ks": [0, -1]}',
        '{"include": ["MR1x"]}',  # would run an empty suite
        '{"n_max": -1}',          # would check nothing and read PASS
        '{"class_reps_per_sign": 0}',  # would run no job and read SKIPPED
    ])
    def test_malformed_config_exits_2(self, tmp_path, capsys, doc):
        path = tmp_path / "cfg.json"
        path.write_text(doc)
        code, out, err = run_cli(capsys, "verify", "suite", "--config", str(path))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


REPORT_SCHEMA = {
    "case": str, "params": dict, "checked": int, "status": str, "failures": list,
}
FAILURE_SCHEMA = {"n": int, "value": str, "valuation": int, "required": int}


def validate_report(data):
    """Schema check for a single report: required keys, types, decimal strings."""
    for key, typ in REPORT_SCHEMA.items():
        assert key in data and isinstance(data[key], typ), (key, data.get(key))
    assert data["status"] in ("PASS", "FAIL", "SKIPPED")
    for f in data["failures"]:
        for key, typ in FAILURE_SCHEMA.items():
            assert key in f and isinstance(f[key], typ), (key, f)
        int(f["value"])  # decimal string


class TestReportSchema:
    def test_pass_report(self, capsys):
        code = main(["verify", "congruence", "--case", "G1", "--beta", "0", "--nmax", "40"])
        validate_report(json.loads(capsys.readouterr().out))
        assert code == 0

    def test_fail_report_with_counterexamples(self, capsys):
        code = main(["verify", "congruence", "--case", "MR9", "--alpha", "0",
                     "--beta", "0", "--ell", "6", "--nmax", "30"])
        data = json.loads(capsys.readouterr().out)
        validate_report(data)
        assert code == 1 and data["failures"]
        assert data["holds_to_exponent"] < data["modulus_exponent"]

    def test_suite_reports_all_validate(self, tmp_path, capsys):
        cfg = replace(SuiteConfig(), include=("MR1", "MR8", "BC1", "T31"), n_max=30,
                      n_max_small=30, conjecture_n_max=30, identity_terms=10,
                      class_reps_per_sign=1)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(asdict(cfg)))
        main(["verify", "suite", "--config", str(path)])
        data = json.loads(capsys.readouterr().out)
        assert set(data["counts"]) == {"PASS", "FAIL", "SKIPPED"}
        for rep in data["reports"]:
            validate_report(rep)


def test_unknown_flag_exits_2(capsys):
    assert main(["mtable", "--imax", "2", "--jmax", "2", "--bogus"]) == 2


def _child_env() -> dict:
    """The environment of a child that imports the package this process
    imported, installed or not."""
    src = str(Path(q3series.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_byte_identical_reruns():
    cmd = [sys.executable, "-m", "q3series.cli", "verify", "congruence",
           "--case", "G1", "--beta", "0", "--nmax", "40"]
    a = subprocess.run(cmd, capture_output=True, env=_child_env())
    b = subprocess.run(cmd, capture_output=True, env=_child_env())
    assert a.stdout == b.stdout and a.returncode == b.returncode == 0


def test_closed_pipe_exits_141_quietly():
    # the reader takes one line of 3.6 MB and closes the pipe, as `| head -1` does
    cmd = [sys.executable, "-m", "q3series.cli", "count", "--kind", "p3", "--nmax", "20000"]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=_child_env()) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (first, code, err) == (b"0\t1\n", 141, b"")


def test_package_exports_resolve():
    # a name left in __all__ after its object is gone would break `import *`
    missing = [name for name in q3series.__all__ if not hasattr(q3series, name)]
    assert missing == []


def test_public_api_is_pinned():
    # an addition to the public names is deliberate; the test oracles stay out of the package
    assert sorted(q3series.__all__) == [
        "CoeffVector", "CountingFunction", "EtaQuotientSpec", "Family", "Kind", "SuiteConfig",
        "TruncatedSeries", "catalog", "eta_quotient", "family_vector", "instantiate", "m_entry",
        "pi3", "run_suite", "valuation_bound", "verify_congruence", "verify_gf_identity",
    ]
    assert sorted(n for n in vars(TruncatedSeries) if not n.startswith("_")) == [
        "coeff", "coeffs", "from_terms", "mul", "offset", "one", "order", "zero"]
    defined = []
    for node in ast.parse(Path(oracles.__file__).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, ast.Assign):
            defined += [t.id for t in node.targets if isinstance(t, ast.Name)]
    assert "enumerate_count" in defined and "_H_LEMMA" in defined
    modules = [q3series] + [importlib.import_module(f"q3series.{m.name}")
                            for m in pkgutil.iter_modules(q3series.__path__)]
    assert [(m.__name__, n) for m in modules for n in defined if hasattr(m, n)] == []
