"""`kcp extract --json` of a proof the checker rejects prints a run report
whose `verdicts.check` holds the rejection, as `kcp check --json` does,
writes no diagram and exits 1.

The case: a refutation of the z lifting of a contradiction, checked
against the z lifting of vc-path 3, fails at its first init line.
"""

import contextlib
import io
import json

import pytest

from kcproof import cli


def run(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in args])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def case(tmp_path):
    base, lifted = tmp_path / "path.cnf", tmp_path / "path-z.cnf"
    contra, contra_lifted = tmp_path / "contra.cnf", tmp_path / "contra-z.cnf"
    proof = tmp_path / "sdd-proof.txt"
    assert run("gen", "vc-path", "--l", 3, "-o", base)[0] == 0
    assert run("lift", "z", base, "-o", lifted)[0] == 0
    contra.write_text("p cnf 1 2\n1 0\n-1 0\n")
    assert run("lift", "z", contra, "-o", contra_lifted)[0] == 0
    assert run("refute", contra_lifted, "--method", "naive", "--format",
               "sdd", "-o", proof)[0] == 0
    return lifted, proof, tmp_path / "x.txt"


def test_json_report_holds_the_rejection(case):
    lifted, proof, target = case
    code, out, err = run("extract", lifted, proof, "-o", target, "--json")
    assert (code, err) == (1, "")
    report = json.loads(out)
    cli.validate_report(report)
    assert report["command"] == "extract"
    check = report["verdicts"]["check"]
    assert check["accepted"] is False
    assert check["failing_line"] == 1
    assert check["reason"] == "init diagram does not match clause 0"
    assert (report["sizes"]["variables"], report["sizes"]["clauses"]) \
        == (4, 3)
    assert not target.exists()


def test_json_report_agrees_with_kcp_check(case):
    lifted, proof, target = case
    _, checked, _ = run("check", lifted, proof, "--json")
    _, extracted, _ = run("extract", lifted, proof, "-o", target, "--json")
    assert json.loads(extracted)["verdicts"] == json.loads(checked)["verdicts"]


def test_summary_names_the_rejected_line(case):
    lifted, proof, target = case
    code, out, err = run("extract", lifted, proof, "-o", target)
    assert (code, err) == (1, "")
    assert out == "rejected at line 1: init diagram does not match clause 0\n"
    assert not target.exists()
