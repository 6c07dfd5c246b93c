"""`kcp extract --json` reports the checked refutation's sizes next to the
extracted diagram's, so one run shows a small refutation giving a small
representation."""

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


@pytest.mark.parametrize("fmt", ["obdd", "sdd", "dsdnnf"])
def test_extract_reports_the_refutation_sizes(tmp_path, fmt):
    base, lifted = tmp_path / "path.cnf", tmp_path / "path-z.cnf"
    proof, target = tmp_path / "proof.txt", tmp_path / "d.txt"
    assert run("gen", "vc-path", "--l", 3, "-o", base)[0] == 0
    assert run("lift", "z", base, "-o", lifted)[0] == 0
    code, out, _ = run("refute", lifted, "--method", "naive", "--format",
                       fmt, "-o", proof, "--json")
    assert code == 0
    refuted = json.loads(out)["sizes"]
    code, out, err = run("extract", lifted, proof, "-o", target, "--json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    cli.validate_report(report)
    sizes = report["sizes"]
    for key in ("max_diagram_size", "total_nodes"):
        assert sizes[key] == refuted[key]
    assert 0 < sizes["size"] <= sizes["max_diagram_size"]
    assert (sizes["variables"], sizes["clauses"]) == (4, 3)
    assert run("count", target) == (0, "8\n", "")
