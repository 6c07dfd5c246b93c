"""How kcp subcommands end: the artifact to -o, then the --json report or
a summary; extract's single check; compile's maximum measured in the
written format; the gen family table; lift-marker refusals."""

import contextlib
import io
import json

import pytest

from kcproof import cli, refute
from kcproof.cnf import parse_dimacs


def run(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in args])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def lifted_path(tmp_path):
    """The z lifting of the vertex cover formula of a 3-edge path."""
    base, lifted = tmp_path / "path.cnf", tmp_path / "path-z.cnf"
    assert run("gen", "vc-path", "--l", 3, "-o", base)[0] == 0
    assert run("lift", "z", base, "-o", lifted)[0] == 0
    return lifted


class TestFinish:
    def test_summary_after_a_written_artifact(self, tmp_path):
        target = tmp_path / "phi.cnf"
        code, out, err = run("gen", "contra", "-o", target)
        assert (code, err) == (0, "")
        assert out == "wrote %s (1 variables, 2 clauses)\n" % target
        assert target.read_text() == "c gen contra\np cnf 1 2\n1 0\n-1 0\n"

    def test_refute_writes_its_sidecar_and_prints_the_report(
            self, tmp_path, lifted_path):
        proof = tmp_path / "tw.txt"
        code, out, _ = run("refute", lifted_path, "--method", "treewidth",
                           "-o", proof, "--json")
        assert code == 0
        report = json.loads(out)
        cli.validate_report(report)
        sidecar = json.loads((tmp_path / "tw.txt.json").read_text())
        assert sidecar["sizes"] == report["sizes"]
        assert proof.read_text().startswith("p kcp sdd")


class TestGenTable:
    def test_parameters_follow_the_table_and_the_comment_is_sorted(
            self, tmp_path):
        target = tmp_path / "ts.cnf"
        code, out, _ = run("gen", "tseitin", "--n", 6, "--d", 3,
                           "--seed", 2, "-o", target, "--json")
        assert code == 0
        report = json.loads(out)
        assert list(report["parameters"].items()) == [
            ("family", "tseitin"), ("n", 6), ("d", 3), ("seed", 2)]
        assert target.read_text().splitlines()[0] == \
            "c gen tseitin d=3 n=6 seed=2"

    @pytest.mark.parametrize("family", sorted(cli._FAMILIES))
    def test_every_family_generates(self, family):
        flags = {"--l": 2, "--h": 1, "--n": 4, "--shift": 1, "--d": 3,
                 "--seed": 1}
        args = ["gen", family]
        for _, flag, _, _ in cli._FAMILIES[family][1]:
            args += [flag, flags[flag]]
        code, out, err = run(*args)
        assert (code, err) == (0, "")
        assert out.split("\n", 1)[0] == "c gen " + " ".join(
            [family] + sorted("%s=%s" % (a[2:], v)
                              for a, v in zip(args[2::2], args[3::2])))
        parse_dimacs(out)

    def test_a_missing_required_flag_is_a_usage_error(self):
        code, _, err = run("gen", "vc-tree")
        assert code == 2
        assert "the following arguments are required: --h" in err


class TestExtractChecksOnce:
    def test_one_check_under_the_given_cap(self, tmp_path, lifted_path,
                                           monkeypatch):
        proof = tmp_path / "tw.txt"
        assert run("refute", lifted_path, "--method", "treewidth",
                   "-o", proof)[0] == 0
        caps = []
        for module in (cli, refute):
            checker = module.check_proof
            monkeypatch.setattr(
                module, "check_proof",
                lambda phi, p, cap=10 ** 7, checker=checker:
                caps.append(cap) or checker(phi, p, cap))
        out = tmp_path / "d.txt"
        code, _, err = run("extract", lifted_path, proof, "--cap", 1000,
                           "-o", out)
        assert (code, err) == (0, "")
        assert caps == [1000]
        assert run("count", out) == (0, "8\n", "")

    def test_a_blown_cap_exits_3(self, tmp_path, lifted_path):
        proof = tmp_path / "dsdnnf.txt"
        assert run("refute", lifted_path, "--method", "naive", "--format",
                   "dsdnnf", "-o", proof)[0] == 0
        out = tmp_path / "d.txt"
        code, stdout, err = run("extract", lifted_path, proof, "--cap", 1,
                                "-o", out)
        assert (code, stdout) == (3, "")
        assert err.startswith("resource cap exceeded: ")
        assert "determinism check exceeded 1 gate pairs" in err
        assert not out.exists()


@pytest.mark.parametrize("fmt", ["obdd", "sdd", "dsdnnf"])
@pytest.mark.parametrize("vtree", ["right", "auto"])
def test_compile_maximum_covers_the_written_diagram(tmp_path, fmt, vtree):
    base, target = tmp_path / "path.cnf", tmp_path / "d.txt"
    run("gen", "vc-path", "--l", 4, "-o", base)
    code, out, _ = run("compile", base, "--format", fmt, "--vtree", vtree,
                       "-o", target, "--json")
    assert code == 0
    sizes = json.loads(out)["sizes"]
    assert sizes["max_diagram_size"] >= sizes["size"] > 1


@pytest.mark.parametrize("text, message", [
    ("c lift z x y\np cnf 1 1\n1 0\n", "unreadable lift marker"
     " 'c lift z x y'"),
    ("c lift c 1 2\np cnf 3 2\n1 2 0\n-1 3 0\n",
     "this command needs a z lifting, marker says 'c'"),
    ("c lift z 1 5\np cnf 3 2\n1 2 0\n-1 3 0\n",
     "lift marker clause count does not fit the file"),
    ("c lift z 2 1\np cnf 3 1\n1 2 0\n",
     "clause 1 does not end in its control variable"),
    ("c lift z 1 2\np cnf 3 2\n1 2 0\n2 3 0\n",
     "lift marker does not describe a lifting: literal 2 out of range"),
])
def test_lift_marker_refusals(tmp_path, text, message):
    formula = tmp_path / "lifted.cnf"
    formula.write_text(text)
    code, out, err = run("refute", formula, "--method", "resolution")
    assert (code, out) == (2, "")
    assert err.startswith("error: " + message)
