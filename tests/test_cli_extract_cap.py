"""kcp extract over a resource cap names the cap once, and the line that
blew it, on stderr; it exits 3 and writes nothing."""

import contextlib
import io

from kcproof import cli


def run(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in args])
    return code, out.getvalue(), err.getvalue()


def test_a_blown_cap_names_itself_once_and_its_line(tmp_path):
    base, lifted = tmp_path / "path.cnf", tmp_path / "path-z.cnf"
    proof, out = tmp_path / "dsdnnf.txt", tmp_path / "d.txt"
    assert run("gen", "vc-path", "--l", 3, "-o", base)[0] == 0
    assert run("lift", "z", base, "-o", lifted)[0] == 0
    assert run("refute", lifted, "--method", "naive", "--format", "dsdnnf",
               "-o", proof)[0] == 0
    code, stdout, err = run("extract", lifted, proof, "--cap", 1, "-o", out)
    assert (code, stdout) == (3, "")
    assert err.count("resource cap exceeded") == 1
    assert err == ("resource cap exceeded: line 1: determinism check"
                   " exceeded 1 gate pairs\n")
    assert not out.exists()
