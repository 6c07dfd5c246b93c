"""Inputs that used to escape the parsers with a Python error: a proof
statement with nothing after its keyword, and an OBDD order token that is
not x followed by a number.  Each must be a package error, and `kcp`
must exit 2 with one `error:` line that names the bad input."""

import contextlib
import io

import pytest

from kcproof import cli
from kcproof.obdd import ObddError, parse_obdd
from kcproof.proofs import ProofError, parse_proof
from kcproof.resolution import parse_resolution

FORMULA = "p cnf 1 2\n1 0\n-1 0\n"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def write(directory, name, text):
    target = directory / name
    target.write_text(text)
    return str(target)


class TestBareStatements:
    def test_proof_line(self):
        with pytest.raises(ProofError, match="malformed proof line 'L'"):
            parse_proof("p kcp obdd join\nL\n")

    def test_resolution_step(self):
        with pytest.raises(ProofError,
                           match="malformed resolution step 'r'"):
            parse_resolution("r\n")

    @pytest.mark.parametrize("command", ["check", "stats"])
    def test_kcp_on_a_bare_proof_line(self, tmp_path, command):
        proof = write(tmp_path, "p.kcp", "p kcp obdd join\nL\n")
        argv = [command, proof]
        if command == "check":
            argv.insert(1, write(tmp_path, "f.cnf", FORMULA))
        code, out, err = run(argv)
        assert (code, out) == (2, "")
        assert err == "error: malformed proof line 'L'\n"

    def test_kcp_check_on_a_bare_resolution_step(self, tmp_path):
        code, out, err = run(["check", write(tmp_path, "f.cnf", FORMULA),
                              write(tmp_path, "r.txt", "r 1 input 0\nr\n")])
        assert (code, out) == (2, "")
        assert err == "error: malformed resolution step 'r'\n"


class TestObddOrderLine:
    @pytest.mark.parametrize("order, token",
                             [("x", "x"), ("x1 xq", "xq")])
    def test_parse_obdd(self, order, token):
        with pytest.raises(ObddError, match="bad order token '%s'" % token):
            parse_obdd("o %s\nroot F\n" % order)

    @pytest.mark.parametrize("order, token",
                             [("x", "x"), ("x1 xq", "xq")])
    def test_kcp_count(self, tmp_path, order, token):
        diagram = write(tmp_path, "d.txt",
                        "format obdd\no %s\nroot F\n" % order)
        code, out, err = run(["count", diagram])
        assert (code, out) == (2, "")
        assert err == "error: bad order token '%s'\n" % token

    def test_a_repeated_variable(self):
        with pytest.raises(ObddError, match="order repeats a variable"):
            parse_obdd("o x1 x1\nroot F\n")
