"""`kcp` exit codes on inputs that used to end wrongly: a count of a
non-deterministic circuit, and a proof deep enough to exhaust Python's
recursion limit.  Exit 1 means "rejected", so neither may end with it."""

import contextlib
import io

import pytest

from kcproof import cli

NON_DETERMINISTIC = ("format dsdnnf\nvtree (x5 x30)\n"
                     "g 0 LIT 30\ng 1 LIT -5\ng 2 OR 0 1\nroot 2\n")
# the same function, x30 | ~x5, with exclusive children: x30 | (~x30 & ~x5)
DETERMINISTIC = ("format dsdnnf\nvtree (x5 x30)\n"
                 "g 0 LIT 30\ng 1 LIT -30\ng 2 LIT -5\ng 3 AND 2 1\n"
                 "g 4 LIT 5\ng 5 LIT -5\ng 6 OR 4 5\ng 7 AND 6 0\n"
                 "g 8 OR 7 3\nroot 8\n")
DEPTH = 3000
FALSE_PAYLOAD = {"sdd": "a 3 - false;root 3", "dsdnnf": "g 0 FALSE;root 0"}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def write(directory, name, text):
    target = directory / name
    target.write_text(text)
    return str(target)


class TestCountDeterminism:
    def test_non_deterministic_circuit_is_refused(self, tmp_path):
        code, out, err = run(
            ["count", write(tmp_path, "d.diag", NON_DETERMINISTIC)])
        assert (code, out) == (2, "")
        assert err == "error: circuit is not deterministic\n"

    def test_deterministic_circuit_is_counted(self, tmp_path):
        code, out, _ = run(["count", write(tmp_path, "d.diag", DETERMINISTIC)])
        assert (code, out) == (0, "3\n")

    def test_without_a_vtree_determinism_is_presumed(self, tmp_path):
        body = NON_DETERMINISTIC.replace("vtree (x5 x30)\n", "")
        code, out, _ = run(["count", write(tmp_path, "d.diag", body)])
        assert (code, out) == (0, "4\n")


def right_linear_text(n):
    text = "x%d" % n
    for v in range(n - 1, 0, -1):
        text = "(x%d %s)" % (v, text)
    return text


@pytest.mark.parametrize("fmt", sorted(FALSE_PAYLOAD))
def test_deep_vtree_ends_with_exit_2(tmp_path, fmt):
    formula = write(tmp_path, "f.cnf", "p cnf %d 2\n1 0\n-1 0\n" % DEPTH)
    proof = write(tmp_path, "p.kcp", "p kcp %s join\ns 1 vtree %s\n"
                  "d 1 1 %s\nL 1 init 0 1\n"
                  % (fmt, right_linear_text(DEPTH), FALSE_PAYLOAD[fmt]))
    code, out, err = run(["check", formula, proof])
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
