"""A negative budget is a usage error.

`--cap` (on `kcp refute`, `check` and `extract`) and `--var-cap` (on
`extract`) take a whole number of at least 0.  A negative one is refused
by argument parsing, with exit 2, nothing on stdout and no artifact,
whatever the proof's format; zero keeps its meaning.
"""

import contextlib
import io

import pytest

from kcproof import cli


def run(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in args])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The lifted vc-path 3 and its naive refutation in every format."""
    tmp = tmp_path_factory.mktemp("budget")
    base, lifted = tmp / "path.cnf", tmp / "path-z.cnf"
    assert run("gen", "vc-path", "--l", 3, "-o", base)[0] == 0
    assert run("lift", "z", base, "-o", lifted)[0] == 0
    proofs = {}
    for fmt in ("obdd", "sdd", "dsdnnf"):
        proofs[fmt] = tmp / ("%s.txt" % fmt)
        assert run("refute", lifted, "--method", "naive", "--format", fmt,
                   "-o", proofs[fmt])[0] == 0
    return tmp, lifted, proofs


def commands(tmp, lifted, proof, fmt):
    """Each subcommand and budget flag, with an output it must not write."""
    out = tmp / "out.txt"
    return [
        (out, ("refute", lifted, "--method", "naive", "--format", fmt,
               "-o", out), "--cap"),
        (None, ("check", lifted, proof), "--cap"),
        (out, ("extract", lifted, proof, "-o", out), "--cap"),
        (out, ("extract", lifted, proof, "-o", out), "--var-cap"),
    ]


@pytest.mark.parametrize("value", [-1, -5])
@pytest.mark.parametrize("fmt", ["obdd", "sdd", "dsdnnf"])
def test_a_negative_budget_exits_2_with_nothing_on_stdout(files, fmt, value):
    tmp, lifted, proofs = files
    for out, args, flag in commands(tmp, lifted, proofs[fmt], fmt):
        code, stdout, err = run(*args, flag, value)
        assert (code, stdout) == (2, ""), (args, flag)
        assert "argument %s: must be at least 0, not %d" % (flag, value) \
            in err
        assert out is None or not out.exists()


def test_a_budget_that_is_no_number_still_reads_as_an_int_error(files):
    tmp, lifted, proofs = files
    code, stdout, err = run("check", lifted, proofs["dsdnnf"], "--cap", "x")
    assert (code, stdout) == (2, "")
    assert "argument --cap: invalid int value: 'x'" in err


def test_zero_is_a_budget(files):
    tmp, lifted, proofs = files
    code, stdout, _ = run("check", lifted, proofs["dsdnnf"], "--cap", 0)
    assert code == 3
    assert stdout.startswith("rejected at line 1: resource cap exceeded: "
                             "determinism check exceeded 0 gate pairs")
    assert run("check", lifted, proofs["obdd"], "--cap", 0)[:2] \
        == (0, "accepted\n")
