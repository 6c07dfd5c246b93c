"""`kcp count` prints an exact count of any length: 2^15000, the count of
true over 15,000 variables, has 4,516 decimal digits, more than Python's
default limit for integer string conversion.  The limit is lifted only
while the command runs."""

import contextlib
import io
import json
import sys

import pytest

from kcproof import cli

N = 15000
DIGITS = 4516

needs_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this interpreter has no integer string conversion limit")


@pytest.fixture
def true_over_n(tmp_path):
    target = tmp_path / "big.txt"
    target.write_text("format obdd\no %s\nroot T\n"
                      % " ".join("x%d" % v for v in range(1, N + 1)))
    return str(target)


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def limit():
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def test_the_count_is_printed_in_full(true_over_n):
    before = limit()
    code, out, err = run("count", true_over_n)
    assert (code, err) == (0, "")
    assert len(out) == DIGITS + 1 and out.endswith("\n")
    # 2^N is 1 mod 3 (N even) and ends in 6 (N a multiple of 4)
    assert int(out[-2]) == 6 and sum(map(int, out[:-1])) % 3 == 1
    assert limit() == before


@needs_limit
def test_the_report_holds_the_count_as_an_integer(true_over_n):
    before = sys.get_int_max_str_digits()
    code, out, err = run("count", true_over_n, "--json")
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == before
    sys.set_int_max_str_digits(0)
    try:
        report = json.loads(out)
    finally:
        sys.set_int_max_str_digits(before)
    cli.validate_report(report)
    assert report["sizes"]["models"] == 2 ** N


@needs_limit
def test_a_failed_command_restores_the_limit(tmp_path):
    before = sys.get_int_max_str_digits()
    target = tmp_path / "d.txt"
    target.write_text("format xyz\n")
    assert run("count", str(target))[0] == 2
    assert sys.get_int_max_str_digits() == before
