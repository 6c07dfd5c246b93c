"""`kcp count` on d-SDNNF files whose literals carry large variable
numbers: no variable mask may be as wide as the largest number."""

import contextlib
import io
import os
import time

from kcproof import cli


def count(directory, body):
    target = os.path.join(str(directory), "d.diag")
    with open(target, "w") as handle:
        handle.write("format dsdnnf\n" + body)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["count", target])
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    return code, out.getvalue().strip(), err.getvalue()


class TestLargeLiterals:
    def test_without_a_vtree_the_count_is_over_its_own_variables(
            self, tmp_path):
        assert count(tmp_path, "g 0 LIT 3000000\nroot 0\n")[:2] == (0, "1")

    def test_a_literal_outside_the_vtree_is_malformed(self, tmp_path):
        code, out, err = count(
            tmp_path, "vtree (x1 x2)\ng 0 LIT 3000000\nroot 0\n")
        assert (code, out) == (2, "")
        assert "not a leaf of the vtree" in err

    def test_an_unreachable_literal_costs_nothing(self, tmp_path):
        body = "g 0 LIT 5\ng 1 LIT 100000000000\nroot 0\n"
        assert count(tmp_path, body)[:2] == (0, "1")

    def test_renaming_keeps_signs_and_sharing(self, tmp_path):
        # (x1000000 & x5) | (~x1000000 & ~x5), deterministic: 2 models,
        # and 4 once a third variable joins by a conjunction
        body = ("g 0 LIT 1000000\ng 1 LIT 5\ng 2 AND 0 1\n"
                "g 3 LIT -1000000\ng 4 LIT -5\ng 5 AND 3 4\n"
                "g 6 OR 2 5\n")
        assert count(tmp_path, body + "root 6\n")[:2] == (0, "2")
        extra = "g 7 LIT 70000000\ng 8 LIT -70000000\ng 9 OR 7 8\n"
        assert count(tmp_path, body + extra + "g 10 AND 6 9\nroot 10\n")[:2] \
            == (0, "4")

    def test_with_a_vtree_the_count_is_over_its_leaves(self, tmp_path):
        body = "vtree ((x1 x2) x3)\ng 0 LIT 2\nroot 0\n"
        assert count(tmp_path, body)[:2] == (0, "4")
