"""The vtree side of a d-SDNNF circuit: a diagram file names at most one
vtree, and the table that binding reads of a vtree is built once per
vtree object, however many circuits are bound on it."""

import pytest

from kcproof import cli, dsdnnf
from kcproof.dsdnnf import (DsdnnfError, circuit_from_lines, dsdnnf_conjoin,
                            validate_structured)
from kcproof.proofs import check_proof, parse_proof, proof_to_text
from kcproof.refute import naive_conjoin_refute
from kcproof.structure import right_linear_vtree
from kcproof.zoo import lift_Z, path, vc_formula

# x1 | ~x1 over two vtrees; a count over the second one read 4
TWO_VTREES = ("vtree (x1 x2)\nvtree (x1 x9)\n"
              "g 0 LIT 1\ng 1 LIT -1\ng 2 OR 0 1\nroot 2\n")


class TestSecondVtree:
    def test_library_call(self):
        with pytest.raises(DsdnnfError,
                           match=r"second vtree line 'vtree \(x1 x9\)'"):
            circuit_from_lines(TWO_VTREES.splitlines())

    def test_kcp_count_exits_2(self, tmp_path, capsys):
        target = tmp_path / "d.txt"
        target.write_text("format dsdnnf\n" + TWO_VTREES)
        assert cli.main(["count", str(target)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "second vtree line" in err

    def test_one_vtree_line_still_counts(self, tmp_path, capsys):
        target = tmp_path / "d.txt"
        target.write_text("format dsdnnf\n"
                          + TWO_VTREES.replace("vtree (x1 x9)\n", ""))
        assert cli.main(["count", str(target)]) == 0
        assert capsys.readouterr().out.strip() == "4"


@pytest.fixture
def built(monkeypatch):
    """The vtrees the binding table was built for, in call order."""
    trees = []
    build = dsdnnf._vtree_table
    monkeypatch.setattr(dsdnnf, "_vtree_table",
                        lambda tree: trees.append(tree) or build(tree))
    return trees


class TestOncePerVtree:
    def test_fold_check_builds_the_table_once(self, built):
        phi = lift_Z(vc_formula(path(4))).result
        tree = right_linear_vtree(tuple(range(1, phi.num_vars + 1)))
        proof = parse_proof(proof_to_text(
            naive_conjoin_refute(phi, tree, "dsdnnf")))
        verdict = check_proof(phi, proof)
        assert verdict.accepted
        # 35 lines, 70 circuits bound, one vtree statement
        assert len(proof.lines) == 35
        assert len(built) == 1

    def test_an_equal_vtree_object_gets_its_own_table(self, built):
        lines = "g 0 LIT 1\ng 1 LIT 2\ng 2 AND 0 1\nroot 2\n".splitlines()
        tree = right_linear_vtree((1, 2))
        equal = right_linear_vtree((1, 2))
        first, second = circuit_from_lines(lines), circuit_from_lines(lines)
        assert validate_structured(first, tree) == {0: "L", 1: "R", 2: ""}
        assert validate_structured(second, tree) == {0: "L", 1: "R", 2: ""}
        dsdnnf_conjoin(first, second, tree)
        assert built == [tree]
        assert validate_structured(first, equal) == {0: "L", 1: "R", 2: ""}
        assert len(built) == 2 and built[1] is equal
