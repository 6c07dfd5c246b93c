"""One capped product test decides every d-SDNNF entailment.

`dsdnnf_implies(d1, d2, cap)` is the only place a d-SDNNF check builds a
product and compares model counts: d1 entails d2 when their product has
as many models as d1.  Equality, a clause join, a weakening and a move
all end in it, so the cap given to `check_proof` (or `kcp check --cap`)
bounds every product a check builds.  The one product outside it is the
premise product of a join without a clause premise.
"""

import contextlib
import io
import sys

import pytest

from kcproof import cli, dsdnnf
from kcproof.cnf import CapExceeded, to_dimacs
from kcproof.dsdnnf import clause_circuit, dsdnnf_implies
from kcproof.proofs import check_proof, parse_proof
from kcproof.structure import vtree_leaf, vtree_node
from test_dsdnnf_clause_join import PHI as JOIN_PHI, two_kinds_of_join
from test_trusted_base import PHI, RULE_SETS, proof_text

WEAKEN_MOVE = ("join", "weaken", "move")
# the move line of the join/weaken/move proof builds products of 8 and
# 13 gate pairs; its joins and its weakening stay at 5 or fewer
MOVE_LINE = 5
MOVE_PAIRS = 13


def proofs():
    """(formula, proof) of the d-SDNNF proofs of the trusted base, which
    use every rule, and of a proof with both kinds of join."""
    for rules in RULE_SETS["dsdnnf"]:
        yield PHI, parse_proof(proof_text("dsdnnf", rules))
    yield JOIN_PHI, two_kinds_of_join()


@pytest.fixture
def conjoins(monkeypatch):
    """(caller, cap) of every product conjoin."""
    calls = []
    conjoin = dsdnnf.dsdnnf_conjoin

    def spy(d1, d2, tree, cap=None):
        calls.append((sys._getframe(1).f_code.co_name, cap))
        return conjoin(d1, d2, tree, cap)

    monkeypatch.setattr(dsdnnf, "dsdnnf_conjoin", spy)
    return calls


def premise_products(proof):
    """Joins without an init premise: each conjoins its premises first."""
    return sum(line.rule == "join"
               and all(proof.lines[r - 1].rule != "init" for r in line.refs)
               for line in proof.lines)


@pytest.mark.parametrize("index", range(3))
def test_every_product_is_an_entailment_test_under_the_checks_cap(
        conjoins, index):
    phi, proof = list(proofs())[index]
    cap = 10 ** 6
    assert check_proof(phi, proof, cap=cap).accepted
    callers = [caller for caller, _ in conjoins]
    assert callers.count("dsdnnf_join_check") == premise_products(proof)
    assert set(callers) <= {"dsdnnf_implies", "dsdnnf_join_check"}
    assert "dsdnnf_implies" in callers
    assert {given for _, given in conjoins} == {cap}


def test_the_proofs_use_every_rule_and_both_kinds_of_join():
    rules = {line.rule for _, proof in proofs() for line in proof.lines}
    assert rules == {"init", "join", "weaken", "move", "reorder"}
    assert [premise_products(proof) for _, proof in proofs()] == [0, 0, 1]


def test_a_move_product_over_the_cap_is_a_resource_verdict():
    proof = parse_proof(proof_text("dsdnnf", WEAKEN_MOVE))
    assert proof.lines[MOVE_LINE - 1].rule == "move"
    for cap in (8, MOVE_PAIRS - 1):
        verdict = check_proof(PHI, proof, cap=cap)
        assert verdict.resource
        assert verdict.failing_line == MOVE_LINE
        assert verdict.reason == "resource cap exceeded: product conjoin " \
            "exceeded %d gate pairs" % cap
    assert check_proof(PHI, proof, cap=MOVE_PAIRS).accepted


@pytest.mark.parametrize("fmt", ["obdd", "sdd"])
def test_obdd_and_sdd_checks_ignore_the_cap(fmt):
    for rules in RULE_SETS[fmt]:
        assert check_proof(PHI, parse_proof(proof_text(fmt, rules)),
                           cap=1).accepted


@pytest.mark.parametrize("cap, code, first", [
    (8, 3, "rejected at line %d: resource cap exceeded" % MOVE_LINE),
    (16, 0, "accepted"),
])
def test_kcp_check_cap_reaches_the_move_line(tmp_path, cap, code, first):
    formula, text = tmp_path / "f.cnf", tmp_path / "p.kcp"
    formula.write_text(to_dimacs(PHI))
    text.write_text(proof_text("dsdnnf", WEAKEN_MOVE))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        got = cli.main(["check", str(formula), str(text), "--cap", str(cap)])
    assert got == code
    assert out.getvalue().startswith(first)


def test_the_library_default_is_unbounded(conjoins):
    tree = vtree_node(vtree_leaf(1), vtree_leaf(2))
    a, b = clause_circuit((1, 2), tree), clause_circuit((-1, 2), tree)
    wider = clause_circuit((2,), tree)
    both = dsdnnf.dsdnnf_conjoin(a, b, tree)
    assert dsdnnf_implies(both, wider)
    assert not dsdnnf_implies(a, b)
    assert [cap for _, cap in conjoins] == [None] * 3
    with pytest.raises(CapExceeded,
                       match="^product conjoin exceeded 1 gate pairs$"):
        dsdnnf_implies(a, b, cap=1)
