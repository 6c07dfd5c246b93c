"""`check_proof` tracks which input clauses each line conjoins only when a
line can read them: the header allows `reorder` and not `weaken`.

A proof of any other header checks without building one clause set, and
a weakening-free reorder line is still held to every clause its premise
conjoins.
"""

import pytest

from kcproof import proofs
from kcproof.cnf import cnf
from kcproof.obdd import ObddStore, obdd_apply, obdd_const, obdd_from_clause
from kcproof.proofs import ProofSystem, check_proof, diagram_payload
from kcproof.refute import naive_conjoin_refute, obdd_refute_eq
from kcproof.sdd import SddStore, sdd_const
from kcproof.structure import move, vtree_leaf, vtree_node
from kcproof.zoo import eq_formula, lift_Z

PHI = cnf(3, [(1, 2), (-1, 2), (-2, 3), (-3,)])


@pytest.fixture
def clause_set_calls(monkeypatch):
    calls = []
    tracked = proofs._clause_set

    def counting(sets, line):
        calls.append(line.n)
        return tracked(sets, line)

    monkeypatch.setattr(proofs, "_clause_set", counting)
    return calls


def reorder_proof(phi, psi, order, new_order):
    """Fold phi over order, then claim psi's conjunction over new_order is
    the same function."""
    proof = naive_conjoin_refute(phi, order, "obdd")
    proof.system = ProofSystem("obdd", ("join", "reorder"))
    store = ObddStore(new_order)
    acc = obdd_const(store, True)
    for clause in psi.clauses:
        acc = obdd_apply("and", acc, obdd_from_clause(store, clause))
    sid = proof.add_structure(new_order)
    proof.add_reorder(len(proof.lines), sid,
                      proof.add_diagram(sid, diagram_payload(acc)))
    return proof


def test_a_join_only_proof_tracks_no_clause_set(clause_set_calls):
    proof = obdd_refute_eq(8, 3)
    assert proof.system.rules == frozenset(("join",))
    assert check_proof(lift_Z(eq_formula(8, 3)).result, proof).accepted
    assert clause_set_calls == []


def test_a_move_proof_tracks_no_clause_set(clause_set_calls):
    tree = vtree_node(vtree_node(vtree_leaf(1), vtree_leaf(2)), vtree_leaf(3))
    moved = move(tree, 3, "L", "l")
    assert moved != tree
    proof = naive_conjoin_refute(PHI, tree, "sdd")
    proof.system = ProofSystem("sdd", ("join", "move"))
    sid = proof.add_structure(moved)
    proof.add_move(len(proof.lines), 3, "L", "l", sid, proof.add_diagram(
        sid, diagram_payload(sdd_const(SddStore(moved), False))))
    verdict = check_proof(PHI, proof)
    assert verdict.accepted, verdict.reason
    assert clause_set_calls == []


def test_a_reorder_proof_tracks_every_line(clause_set_calls):
    proof = reorder_proof(PHI, PHI, (1, 2, 3), (3, 2, 1))
    assert check_proof(PHI, proof).accepted
    assert clause_set_calls == list(range(1, len(proof.lines) + 1))


def test_reorder_missing_a_clause_with_the_right_count_is_rejected():
    # (x1 | x2 | x3) & (~x1 | x2) and (x1 | x2 | x3) & (x1 | ~x2) both have
    # five models over three variables; the second misses clause 1
    phi = cnf(3, [(1, 2, 3), (-1, 2)])
    psi = cnf(3, [(1, 2, 3), (1, -2)])
    proof = reorder_proof(phi, psi, (1, 2, 3), (2, 3, 1))
    verdict = check_proof(phi, proof)
    assert not verdict.accepted
    assert verdict.failing_line == len(proof.lines)
    assert verdict.reason == "reorder result does not entail clause 1"
