"""The OBDD move check, `BACKENDS["obdd"].move_ok`, on the cases that
once served a second copy of it in the obdd module.

`move_ok` decides equality of two diagrams whose orders agree once the
moved variable is removed; that the orders are one move apart is its
caller's check.  For a reorder certificate that caller is
`_single_move_step`, so orders further apart are rejected there.
"""

from kcproof.cnf import cnf
from kcproof.obdd import ObddStore, obdd_apply, obdd_const, obdd_from_clause
from kcproof.proofs import (BACKENDS, Proof, ProofSystem, _single_move_step,
                            check_proof, diagram_payload, parse_proof,
                            proof_to_text)
from oracles import obdd_literal

MAJ = cnf(3, [[1, 2], [1, 3], [2, 3]])
MOVE_OK = BACKENDS["obdd"].move_ok


def compile_formula(store, phi):
    acc = obdd_const(store, True)
    for clause in phi.clauses:
        acc = obdd_apply("and", acc, obdd_from_clause(store, clause))
    return acc


def test_accepts_reordered_majority():
    d = compile_formula(ObddStore((1, 2, 3)), MAJ)
    d_prime = compile_formula(ObddStore((3, 1, 2)), MAJ)
    assert MOVE_OK(d, d_prime, 3)


def test_rejects_different_function():
    d = compile_formula(ObddStore((1, 2, 3)), MAJ)
    other = compile_formula(ObddStore((3, 1, 2)), cnf(3, [[1, 2], [1, 3]]))
    assert not MOVE_OK(d, other, 3)


def test_same_diagram():
    store = ObddStore((1, 2))
    d = obdd_from_clause(store, (1, 2))
    assert MOVE_OK(d, d, 1)


def test_incompatible_orders_are_not_one_move_apart():
    d1 = obdd_literal(ObddStore((1, 2, 3)), 1)
    d2 = obdd_literal(ObddStore((3, 2, 1)), 1)
    assert not _single_move_step(d1, d2)

    proof = Proof(ProofSystem("obdd", ("join", "weaken", "reorder")))
    s1 = proof.add_structure((1, 2, 3))
    s2 = proof.add_structure((3, 2, 1))
    line = proof.add_init(0, proof.add_diagram(s1, diagram_payload(d1)))
    proof.add_reorder(line, s2, proof.add_diagram(s2, diagram_payload(d2)))
    verdict = check_proof(cnf(3, [[1]]), parse_proof(proof_to_text(proof)))
    assert not verdict.accepted
    assert verdict.failing_line == 2
    assert verdict.reason == "reorder certificate chain broken at step 1"
