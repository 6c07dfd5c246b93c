"""Checker rejections that need two structures in one proof.

Each proof is written out, parsed back and checked; it must be rejected
at its second line with exactly the predicted reason.
"""

import pytest

from kcproof.cnf import cnf
from kcproof.obdd import ObddStore, obdd_from_clause
from kcproof.proofs import (Proof, ProofSystem, check_proof, diagram_payload,
                            parse_proof, proof_to_text)

PHI = cnf(4, [(1, 2)])


def clause_diagram(proof, order, clause):
    sid = proof.add_structure(order)
    return sid, proof.add_diagram(sid, diagram_payload(
        obdd_from_clause(ObddStore(order), clause)))


def weaken_onto_another_order(proof):
    _, did = clause_diagram(proof, (3, 2, 1), (1, 2, 3))
    proof.add_weaken(1, did)


def reorder_annotated_with_another_order(proof):
    _, did = clause_diagram(proof, (2, 1, 3), (1, 2))
    proof.add_reorder(1, proof.add_structure((3, 2, 1)), did)


def move_annotated_with_another_order(proof):
    _, did = clause_diagram(proof, (3, 2, 1), (1, 2))
    proof.add_move(1, 1, "R", "l", proof.add_structure((2, 1, 3)), did)


def move_off_the_right_linear_form(proof):
    # x3 beside x1 in (x1 (x2 x3)) gives ((x1 x3) x2)
    proof.add_move(1, 3, "L", "r", *clause_diagram(proof, (1, 3, 2), (1, 2)))


def certificate_over_other_variables(proof):
    _, cert = clause_diagram(proof, (1, 2, 4), (1, 2))
    sid, did = clause_diagram(proof, (3, 2, 1), (1, 2))
    proof.add_reorder(1, sid, did, cert_ids=(cert,))


@pytest.mark.parametrize("rules, second_line, reason", [
    (("join", "weaken"), weaken_onto_another_order,
     "weaken structure mismatch"),
    (("join", "reorder"), reorder_annotated_with_another_order,
     "reorder structure annotation disagrees with its diagram"),
    (("join", "move"), move_annotated_with_another_order,
     "move structure annotation disagrees with its diagram"),
    (("join", "move"), move_off_the_right_linear_form,
     "move leaves the right-linear form"),
    (("join", "weaken", "reorder"), certificate_over_other_variables,
     "reorder certificate chain broken at step 1"),
])
def test_second_line_is_rejected(rules, second_line, reason):
    proof = Proof(ProofSystem("obdd", rules))
    proof.add_init(0, clause_diagram(proof, (1, 2, 3), (1, 2))[1])
    second_line(proof)
    verdict = check_proof(PHI, parse_proof(proof_to_text(proof)))
    assert (verdict.accepted, verdict.failing_line, verdict.reason) \
        == (False, 2, reason)
