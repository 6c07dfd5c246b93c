"""Checker rejections that no other test reaches.

A join whose premises sit on one structure and whose claimed diagram
sits on another, and every way an SDD payload can be malformed.  Each
proof is parsed from text and checked; the verdict must name the failing
line and the exact reason.
"""

import pytest

from kcproof.cnf import cnf
from kcproof.proofs import (Proof, ProofSystem, check_proof, diagram_payload,
                            parse_proof, proof_to_text)
from kcproof.refute import fold_backend, fold_trace
from kcproof.structure import right_linear_vtree

PHI = cnf(3, [(1, 2), (-1, 2)])


@pytest.mark.parametrize("fmt", ["obdd", "sdd"])
def test_join_claimed_on_another_structure(fmt):
    backend, export = fold_backend(fmt)
    proof = Proof(ProofSystem(fmt, ("join",)))

    def diagram(order, clauses):
        structure = order if fmt == "obdd" else right_linear_vtree(order)
        sid = proof.add_structure(structure)
        d, _ = fold_trace(backend, backend.store(structure), clauses)
        return proof.add_diagram(sid, diagram_payload(export(d)))

    proof.add_init(0, diagram((1, 2, 3), PHI.clauses[:1]))
    proof.add_init(1, diagram((1, 2, 3), PHI.clauses[1:]))
    # the conjunction itself, but over the reversed order
    proof.add_join(1, 2, diagram((3, 2, 1), PHI.clauses))
    verdict = check_proof(PHI, parse_proof(proof_to_text(proof)))
    assert (verdict.accepted, verdict.failing_line, verdict.reason) \
        == (False, 3, "join structure mismatch")


# payloads on the vtree ((x1 x2) x3), whose paths are "-" (the root), L,
# LL, LR and R
@pytest.mark.parametrize("payload, message", [
    ("a 1 RR true;root 1", "unknown vtree path 'RR'"),
    ("a 1 LL lit 1;a 1 LR lit 2;root 1", "node label '1' reused"),
    ("a 1 R true;s 2 LL (1 1);root 2",
     "decision node at non-internal path 'LL'"),
    ("a 1 R true;a 2 R false;s 3 - (1 2);root 3",
     "prime of '3' not at the left child"),
    ("a 1 LL lit 1;root 1", "root is not normalized at the vtree root"),
    ("a 1 R true", "missing root statement"),
    ("a 1 R true;root 9", "reference to undefined node '9'"),
    ("a 1 L true;s 2 - (1);root 2", "malformed element '(1'"),
    ("a 1 L true;s 2 - 1 1;root 2", "malformed elements in 's 2 - 1 1'"),
    ("s 2 -", "malformed decision statement 's 2 -'"),
    ("a 1 LL", "malformed atom statement 'a 1 LL'"),
    ("a 1 LL lit x", "bad literal in 'a 1 LL lit x'"),
    ("a 1 R true;root 1 1", "malformed root statement 'root 1 1'"),
    ("q 1", "unknown statement 'q 1'"),
])
def test_malformed_sdd_payload(payload, message):
    text = ("p kcp sdd join\ns 1 vtree ((x1 x2) x3)\nd 1 1 %s\n"
            "L 1 init 0 1\n" % payload)
    verdict = check_proof(PHI, parse_proof(text))
    assert (verdict.accepted, verdict.failing_line, verdict.reason) \
        == (False, 1, "malformed: " + message)
