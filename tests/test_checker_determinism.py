"""The checker rejects a d-SDNNF payload whose or-gates are not exclusive
as malformed, before any rule looks at the function it denotes."""

from kcproof.cnf import cnf
from kcproof.proofs import Proof, ProofSystem, check_proof
from kcproof.structure import parse_vtree

# or(or(x1 and x2, x1 and -x2), or(x1 and x2, -x1 and x2)): both inner
# or-gates are deterministic, the outer one is not (x1 and x2 is on both sides)
NON_DETERMINISTIC = ";".join([
    "g 0 LIT 1", "g 1 LIT 2", "g 2 LIT -2", "g 3 LIT -1",
    "g 4 AND 0 1", "g 5 AND 0 2", "g 6 AND 3 1",
    "g 7 OR 4 5", "g 8 OR 4 6", "g 9 OR 7 8", "root 9"])


def test_non_deterministic_payload_is_malformed():
    phi = cnf(2, [(1, 2), (-1,), (-2,)])
    proof = Proof(ProofSystem("dsdnnf", frozenset(("join",))))
    sid = proof.add_structure(parse_vtree("(x1 x2)"))
    proof.add_init(0, proof.add_diagram(sid, NON_DETERMINISTIC))
    verdict = check_proof(phi, proof)
    assert not verdict.accepted
    assert verdict.failing_line == 1
    assert verdict.reason == "malformed: circuit is not deterministic"
