"""Extraction walks from the final join back through premises that are
already unsatisfiable, on either side, to the join of two satisfiable
lines."""

import pytest

from kcproof.cnf import cnf
from kcproof.obdd import obdd_restrict
from kcproof.proofs import check_proof, parse_proof, proof_to_text
from kcproof.refute import extract_representation, naive_conjoin_refute
from kcproof.zoo import lift_Z
from oracles import all_models, obdd_is_unsat

PHI_TWO_MODELS = cnf(2, [(1, 2), (-1, -2)])


def models(diagram):
    return {(a, b) for a in (0, 1) for b in (0, 1)
            if not obdd_is_unsat(obdd_restrict(diagram, {1: a, 2: b}))}


@pytest.mark.parametrize("extra", [
    [("last", "last")],            # false joined with itself: left is false
    [(1, "last"), ("last", 1)],    # right false, then left false
])
def test_walk_back_through_false_premises(extra):
    lifted = lift_Z(PHI_TWO_MODELS)
    phi = lifted.result
    proof = naive_conjoin_refute(phi, tuple(range(1, phi.num_vars + 1)))
    false_id = proof.lines[-1].diagram_id
    for left, right in extra:
        last = len(proof.lines)
        proof.add_join(last if left == "last" else left,
                       last if right == "last" else right, false_id)
    proof = parse_proof(proof_to_text(proof))
    assert check_proof(phi, proof).accepted
    expected = {tuple(m[v] for v in (1, 2))
                for m in all_models(PHI_TWO_MODELS)}
    assert models(extract_representation(proof, lifted)) == expected
