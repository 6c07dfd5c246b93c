"""The naive d-SDNNF refutation folds its clauses in an SDD store and exports
every line with sdd_to_dsdnnf.

Each line is then a deterministic structured circuit equivalent to the
matching line of the "sdd" fold, the two proofs share their rules and
references, and the circuits stay as small as the canonical SDDs they come
from instead of growing with a product at every join.
"""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcproof.cnf import brute_force_models, cnf
from kcproof.dsdnnf import (circuit_from_lines, dsdnnf_equiv, sdd_to_dsdnnf,
                            validate_deterministic, validate_structured)
from kcproof.proofs import check_proof
from kcproof.refute import naive_conjoin_refute
from kcproof.sdd import SddStore, sdd_from_lines
from kcproof.structure import right_linear_vtree, vtree_leaf, vtree_node
from kcproof.zoo import lift_Z, path, vc_formula

# largest line of the fold of lift_Z(vc-path L) over the right-linear vtree
# on 1..n; the product route reached 1,070, 3,735 and 7,547 gates
MAX_SIZES = {4: 153, 5: 250, 6: 414}
# seconds to check any of them; L=6 took 0.6 s on a 2-vCPU host, and the
# product route ran about 71 s and then rejected its own proof at the 10^7
# pair cap
CHECK_BUDGET = 10.0


def vc_path(length):
    phi = lift_Z(vc_formula(path(length))).result
    return phi, right_linear_vtree(tuple(range(1, phi.num_vars + 1)))


def skeleton(proof):
    return [(line.rule, line.clause_index, line.refs) for line in proof.lines]


def line_circuits(proof):
    out = []
    for line in proof.lines:
        sid, payload = proof.diagrams[line.diagram_id]
        circuit = circuit_from_lines(payload.split(";"))
        circuit.vtree = proof.structures[sid]
        out.append(circuit)
    return out


def line_sdds(proof):
    (tree,) = proof.structures.values()
    store = SddStore(tree)
    return [sdd_from_lines(store, proof.diagrams[line.diagram_id][1].split(";"))
            for line in proof.lines]


@pytest.fixture(scope="module")
def path4():
    phi, tree = vc_path(4)
    return (tree, naive_conjoin_refute(phi, tree, "dsdnnf"),
            naive_conjoin_refute(phi, tree, "sdd"))


class TestLines:
    def test_every_line_is_structured_and_deterministic(self, path4):
        tree, proof, _ = path4
        for circuit in line_circuits(proof):
            validate_structured(circuit, tree)
            assert validate_deterministic(circuit, tree)

    def test_every_line_is_the_exported_sdd_line(self, path4):
        _, proof, sdd_proof = path4
        circuits = line_circuits(proof)
        sdds = line_sdds(sdd_proof)
        assert len(circuits) == len(sdds)
        for circuit, sdd in zip(circuits, sdds):
            assert dsdnnf_equiv(circuit, sdd_to_dsdnnf(sdd))

    def test_rules_and_references_match_the_sdd_fold(self, path4):
        _, proof, sdd_proof = path4
        assert skeleton(proof) == skeleton(sdd_proof)


@pytest.mark.parametrize("length", sorted(MAX_SIZES))
def test_largest_line_and_check_time(length):
    phi, tree = vc_path(length)
    proof = naive_conjoin_refute(phi, tree, "dsdnnf")
    start = time.perf_counter()
    verdict = check_proof(phi, proof)
    elapsed = time.perf_counter() - start
    assert verdict.accepted, verdict.reason
    assert verdict.stats["max_diagram_size"] <= MAX_SIZES[length]
    assert elapsed < CHECK_BUDGET


@st.composite
def vtrees(draw, variables):
    if len(variables) == 1:
        return vtree_leaf(variables[0])
    split = draw(st.integers(1, len(variables) - 1))
    return vtree_node(draw(vtrees(variables[:split])),
                      draw(vtrees(variables[split:])))


@st.composite
def formulas_on_vtrees(draw, max_vars=5):
    n = draw(st.integers(1, max_vars))
    clauses = []
    for _ in range(draw(st.integers(1, 7))):
        support = draw(st.sets(st.integers(1, n), min_size=1, max_size=3))
        clauses.append(tuple(v if draw(st.booleans()) else -v
                             for v in sorted(support)))
    tree = draw(vtrees(draw(st.permutations(list(range(1, n + 1))))))
    return cnf(n, clauses), tree


@given(formulas_on_vtrees())
@settings(max_examples=60, deadline=None)
def test_fold_is_accepted_exactly_when_unsatisfiable(case):
    phi, tree = case
    proof = naive_conjoin_refute(phi, tree, "dsdnnf")
    assert skeleton(proof) == skeleton(naive_conjoin_refute(phi, tree, "sdd"))
    verdict = check_proof(phi, proof)
    assert verdict.accepted == (brute_force_models(phi) == 0), verdict.reason
