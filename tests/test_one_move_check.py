"""One move check for every format.  A move line of any format and each
step of an OBDD reorder certificate are checked alike: equal counts,
then equal restrictions on the moved variable over the structure without
it.  And equal structures share one checker store, so a proof may name
one structure twice and join across the two names."""

import pytest

from kcproof.cnf import cnf, formula_mask
from kcproof.obdd import ObddStore, obdd_count, obdd_from_clause
from kcproof.proofs import (Proof, ProofSystem, _Session, check_proof,
                            diagram_payload, parse_proof, proof_to_text)
from kcproof.refute import fold_backend, fold_trace, naive_conjoin_refute
from kcproof.structure import (move, order_move_of_vtree_move,
                               right_linear_vtree, vtree_leaf, vtree_node)

MOVE_REJECTED = "move count equations fail"
NOT_FALSE = "final line is not the constant-false diagram"

PHI = cnf(4, [(1, 2), (-2, 3), (3, 4), (-1, -4)])
TREE = vtree_node(vtree_node(vtree_leaf(1), vtree_leaf(2)),
                  vtree_node(vtree_leaf(3), vtree_leaf(4)))
ORDER = (1, 2, 3, 4)
# x1 moves from the front of the order to the third place
STEPS = {
    "obdd": (ORDER, (1, "RR", "l", order_move_of_vtree_move(
        right_linear_vtree(ORDER), 1, "RR", "l"))),
    "dsdnnf": (TREE, (1, "R", "l", move(TREE, 1, "R", "l"))),
}


def flipped(phi, var):
    """phi with every literal of var negated: as many models, and in
    general another function."""
    return cnf(phi.num_vars, [tuple(-lit if abs(lit) == var else lit
                                    for lit in clause)
                              for clause in phi.clauses])


def diagram(fmt, structure, phi):
    """The conjunction of phi's clauses as a fmt diagram over structure."""
    backend, export = fold_backend(fmt)
    d, _ = fold_trace(backend, backend.store(structure), phi.clauses)
    return export(d)


def move_verdict(fmt, phi, psi):
    """Fold phi, then claim that psi's diagram over the moved structure
    is the same function; returns the verdict and the move line."""
    structure, (x, w_path, direction, moved) = STEPS[fmt]
    proof = naive_conjoin_refute(phi, structure, fmt)
    proof.system = ProofSystem(fmt, ("join", "move"))
    sid = proof.add_structure(moved)
    n = proof.add_move(len(proof.lines), x, w_path, direction, sid,
                       proof.add_diagram(sid, diagram_payload(
                           diagram(fmt, moved, psi))))
    return check_proof(phi, proof), n


# ------------------------------------------- same-count dishonest moves

@pytest.mark.parametrize("fmt", sorted(STEPS))
def test_honest_move_is_accepted_at_the_move_line(fmt):
    verdict, n = move_verdict(fmt, PHI, PHI)
    assert (verdict.failing_line, verdict.reason) == (n, NOT_FALSE)


@pytest.mark.parametrize("fmt", sorted(STEPS))
@pytest.mark.parametrize("var", [1, 3])
def test_same_count_other_function_is_rejected(fmt, var):
    # var 1 is the moved variable, var 3 another one; flipping a
    # variable's polarity keeps the model count
    psi = flipped(PHI, var)
    assert formula_mask(psi) != formula_mask(PHI)
    verdict, n = move_verdict(fmt, PHI, psi)
    assert (verdict.failing_line, verdict.reason) == (n, MOVE_REJECTED)


# ------------------------------------- a reorder certificate, weakened

REORDER_PHI = cnf(3, [(1, 2), (-1,), (-2,)])


def reorder_proof(cert_clause, final_clause):
    """x1 or x2 over (1, 2, 3), reordered to (3, 2, 1) through one
    certificate over (3, 1, 2); both hops move one variable.  The clauses
    give the certificate's function and the reorder line's."""
    proof = Proof(ProofSystem(
        "obdd", frozenset(("join", "weaken", "reorder"))))
    orders = ((1, 2, 3), (3, 1, 2), (3, 2, 1))
    sids = [proof.add_structure(order) for order in orders]
    stores = [ObddStore(order) for order in orders]
    d = obdd_from_clause(stores[0], (1, 2))
    line = proof.add_init(0, proof.add_diagram(sids[0], diagram_payload(d)))
    cert = obdd_from_clause(stores[1], cert_clause)
    final = obdd_from_clause(stores[2], final_clause)
    assert len({obdd_count(e, {1, 2, 3}) for e in (d, cert, final)}) == 1
    proof.add_reorder(line, sids[2], proof.add_diagram(
        sids[2], diagram_payload(final)), cert_ids=(proof.add_diagram(
            sids[1], diagram_payload(cert)),))
    return proof


def test_honest_certificate_chain_is_accepted_at_the_reorder_line():
    verdict = check_proof(REORDER_PHI, reorder_proof((1, 2), (1, 2)))
    assert (verdict.failing_line, verdict.reason) == (2, NOT_FALSE)


@pytest.mark.parametrize("cert_clause, final_clause, step", [
    ((1, -2), (1, 2), 1),
    ((1, 2), (1, -2), 2),
])
def test_same_count_certificate_step_is_rejected(cert_clause, final_clause,
                                                 step):
    verdict = check_proof(REORDER_PHI,
                          reorder_proof(cert_clause, final_clause))
    assert (verdict.failing_line, verdict.reason) == (
        2, "reorder certificate chain broken at step %d" % step)


# --------------------------------------- one structure, two statements

UNSAT = cnf(3, [(1, 2), (-1, 2), (1, -2), (-1, -2, 3), (-3,)])
STRUCTURES = {
    "obdd": (2, 1, 3),
    "sdd": vtree_node(vtree_leaf(2),
                      vtree_node(vtree_leaf(3), vtree_leaf(1))),
}
STRUCTURES["dsdnnf"] = STRUCTURES["sdd"]


def two_statements(proof):
    """The proof with its one structure named again as structure 2, which
    every even-numbered diagram now names, so joins cross the names."""
    (value,) = proof.structures.values()
    proof.structures[2] = value
    for did, (_, payload) in list(proof.diagrams.items()):
        if did % 2 == 0:
            proof.diagrams[did] = (2, payload)
    return parse_proof(proof_to_text(proof))


def dishonest(proof):
    """The last join line's diagram replaced by the first init line's."""
    last = proof.lines[-1]
    sid, _ = proof.diagrams[last.diagram_id]
    proof.diagrams[last.diagram_id] = (
        sid, proof.diagrams[proof.lines[0].diagram_id][1])
    return proof


@pytest.mark.parametrize("fmt", sorted(STRUCTURES))
def test_joins_across_two_names_of_one_structure_are_accepted(fmt):
    proof = two_statements(naive_conjoin_refute(UNSAT, STRUCTURES[fmt], fmt))
    assert len(proof.structures) == 2
    sids = {proof.diagrams[line.diagram_id][0] for line in proof.lines}
    assert sids == {1, 2}
    session = _Session(proof, cap=10 ** 7)
    assert session.store(1) is session.store(2)
    verdict = check_proof(UNSAT, proof)
    assert verdict.accepted, verdict.reason


@pytest.mark.parametrize("fmt", sorted(STRUCTURES))
def test_a_dishonest_join_is_rejected_at_the_same_line(fmt):
    one = dishonest(naive_conjoin_refute(UNSAT, STRUCTURES[fmt], fmt))
    two = dishonest(two_statements(
        naive_conjoin_refute(UNSAT, STRUCTURES[fmt], fmt)))
    expected = check_proof(UNSAT, one)
    assert not expected.accepted
    assert expected.failing_line == len(one.lines)
    verdict = check_proof(UNSAT, two)
    assert (verdict.failing_line, verdict.reason) \
        == (expected.failing_line, expected.reason)
