"""restrict_proof through move lines and through a tail cut, and the vtree
walks on a vtree deeper than the interpreter's recursion limit.

A restricted proof must refute restrict_cnf of the formula: the checker
accepts it.  A tail is cut only when the proof holds a line that the
final line does not use, so that case is built by hand.  The deep vtree
is right-linear with a leaf count just over the recursion limit; each
node keeps the frozenset of its leaves, so the tree stays well below
3,000 leaves to keep memory small.
"""

import random
import sys

import pytest

from kcproof import dsdnnf
from kcproof.cnf import cnf
from kcproof.obdd import ObddStore, obdd_apply, obdd_from_clause
from kcproof.proofs import (Proof, ProofSystem, check_proof, diagram_payload,
                            parse_proof, proof_to_text)
from kcproof.sdd import SddStore, rebind, sdd_apply, sdd_from_clause
from kcproof.structure import (StructureError, move, node_table,
                               path_of_var, remove_leaf, right_linear_order,
                               right_linear_vtree, vtree_to_text)
from kcproof.zoo import random_regular, tseitin
from oracles import restrict_cnf, restrict_proof


def move_proof(phi, split, moves, seed):
    """Fold the first `split` clauses, carry the result through `moves`
    seeded single-leaf moves of the vtree, then fold the rest to false."""
    tree = right_linear_vtree(tuple(range(1, phi.num_vars + 1)))
    proof = Proof(ProofSystem("sdd", ("join", "move")))
    store, sid = SddStore(tree), proof.add_structure(tree)
    acc = acc_line = None

    def fold(index):
        nonlocal acc, acc_line
        d = sdd_from_clause(store, phi.clauses[index])
        line = proof.add_init(index,
                              proof.add_diagram(sid, diagram_payload(d)))
        if acc is None:
            acc, acc_line = d, line
        else:
            acc = sdd_apply("and", acc, d)
            acc_line = proof.add_join(
                acc_line, line, proof.add_diagram(sid, diagram_payload(acc)))

    for index in range(split):
        fold(index)
    rng = random.Random(seed)
    done = 0
    while done < moves:
        x = rng.choice(sorted(tree.variables))
        w_path = rng.choice(sorted(node_table(remove_leaf(tree, x))))
        direction = rng.choice("lr")
        try:
            tree = move(tree, x, w_path, direction)
        except StructureError:
            continue
        store = SddStore(tree)
        sid = proof.add_structure(tree)
        acc = rebind(store, acc)
        acc_line = proof.add_move(acc_line, x, w_path, direction, sid,
                                  proof.add_diagram(sid, diagram_payload(acc)))
        done += 1
    for index in range(split, phi.num_clauses):
        fold(index)
    return parse_proof(proof_to_text(proof))


PHI = tseitin(random_regular(6, 3, 1), [1, 0, 0, 0, 0, 0])
PROOF = move_proof(PHI, PHI.num_clauses // 2, 4, 1)


def test_the_move_proof_is_accepted():
    assert [line.rule for line in PROOF.lines].count("move") == 4
    assert check_proof(PHI, PROOF).accepted


@pytest.mark.parametrize("seed", range(6))
def test_random_restrictions_keep_the_moves(seed):
    rng = random.Random(seed)
    chosen = rng.sample(range(1, PHI.num_vars + 1), 3)
    assignment = {v: rng.randint(0, 1) for v in chosen}
    restricted = restrict_proof(PHI, PROOF, assignment)
    assert [line.rule for line in restricted.lines].count("move") == 4
    assert check_proof(restrict_cnf(PHI, assignment), restricted).accepted


def test_a_satisfied_first_clause_drops_the_moves():
    proof = move_proof(PHI, 1, 2, 1)
    lit = PHI.clauses[0][0]
    assignment = {abs(lit): int(lit > 0)}
    restricted = restrict_proof(PHI, proof, assignment)
    assert "move" not in [line.rule for line in restricted.lines]
    assert check_proof(restrict_cnf(PHI, assignment), restricted).accepted


def test_the_tail_after_the_final_line_is_cut():
    # x1, not x1, their join, a second join of the two that the final
    # line does not use, x2, and false joined with x2
    phi = cnf(2, [(1,), (-1,), (2,)])
    order = (1, 2)
    store = ObddStore(order)
    proof = Proof(ProofSystem("obdd", ("join",)))
    sid = proof.add_structure(order)
    d = [obdd_from_clause(store, clause) for clause in phi.clauses]
    false = obdd_apply("and", d[0], d[1])

    def did(diagram):
        return proof.add_diagram(sid, diagram_payload(diagram))

    proof.add_init(0, did(d[0]))
    proof.add_init(1, did(d[1]))
    proof.add_join(1, 2, did(false))
    proof.add_join(2, 1, did(false))
    proof.add_init(2, did(d[2]))
    proof.add_join(3, 5, did(false))
    assert check_proof(phi, proof).accepted
    # x2 = 1 satisfies the last clause: the final line falls onto line 3
    # and the unused join after it is cut
    restricted = restrict_proof(phi, proof, {2: 1})
    assert [(line.rule, line.refs) for line in restricted.lines] == \
        [("init", ()), ("init", ()), ("join", (1, 2))]
    assert check_proof(restrict_cnf(phi, {2: 1}), restricted).accepted


# ------------------------------------------------------------- deep vtrees

@pytest.fixture(scope="module")
def deep():
    n = sys.getrecursionlimit() + 100
    return n, right_linear_vtree(tuple(range(1, n + 1)))


def test_node_table_and_leaves(deep):
    n, tree = deep
    table = node_table(tree)
    assert len(table) == 2 * n - 1
    assert next(iter(table)) == "" and list(table)[-1] == "R" * (n - 1)
    assert tree.leaves_in_order() == list(range(1, n + 1))
    assert right_linear_order(tree) == tuple(range(1, n + 1))


def test_text_paths_and_moves(deep):
    n, tree = deep
    text = vtree_to_text(tree)
    assert text.startswith("(x1 (x2 ")
    assert text.endswith("x%d%s" % (n, ")" * (n - 1)))
    assert path_of_var(tree, n) == "R" * (n - 1)
    assert path_of_var(tree, n + 1) is None
    remainder = remove_leaf(tree, n)
    assert right_linear_order(remainder) == tuple(range(1, n))
    # x1 to the far end: the order rotates by one
    moved = move(tree, 1, "R" * (n - 2), "r")
    assert right_linear_order(moved) == tuple(range(2, n + 1)) + (1,)


def test_dsdnnf_vtree_table(deep):
    n, tree = deep
    halves, leaf, bottom = dsdnnf._vtree_table(tree)
    assert len(halves) == n - 1 and bottom == "L"
    assert leaf[n] == "R" * (n - 1)
    assert halves[""] == (1, (1 << n) - 2)
