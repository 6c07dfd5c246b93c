"""The move rule.  A move line is checked by its model count and by
comparing the restrictions on the moved variable over the structure
without it; for SDDs sdd.drop_leaf re-anchors them there.  Brute-force
truth masks are the oracle."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcproof.cnf import cnf, formula_mask
from kcproof.proofs import Proof, ProofSystem, check_proof, diagram_payload
from kcproof.refute import fold_backend, fold_trace, naive_conjoin_refute
from kcproof.sdd import (SddError, SddStore, drop_leaf, rebind, sdd_apply,
                         sdd_count, sdd_from_clause, sdd_literal,
                         sdd_restrict, sdd_truth_mask)
from kcproof.structure import (StructureError, move, node_table,
                               order_move_of_vtree_move, remove_leaf,
                               right_linear_vtree, vtree_leaf, vtree_node)
from kcproof.zoo import random_regular, tseitin

MOVE_REJECTED = "move count equations fail"
NOT_FALSE = "final line is not the constant-false diagram"


@st.composite
def vtrees(draw, variables):
    if len(variables) == 1:
        return vtree_leaf(variables[0])
    split = draw(st.integers(1, len(variables) - 1))
    return vtree_node(draw(vtrees(variables[:split])),
                      draw(vtrees(variables[split:])))


@st.composite
def clauses(draw, n):
    variables = draw(st.lists(st.integers(1, n), min_size=1,
                              max_size=min(3, n), unique=True))
    return tuple(v if draw(st.booleans()) else -v for v in variables)


@st.composite
def cnfs(draw, n):
    return cnf(n, draw(st.lists(clauses(n), min_size=1, max_size=2 * n)))


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


def vtree_moves(tree):
    """(var, w_path, direction, moved vtree) for every move that changes
    the vtree."""
    found = []
    for x in sorted(tree.variables):
        for w_path in sorted(node_table(remove_leaf(tree, x))):
            for direction in "lr":
                moved = move(tree, x, w_path, direction)
                if moved != tree:
                    found.append((x, w_path, direction, moved))
    return found


def order_moves(order):
    """The same for the right-linear vtree of an order, keeping the moves
    that stay right-linear; the last field is the new order."""
    found = []
    for x, w_path, direction, _ in vtree_moves(right_linear_vtree(order)):
        moved = order_move_of_vtree_move(right_linear_vtree(order), x,
                                         w_path, direction)
        if moved is not None:
            found.append((x, w_path, direction, moved))
    return found


def move_verdict(fmt, phi, structure, step, psi):
    """Fold phi over structure, then claim that psi's diagram over the
    moved structure is the same function; returns the verdict and the
    move line's number."""
    x, w_path, direction, moved = step
    proof = naive_conjoin_refute(phi, structure, fmt)
    proof.system = ProofSystem(fmt, ("join", "move"))
    sid = proof.add_structure(moved)
    n = proof.add_move(len(proof.lines), x, w_path, direction, sid,
                       proof.add_diagram(sid, diagram_payload(
                           diagram(fmt, moved, psi))))
    return check_proof(phi, proof), n


# ------------------------------------------------------ a dishonest move

PHI = cnf(4, [(1, 2), (-2, 3), (3, 4), (-1, -4)])
TREE = vtree_node(vtree_node(vtree_leaf(1), vtree_leaf(2)),
                  vtree_node(vtree_leaf(3), vtree_leaf(4)))
STEP = (1, "R", "l", move(TREE, 1, "R", "l"))


class TestSddMoveLine:
    def test_honest_move_is_accepted_at_the_move_line(self):
        verdict, n = move_verdict("sdd", PHI, TREE, STEP, PHI)
        assert (verdict.failing_line, verdict.reason) == (n, NOT_FALSE)

    @pytest.mark.parametrize("var", [1, 3])
    def test_same_count_other_function_is_rejected(self, var):
        # var 1 is the moved variable, var 3 another one
        psi = flipped(PHI, var)
        assert formula_mask(psi) != formula_mask(PHI)
        old, new = diagram("sdd", TREE, PHI), diagram("sdd", STEP[3], psi)
        assert sdd_count(old, range(1, 5)) == sdd_count(new, range(1, 5))
        verdict, n = move_verdict("sdd", PHI, TREE, STEP, psi)
        assert (verdict.failing_line, verdict.reason) == (n, MOVE_REJECTED)

    def test_one_restriction_differing_is_rejected(self):
        # PHI on x1 = 1; on x1 = 0, PHI's restriction with x3 negated
        psi = cnf(4, [(1, 2), (1, -2, -3), (1, -3, 4),
                      (-1, -2, 3), (-1, 3, 4), (-1, -4)])
        assert formula_mask(psi) != formula_mask(PHI)
        old, new = diagram("sdd", TREE, PHI), diagram("sdd", STEP[3], psi)
        assert sdd_count(old, range(1, 5)) == sdd_count(new, range(1, 5))
        assert sdd_truth_mask(sdd_restrict(old, {1: 1}), 4) \
            == sdd_truth_mask(sdd_restrict(new, {1: 1}), 4)
        verdict, n = move_verdict("sdd", PHI, TREE, STEP, psi)
        assert (verdict.failing_line, verdict.reason) == (n, MOVE_REJECTED)


# --------------------------------------------- every format, brute force

@st.composite
def move_cases(draw, fmt):
    n = draw(st.integers(2, 5))
    variables = draw(st.permutations(list(range(1, n + 1))))
    if fmt == "obdd":
        structure = tuple(variables)
        steps = order_moves(structure)
    else:
        structure = draw(vtrees(variables))
        steps = vtree_moves(structure)
    step = draw(st.sampled_from(steps))
    phi = draw(cnfs(n))
    kind = draw(st.sampled_from(("same", "flip", "other")))
    if kind == "same":
        psi = phi
    elif kind == "flip":
        psi = flipped(phi, draw(st.integers(1, n)))
    else:
        psi = draw(cnfs(n))
    return phi, structure, step, psi


@pytest.mark.parametrize("fmt", ["obdd", "sdd", "dsdnnf"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_move_line_accepted_exactly_when_functions_agree(fmt, data):
    phi, structure, step, psi = data.draw(move_cases(fmt))
    verdict, n = move_verdict(fmt, phi, structure, step, psi)
    assert verdict.failing_line in (None, n)
    passed = verdict.reason in (None, NOT_FALSE)
    assert passed or verdict.reason == MOVE_REJECTED
    assert passed == (formula_mask(phi) == formula_mask(psi))


# ------------------------------------------------------------ drop_leaf

@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_drop_leaf_keeps_the_function_and_the_canonical_node(data):
    n = data.draw(st.integers(2, 5))
    tree = data.draw(vtrees(data.draw(
        st.permutations(list(range(1, n + 1))))))
    phi = data.draw(cnfs(n))
    x, _, _, moved = data.draw(st.sampled_from(vtree_moves(tree)))
    d = diagram("sdd", tree, phi)
    honest = rebind(SddStore(moved), d)
    common = SddStore(remove_leaf(tree, x))
    for value in (0, 1):
        restricted = sdd_restrict(d, {x: value})
        dropped = drop_leaf(common, restricted, x)
        assert sdd_truth_mask(dropped, n) == sdd_truth_mask(restricted, n)
        # equal functions land on one node, so the ids decide honest moves
        again = drop_leaf(common, sdd_restrict(honest, {x: value}), x)
        assert again.node == dropped.node


class TestDropLeafRefuses:
    def test_a_literal_of_the_variable(self):
        common = SddStore(remove_leaf(TREE, 1))
        for lit in (1, -1):
            with pytest.raises(SddError):
                drop_leaf(common, sdd_literal(SddStore(TREE), lit), 1)

    @pytest.mark.parametrize("var", [1, 2, 3, 4])
    def test_a_diagram_that_depends_on_the_variable(self, var):
        with pytest.raises(SddError):
            drop_leaf(SddStore(remove_leaf(TREE, var)),
                      diagram("sdd", TREE, PHI), var)

    def test_a_target_over_another_vtree(self):
        d = sdd_restrict(diagram("sdd", TREE, PHI), {1: 0})
        with pytest.raises(SddError):
            drop_leaf(SddStore(remove_leaf(TREE, 2)), d, 1)

    def test_the_only_leaf(self):
        store = SddStore(vtree_leaf(1))
        d = sdd_apply("or", sdd_literal(store, 1), sdd_literal(store, -1))
        with pytest.raises(SddError):
            drop_leaf(store, d, 1)


# ---------------------------------------------------- a time budget

MOVES = 20
# checking took about 0.6 s on a 2-vCPU machine (Python 3.11); rebinding
# both restrictions into the moved store took about 1.55 s there
CHECK_BUDGET_S = 1.2


def tseitin_move_proof():
    """Tseitin on a 3-regular 10-vertex graph: fold two thirds of the
    clauses, move MOVES seeded leaves, rebinding each time, then fold
    the rest to false."""
    graph = random_regular(10, 3, 1)
    phi = tseitin(graph, [1] + [0] * (graph.n_vertices - 1))
    tree = right_linear_vtree(tuple(range(1, phi.num_vars + 1)))
    proof = Proof(ProofSystem("sdd", ("join", "move")))
    store, sid = SddStore(tree), proof.add_structure(tree)
    rng = random.Random(1)
    acc = acc_line = None

    def fold(indices):
        nonlocal acc, acc_line
        for index in indices:
            d = sdd_from_clause(store, phi.clauses[index])
            line = proof.add_init(index, proof.add_diagram(
                sid, diagram_payload(d)))
            if acc is None:
                acc, acc_line = d, line
                continue
            acc = sdd_apply("and", acc, d)
            acc_line = proof.add_join(acc_line, line, proof.add_diagram(
                sid, diagram_payload(acc)))

    split = 2 * phi.num_clauses // 3
    fold(range(split))
    moves = 0
    while moves < MOVES:
        x = rng.randint(1, phi.num_vars)
        w_path = rng.choice(sorted(node_table(remove_leaf(tree, x))))
        direction = rng.choice("lr")
        try:
            moved = move(tree, x, w_path, direction)
        except StructureError:
            continue
        if moved == tree:
            continue
        tree, store = moved, SddStore(moved)
        sid = proof.add_structure(tree)
        acc = rebind(store, acc)
        acc_line = proof.add_move(acc_line, x, w_path, direction, sid,
                                  proof.add_diagram(sid,
                                                    diagram_payload(acc)))
        moves += 1
    fold(range(split, phi.num_clauses))
    return phi, proof


def test_tseitin_fold_with_moves_checks_within_budget():
    phi, proof = tseitin_move_proof()
    assert sum(line.rule == "move" for line in proof.lines) == MOVES
    started = time.perf_counter()
    verdict = check_proof(phi, proof)
    elapsed = time.perf_counter() - started
    assert verdict.accepted, verdict.reason
    assert elapsed < CHECK_BUDGET_S, "took %.2fs" % elapsed
