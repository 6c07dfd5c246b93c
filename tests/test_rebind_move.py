"""rebind across one vtree move: one Shannon step over the vtree without
the moved variable, through drop_leaf and its inverse insert_leaf.  The
same CNF compiled directly in the target store is the oracle for the node
id, and brute-force truth masks for the function."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcproof import sdd
from kcproof.cnf import cnf
from kcproof.proofs import BACKENDS
from kcproof.refute import fold_trace
from kcproof.sdd import (SddError, SddStore, drop_leaf, insert_leaf, rebind,
                         sdd_apply, sdd_const, sdd_from_clause, sdd_literal,
                         sdd_mentioned_vars, sdd_negate, sdd_truth_mask)
from kcproof.structure import (StructureError, move, node_table, remove_leaf,
                               right_linear_vtree, vtree_leaf, vtree_node)
from kcproof.zoo import random_regular, tseitin


@st.composite
def vtrees(draw, variables):
    if len(variables) == 1:
        return vtree_leaf(variables[0])
    split = draw(st.integers(1, len(variables) - 1))
    return vtree_node(draw(vtrees(variables[:split])),
                      draw(vtrees(variables[split:])))


@st.composite
def cnfs(draw, n):
    def clause(variables):
        return tuple(v if draw(st.booleans()) else -v for v in variables)
    return cnf(n, [clause(draw(st.lists(st.integers(1, n), min_size=1,
                                        max_size=min(3, n), unique=True)))
                   for _ in range(draw(st.integers(0, 2 * n)))])


def fold(store, clauses):
    return fold_trace(BACKENDS["sdd"], store, clauses)[0]


def moves(tree):
    """Every valid (x, w_path, direction) and the vtree it gives."""
    if tree.is_leaf:
        return
    for x in sorted(tree.variables):
        for w_path in sorted(node_table(remove_leaf(tree, x))):
            for direction in "lr":
                yield x, w_path, direction, move(tree, x, w_path, direction)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rebind_lands_on_the_directly_compiled_node(data):
    n = data.draw(st.integers(1, 6), label="n")
    tree = data.draw(vtrees(data.draw(
        st.permutations(list(range(1, n + 1))))), label="tree")
    phi = data.draw(cnfs(n), label="phi")
    d = fold(SddStore(tree), phi.clauses)
    mask = sdd_truth_mask(d, n)
    for x, w_path, direction, moved in moves(tree):
        target = SddStore(moved)
        if moved != tree:
            # the one-move path is taken for every move that changes the tree
            assert sdd._moved_leaf(d.store, target) is not None
        got = rebind(target, d)
        assert got.store is target
        assert got.node == fold(target, phi.clauses).node, \
            (x, w_path, direction)
        assert sdd_truth_mask(got, n) == mask


# ------------------------------------------------ insert_leaf, drop_leaf

def L(var):
    return vtree_leaf(var)


def N(left, right):
    return vtree_node(left, right)


ROUND_TRIPS = {
    # name: (target vtree, inserted variable)
    "x left child": (N(N(L(4), L(1)), N(L(2), L(3))), 4),
    "x right child": (N(N(L(1), L(4)), N(L(2), L(3))), 4),
    "x left of a deep sibling": (N(L(1), N(L(4), N(L(2), L(3)))), 4),
    "x right of a deep sibling": (N(N(N(L(1), L(2)), L(4)), L(3)), 4),
    "parent at the root, x left": (N(L(4), N(L(1), N(L(2), L(3)))), 4),
    "parent at the root, x right": (N(N(L(1), N(L(2), L(3))), L(4)), 4),
    "two leaves, x left": (N(L(2), L(1)), 2),
    "two leaves, x right": (N(L(1), L(2)), 2),
}


def functions(store):
    """Diagrams over store's vtree: both constants, every literal, a
    function of the far variables only, and a parity."""
    variables = sorted(store.vtree.variables)
    out = [sdd_const(store, False), sdd_const(store, True)]
    out += [sdd_literal(store, lit) for v in variables for lit in (v, -v)]
    out.append(sdd_from_clause(store, (variables[0], -variables[-1])))
    parity = sdd_const(store, False)
    for v in variables:
        lit = sdd_literal(store, v)
        parity = sdd_apply("or", sdd_apply("and", parity, sdd_negate(lit)),
                           sdd_apply("and", sdd_negate(parity), lit))
    out.append(parity)
    return out


@pytest.mark.parametrize("name", sorted(ROUND_TRIPS))
def test_drop_leaf_undoes_insert_leaf(name):
    tree, x = ROUND_TRIPS[name]
    target = SddStore(tree)
    common = SddStore(remove_leaf(tree, x))
    n = max(tree.variables)
    for f in functions(common):
        inserted = insert_leaf(target, f, x)
        assert inserted.store is target
        assert x not in sdd_mentioned_vars(inserted)
        assert sdd_truth_mask(inserted, n) == sdd_truth_mask(f, n)
        assert drop_leaf(common, inserted, x).node == f.node
        # the node a rebuild in the target store finds
        assert inserted.node == rebind(target, f).node


def test_a_diagram_that_never_looks_near_x():
    # x4 and its sibling x3 sit in the right half, where x1 | ~x2 is true
    tree = N(N(L(1), L(2)), N(L(4), L(3)))
    common = SddStore(remove_leaf(tree, 4))
    f = sdd_from_clause(common, (1, -2))
    inserted = insert_leaf(SddStore(tree), f, 4)
    assert sdd_mentioned_vars(inserted) == {1, 2}
    assert drop_leaf(common, inserted, 4).node == f.node


class TestWrongVtree:
    def test_another_shape_without_the_variable(self):
        target = SddStore(N(N(L(1), L(4)), N(L(2), L(3))))
        wrong = SddStore(N(N(L(1), L(3)), L(2)))
        with pytest.raises(SddError, match="without x4"):
            insert_leaf(target, sdd_literal(wrong, 1), 4)

    def test_a_source_that_holds_the_variable(self):
        tree = N(N(L(1), L(4)), N(L(2), L(3)))
        with pytest.raises(SddError, match="without x4"):
            insert_leaf(SddStore(tree), sdd_literal(SddStore(tree), 1), 4)

    def test_a_variable_outside_the_target(self):
        target = SddStore(N(L(1), L(2)))
        with pytest.raises(SddError, match="not in vtree"):
            insert_leaf(target, sdd_literal(SddStore(L(1)), 1), 9)

    def test_the_only_leaf(self):
        with pytest.raises(SddError, match="only leaf"):
            insert_leaf(SddStore(L(1)), sdd_literal(SddStore(L(1)), 1), 1)


# ------------------------------------------------------------ a time budget

MOVES = 20
# the 20 rebinds took about 0.24 s of process time on a 2-vCPU machine
# (Python 3.11); a rebuild with root-level applies took 0.83 to 0.94 s
REBIND_BUDGET_S = 0.6


def test_sdd_moves_rebinds_within_budget():
    """The Tseitin fold of the sdd_moves benchmark, unrenamed: fold two
    thirds of the clauses, then rebind over MOVES seeded moves."""
    graph = random_regular(10, 3, 1)
    phi = tseitin(graph, [1] + [0] * (graph.n_vertices - 1))
    tree = right_linear_vtree(tuple(range(1, phi.num_vars + 1)))
    acc = fold(SddStore(tree), phi.clauses[:2 * phi.num_clauses // 3])
    rng = random.Random(1)
    spent, done = 0.0, 0
    while done < MOVES:
        x = rng.randint(1, phi.num_vars)
        w_path = rng.choice(sorted(node_table(remove_leaf(tree, x))))
        direction = rng.choice("lr")
        try:
            moved = move(tree, x, w_path, direction)
        except StructureError:
            continue
        if moved == tree:
            continue
        tree, before = moved, sdd_truth_mask(acc, phi.num_vars)
        target = SddStore(tree)
        start = time.process_time()
        acc = rebind(target, acc)
        spent += time.process_time() - start
        assert sdd_truth_mask(acc, phi.num_vars) == before
        done += 1
    assert spent < REBIND_BUDGET_S, "took %.2fs" % spent
