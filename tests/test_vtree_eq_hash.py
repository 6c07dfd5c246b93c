"""Vtree equality and hashing need no recursion: a right-linear vtree
deeper than the recursion limit is hashed, compared and interned as a
proof structure."""

import sys

from kcproof.proofs import Proof, ProofSystem
from kcproof.structure import move, right_linear_vtree, vtree_leaf, vtree_node


def deep():
    return right_linear_vtree(range(1, sys.getrecursionlimit() + 101))


def test_deep_vtree_is_hashed_and_compared():
    tree, copy = deep(), deep()
    assert tree is not copy
    assert hash(tree) == hash(copy)
    assert tree == copy and not tree != copy
    moved = move(tree, 1, "", "r")
    assert moved != tree and not moved == tree


def test_deep_vtree_is_interned_once():
    proof = Proof(ProofSystem("sdd", ("join",)))
    tree = deep()
    sid = proof.add_structure(tree)
    assert proof.add_structure(deep()) == sid
    assert proof.add_structure(move(tree, 1, "", "r")) != sid


def test_equality_reads_shape_and_leaves():
    a, b = vtree_leaf(1), vtree_leaf(2)
    assert vtree_node(a, b) == vtree_node(vtree_leaf(1), vtree_leaf(2))
    assert vtree_node(a, b) != vtree_node(b, a)
    assert a != vtree_node(a, b) and vtree_node(a, b) != a
    assert a != 1 and vtree_leaf(1) == a
