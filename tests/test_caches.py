"""The caches behind SDD construction: per-node vtree variable sets, the
per-store literal embedding memo, and the store's child-path table.

None of them may change a node id, so the treewidth pipeline's proof text
is pinned byte for byte.
"""

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from kcproof.cnf import full_mask, var_mask
from kcproof.proofs import proof_to_text
from kcproof.refute import treewidth_refute
from kcproof.sdd import SddStore, sdd_literal, sdd_truth_mask
from kcproof.structure import (
    move,
    node_table,
    parse_vtree,
    remove_leaf,
    vtree_leaf,
    vtree_node,
    vtree_to_text,
)
from kcproof.zoo import grid_family, vc_formula

# proof_to_text(treewidth_refute(vc_formula(grid_family(2, 2)))[0]) before
# the caches existed
GRID_2_2_PROOF_SHA256 = \
    "32d493884e40a7fcf3156e3d869030eb2b0616d8e338f303c43ebda65bbaddb7"


@st.composite
def vtrees(draw, variables):
    if len(variables) == 1:
        return vtree_leaf(variables[0])
    split = draw(st.integers(1, len(variables) - 1))
    return vtree_node(draw(vtrees(variables[:split])),
                      draw(vtrees(variables[split:])))


@st.composite
def random_vtrees(draw, max_vars=6):
    n = draw(st.integers(1, max_vars))
    return draw(vtrees(draw(st.permutations(list(range(1, n + 1))))))


def balanced_vtree(lo, hi):
    if hi - lo == 1:
        return vtree_leaf(lo)
    mid = (lo + hi) // 2
    return vtree_node(balanced_vtree(lo, mid), balanced_vtree(mid, hi))


def assert_variables_match_leaves(tree):
    for node in node_table(tree).values():
        assert node.variables == frozenset(node.leaves_in_order())


class TestLiteralEmbedding:
    @given(random_vtrees())
    @settings(max_examples=60, deadline=None)
    def test_literals_match_oracle_and_are_built_once(self, tree):
        store = SddStore(tree)
        n = max(tree.variables)
        ones = full_mask(n)
        for var in sorted(tree.variables):
            for lit in (var, -var):
                d = sdd_literal(store, lit)
                mask = var_mask(var, n)
                assert sdd_truth_mask(d, n) == (mask if lit > 0
                                                else ones ^ mask)
                nodes = len(store.nodes)
                assert sdd_literal(store, lit) == d
                assert len(store.nodes) == nodes

    def test_balanced_64_leaves_makes_linear_mk_dec_calls(self):
        tree = balanced_vtree(1, 65)
        depth = 6
        for var in (1, 33, 64):
            store = SddStore(tree)
            for path in store.paths:
                store.true_at(path)
                store.false_at(path)
            calls = []
            mk_dec = store.mk_dec

            def counting(path, elements):
                calls.append(path)
                return mk_dec(path, elements)

            store.mk_dec = counting
            sdd_literal(store, var)
            assert len(calls) <= 2 * depth + 2


class TestVtreeVariables:
    @given(random_vtrees(max_vars=7), st.data())
    @settings(max_examples=80, deadline=None)
    def test_cached_sets_follow_move_and_remove_leaf(self, tree, data):
        assert_variables_match_leaves(tree)
        if tree.is_leaf:
            return
        var = data.draw(st.sampled_from(sorted(tree.variables)))
        remainder = remove_leaf(tree, var)
        assert_variables_match_leaves(remainder)
        w_path = data.draw(st.sampled_from(sorted(node_table(remainder))))
        direction = data.draw(st.sampled_from("lr"))
        assert_variables_match_leaves(move(tree, var, w_path, direction))

    def test_equality_and_hash_see_only_the_shape(self):
        tree = parse_vtree("((x1 x2) (x3 x4))")
        again = parse_vtree(vtree_to_text(tree))
        assert tree == again and hash(tree) == hash(again)
        assert tree != parse_vtree("((x1 x3) (x2 x4))")


def test_treewidth_proof_bytes_unchanged():
    proof = treewidth_refute(vc_formula(grid_family(2, 2)))[0]
    text = proof_to_text(proof)
    assert hashlib.sha256(text.encode()).hexdigest() == GRID_2_2_PROOF_SHA256
