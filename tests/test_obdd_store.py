"""The OBDD store's tables: the per-node level table, the per-operation
apply workers behind one memo, and unique-first node construction.

None of them may change a node id, so two obdd proofs are pinned byte for
byte.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcproof.obdd import (
    ObddError,
    ObddRef,
    ObddStore,
    obdd_apply,
    obdd_from_clause,
    obdd_from_lines,
    obdd_to_lines,
)
from kcproof.cnf import cnf
from kcproof.proofs import (
    Proof,
    ProofSystem,
    check_proof,
    diagram_payload,
    proof_to_text,
)
from kcproof.refute import obdd_refute_eq, resolution_refute_lifted
from kcproof.zoo import lift_Z, path, vc_formula
from oracles import (full_mask, obdd_literal, obdd_truth_mask,
                     resolution_to_obddw, var_mask)

# SHA-256 of the proof texts before the level table and the per-operation
# apply workers existed
EQ_32_5_PROOF_SHA256 = \
    "02f4d398a8596dd0d206180d87da26e91ab261c84eb37f65f8bbbf78fa367a2b"
RESOLUTION_PATH_4_PROOF_SHA256 = \
    "e3d2fd4caf165a8f27b33480f7e77fd656aa132c6cfdb6a021f94f71a6dcecdc"


def sha256(proof):
    return hashlib.sha256(proof_to_text(proof).encode()).hexdigest()


@st.composite
def formulas(draw, num_vars, depth=4):
    """A formula tree of literals and constants under "and"/"or"."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        if draw(st.integers(0, 7)) == 0:
            return draw(st.booleans())
        var = draw(st.integers(1, num_vars))
        return var if draw(st.booleans()) else -var
    op = draw(st.sampled_from(("and", "or")))
    return (op, draw(formulas(num_vars, depth - 1)),
            draw(formulas(num_vars, depth - 1)))


def build(store, formula):
    if formula is True or formula is False:
        return ObddRef(store, store.TRUE if formula else store.FALSE)
    if isinstance(formula, int):
        return obdd_literal(store, formula)
    op, left, right = formula
    return obdd_apply(op, build(store, left), build(store, right))


def mask_of(formula, num_vars):
    ones = full_mask(num_vars)
    if formula is True or formula is False:
        return ones if formula else 0
    if isinstance(formula, int):
        mask = var_mask(abs(formula), num_vars)
        return mask if formula > 0 else ones ^ mask
    op, left, right = formula
    a, b = mask_of(left, num_vars), mask_of(right, num_vars)
    return a & b if op == "and" else a | b


@st.composite
def ordered_formulas(draw):
    num_vars = draw(st.integers(1, 6))
    order = draw(st.permutations(range(1, num_vars + 1)))
    return num_vars, tuple(order), draw(formulas(num_vars))


def assert_levels_consistent(store):
    assert store.levels[store.FALSE] == store.levels[store.TRUE] \
        == len(store.order)
    assert len(store.levels) == len(store.nodes)
    for u in range(2, len(store.nodes)):
        var, lo, hi = store.nodes[u]
        assert store.levels[u] == store.level[var]
        assert store.levels[lo] > store.levels[u] < store.levels[hi]
        assert store.unique[store.nodes[u]] == u


class TestApply:
    @settings(max_examples=200, deadline=None)
    @given(ordered_formulas())
    def test_apply_matches_truth_mask_arithmetic(self, case):
        num_vars, order, formula = case
        store = ObddStore(order)
        d = build(store, formula)
        assert obdd_truth_mask(d, num_vars) == mask_of(formula, num_vars)
        assert_levels_consistent(store)

    @settings(max_examples=100, deadline=None)
    @given(ordered_formulas(), ordered_formulas())
    def test_equal_functions_share_one_id(self, case, other):
        num_vars, order, formula = case
        store = ObddStore(order)
        d = build(store, formula)
        if other[0] <= num_vars:
            e = build(store, other[2])
            same = mask_of(formula, num_vars) == mask_of(other[2], num_vars)
            assert (d.node == e.node) == same

    def test_results_are_memoised_under_the_sorted_key(self):
        store = ObddStore((1, 2, 3))
        a = obdd_literal(store, 3).node
        b = obdd_literal(store, 1).node
        assert a < b
        result = store.apply("or", b, a)
        assert store.cache[("or", a, b)] == result
        nodes = len(store.nodes)
        assert store.apply("or", a, b) == result
        assert len(store.nodes) == nodes

    def test_unknown_operation_raises(self):
        store = ObddStore((1,))
        with pytest.raises(ObddError):
            store.apply("xor", store.TRUE, store.TRUE)
        with pytest.raises(ObddError):
            store.apply("xor", store.FALSE, store.TRUE)


class TestMk:
    def test_unknown_variable_raises_even_when_children_agree(self):
        store = ObddStore((1, 2))
        with pytest.raises(ObddError, match="not in order"):
            store.mk(9, store.TRUE, store.TRUE)
        with pytest.raises(ObddError, match="not in order"):
            store.mk(9, store.FALSE, store.TRUE)

    def test_child_at_an_earlier_level_raises(self):
        store = ObddStore((1, 2, 3))
        early = store.mk(1, store.FALSE, store.TRUE)
        late = store.mk(3, store.FALSE, store.TRUE)
        nodes = len(store.nodes)
        with pytest.raises(ObddError, match="later variables"):
            store.mk(3, early, store.TRUE)
        with pytest.raises(ObddError, match="later variables"):
            store.mk(2, store.TRUE, early)
        with pytest.raises(ObddError, match="later variables"):
            store.mk(3, late, store.FALSE)
        assert len(store.nodes) == nodes
        assert (3, early, store.TRUE) not in store.unique
        assert store.mk(2, late, store.TRUE) == nodes

    def test_equal_children_reduce(self):
        store = ObddStore((1, 2))
        low = store.mk(2, store.FALSE, store.TRUE)
        assert store.mk(1, low, low) == low

    def test_a_held_key_returns_its_id(self):
        store = ObddStore((1, 2))
        u = store.mk(2, store.TRUE, store.FALSE)
        nodes = len(store.nodes)
        assert store.mk(2, store.TRUE, store.FALSE) == u
        assert len(store.nodes) == nodes


class TestLines:
    @settings(max_examples=100, deadline=None)
    @given(ordered_formulas())
    def test_held_nodes_under_new_labels_add_nothing(self, case):
        num_vars, order, formula = case
        store = ObddStore(order)
        d = build(store, formula)
        relabel = {}
        lines = []
        for line in obdd_to_lines(d):
            parts = line.split()
            if parts[0] == "n":
                relabel[parts[1]] = "k%s" % parts[1]
                labels = (1, 3, 4)  # not the variable at 2
            else:
                labels = (1,)
            for i in labels:
                parts[i] = relabel.get(parts[i], parts[i])
            lines.append(" ".join(parts))
        nodes = len(store.nodes)
        again = obdd_from_lines(store, lines)
        assert again.node == d.node
        assert len(store.nodes) == nodes == len(store.levels)

    @settings(max_examples=100, deadline=None)
    @given(ordered_formulas())
    def test_lines_round_trip_into_a_fresh_store(self, case):
        num_vars, order, formula = case
        store = ObddStore(order)
        d = build(store, formula)
        fresh = ObddStore(order)
        again = obdd_from_lines(fresh, obdd_to_lines(d))
        assert obdd_truth_mask(again, num_vars) == \
            obdd_truth_mask(d, num_vars)
        assert_levels_consistent(fresh)

    def test_parse_errors_are_kept(self):
        store = ObddStore((1, 2))
        cases = [
            (["n 2 1 F"], "malformed node statement"),
            (["n T 1 F T"], "reused"),
            (["n 2 2 F T", "n 2 1 F T"], "reused"),
            (["n 2 x F T"], "bad variable"),
            (["n 2 1 3 T"], "undefined node '3'"),
            (["n 2 1 F 3"], "undefined node '3'"),
            (["n 2 1 F T", "root 4"], "undefined node '4'"),
            (["root F", "root T"], "malformed root"),
            (["x 1"], "unknown statement"),
            (["n 2 1 F T"], "missing root"),
        ]
        for lines, message in cases:
            with pytest.raises(ObddError, match=message):
                obdd_from_lines(store, lines)


class TestClauseDiagrams:
    def test_a_variable_outside_the_order_raises(self):
        store = ObddStore((1, 3))
        with pytest.raises(ObddError, match="variable 2 not in order"):
            obdd_from_clause(store, (1, -2))

    def test_an_order_missing_a_clause_variable_refutes_nothing(self):
        # x2 satisfies both clauses; over the order (1) alone, dropping x2
        # would turn them into x1 and ~x1, whose join is false
        phi = cnf(2, [(1, 2), (-1, 2)])
        store = ObddStore((1,))
        x1 = obdd_literal(store, 1)
        not_x1 = obdd_literal(store, -1)
        proof = Proof(ProofSystem("obdd", frozenset(("join",))))
        sid = proof.add_structure((1,))
        first = proof.add_init(0, proof.add_diagram(sid, diagram_payload(x1)))
        second = proof.add_init(
            1, proof.add_diagram(sid, diagram_payload(not_x1)))
        proof.add_join(first, second, proof.add_diagram(
            sid, diagram_payload(obdd_apply("and", x1, not_x1))))
        verdict = check_proof(phi, proof)
        assert not verdict.accepted
        assert verdict.failing_line == 1
        assert "variable 2 not in order" in verdict.reason


class TestPinnedProofs:
    def test_equality_proof_is_unchanged(self):
        assert sha256(obdd_refute_eq(32, 5)) == EQ_32_5_PROOF_SHA256

    def test_resolution_translation_is_unchanged(self):
        lifted = lift_Z(vc_formula(path(4)))
        proof = resolution_to_obddw(lifted.result,
                                    resolution_refute_lifted(lifted))
        assert sha256(proof) == RESOLUTION_PATH_4_PROOF_SHA256
