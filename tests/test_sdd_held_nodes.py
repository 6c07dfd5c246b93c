"""The SDD store's shortcuts: apply probes its memo before the constants,
and the payload parser reuses a decision node the store already holds
instead of validating it again.

Neither may change a node id, so a second producer's proof text is pinned
byte for byte, and neither may let a malformed decision statement through.
"""

import hashlib

import pytest

from kcproof import sdd as sdd_module
from kcproof.proofs import check_proof, proof_to_text
from kcproof.refute import naive_conjoin_refute
from kcproof.sdd import (
    SddError,
    SddStore,
    sdd_apply,
    sdd_from_lines,
    sdd_literal,
    sdd_to_lines,
)
from kcproof.structure import parse_vtree, right_linear_vtree
from kcproof.zoo import random_regular, tseitin
from oracles import sdd_negate

# proof_to_text(naive_conjoin_refute(tseitin_instance(), right-linear vtree
# over 1..15)) before apply probed its memo first
TSEITIN_NAIVE_PROOF_SHA256 = \
    "8a1d5f064b7f1ebb69dbae0b4c08fb23a2774c2b3e30da6d5171c3dcf040ad19"

# x1 is the root's left child, so every prime is an atom at "L"
TREE = parse_vtree("(x1 (x2 x3))")


def tseitin_instance():
    graph = random_regular(10, 3, 1)
    return tseitin(graph, [1] + [0] * (graph.n_vertices - 1))


def mux(store):
    """(x1 and x2) or (not x1 and x3): two elements with distinct subs."""
    x1 = sdd_literal(store, 1)
    return sdd_apply("or",
                     sdd_apply("and", x1, sdd_literal(store, 2)),
                     sdd_apply("and", sdd_negate(x1), sdd_literal(store, 3)))


def restated(d, elements):
    """d's own statements with its root statement replaced by one listing
    elements; "tL" and "fL" label the constants at the left child."""
    lines = sdd_to_lines(d)[:-2]
    lines += ["a tL L true", "a fL L false",
              "s top - " + "".join("(%s %s)" % e for e in elements),
              "root top"]
    return lines


def held_elements(store, d):
    descriptor = store.nodes[d.node]
    assert store.unique[descriptor] == d.node
    return [(str(prime), str(sub)) for prime, sub in descriptor[2]]


class TestHeldNodes:
    def test_reordered_statement_returns_the_held_id(self, monkeypatch):
        store = SddStore(TREE)
        d = mux(store)
        elements = held_elements(store, d)
        assert len(elements) == 2
        validated = []
        monkeypatch.setattr(sdd_module, "_validate_partition",
                            lambda *args: validated.append(args))
        nodes = len(store.nodes)
        again = sdd_from_lines(store, restated(d, elements[::-1]))
        assert again == d
        assert len(store.nodes) == nodes
        assert validated == []

    def test_duplicated_element_rejected(self):
        store = SddStore(TREE)
        d = mux(store)
        elements = held_elements(store, d)
        with pytest.raises(SddError, match="partition"):
            sdd_from_lines(store, restated(d, elements + elements[:1]))

    def test_overlapping_primes_with_one_sub_rejected(self):
        store = SddStore(TREE)
        # x2 alone: one element (true at L, x2 at R); the statement below
        # compresses to it, but its primes true and x1 overlap
        d = sdd_literal(store, 2)
        [(true_left, sub)] = held_elements(store, d)
        x1 = str(store.literal(1))
        with pytest.raises(SddError, match="partition"):
            sdd_from_lines(store, ["a %s L lit 1" % x1] + restated(
                d, [(true_left, sub), (x1, sub)]))

    def test_false_prime_rejected(self):
        store = SddStore(TREE)
        d = mux(store)
        elements = held_elements(store, d)
        sub = elements[0][1]
        with pytest.raises(SddError, match="unsatisfiable prime"):
            sdd_from_lines(store, restated(d, elements + [("fL", sub)]))


class TestApplyMemo:
    def test_hit_touches_no_constant(self):
        store = SddStore(TREE)
        a, b = sdd_literal(store, 1), sdd_literal(store, 2)
        first = store.apply("and", a.node, b.node)
        nodes = len(store.nodes)
        store.true_at = store.false_at = None  # a hit must not reach them
        assert store.apply("and", b.node, a.node) == first
        assert len(store.nodes) == nodes

    def test_entry_checks_stay(self):
        store = SddStore(TREE)
        a = sdd_literal(store, 1).node
        with pytest.raises(SddError, match="unknown operation"):
            store.apply("xor", a, a)
        with pytest.raises(SddError, match="different vtree nodes"):
            store.apply("and", a, store.literal(1))


def test_tseitin_naive_proof_bytes_unchanged():
    phi = tseitin_instance()
    tree = right_linear_vtree(tuple(range(1, phi.num_vars + 1)))
    proof = naive_conjoin_refute(phi, tree)
    text = proof_to_text(proof)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        TSEITIN_NAIVE_PROOF_SHA256
    assert check_proof(phi, proof).accepted
