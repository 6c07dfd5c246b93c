"""Hostile d-SDNNF literals and the product conjoin's size bound.

A literal the checker cannot read, or whose variable is not a leaf of the
line's vtree, is a malformed payload: the verdict says so instead of an
exception escaping check_proof, and no per-gate variable mask is built for
it (a mask holds a bit for every variable up to the largest one).

dsdnnf_conjoin's output has at most (|d1| + 2) * (|d2| + 2) reachable
gates; this is pinned here rather than asserted on every call.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from kcproof.dsdnnf import (
    circuit_size,
    clause_circuit,
    dsdnnf_conjoin,
    dsdnnf_equiv,
    sdd_to_dsdnnf,
    validate_deterministic,
    validate_structured,
)
from kcproof.proofs import check_proof, parse_proof, proof_to_text
from kcproof.refute import naive_conjoin_refute
from kcproof.sdd import SddStore, sdd_apply, sdd_const, sdd_from_clause
from kcproof.structure import right_linear_vtree, vtree_leaf, vtree_node
from kcproof.zoo import lift_Z, path, vc_formula
from oracles import dsdnnf_is_unsat


def fold_proof_text(length):
    phi = lift_Z(vc_formula(path(length))).result
    tree = right_linear_vtree(tuple(range(1, phi.num_vars + 1)))
    return phi, proof_to_text(naive_conjoin_refute(phi, tree, "dsdnnf"))


def with_first_literal(text, token):
    return re.sub(r"LIT -?\d+", "LIT " + token, text, count=1)


class TestMalformedLiterals:
    def test_unreadable_literal_is_malformed(self):
        phi, text = fold_proof_text(2)
        verdict = check_proof(phi, parse_proof(with_first_literal(text, "x1")))
        assert not verdict.accepted
        assert verdict.failing_line == 1
        assert verdict.reason.startswith("malformed: bad literal line")

    def test_literal_outside_the_vtree_is_malformed(self):
        phi, text = fold_proof_text(2)
        verdict = check_proof(
            phi, parse_proof(with_first_literal(text, "100000000000")))
        assert not verdict.accepted
        assert verdict.failing_line == 1
        assert verdict.reason == "malformed: gate 1: variable 100000000000" \
            " is not a leaf of the vtree"


@st.composite
def vtrees(draw, variables):
    if len(variables) == 1:
        return vtree_leaf(variables[0])
    split = draw(st.integers(1, len(variables) - 1))
    return vtree_node(draw(vtrees(variables[:split])),
                      draw(vtrees(variables[split:])))


@st.composite
def clause_lists(draw, n, max_clauses=4):
    clauses = []
    for _ in range(draw(st.integers(0, max_clauses))):
        support = draw(st.sets(st.integers(1, n), min_size=1, max_size=3))
        clauses.append(tuple(v if draw(st.booleans()) else -v
                             for v in sorted(support)))
    return clauses


def sdd_circuit(store, clauses):
    """A circuit exported from an SDD: gadgets unlike clause circuits'."""
    acc = sdd_const(store, True)
    for clause in clauses:
        acc = sdd_apply("and", acc, sdd_from_clause(store, clause))
    return sdd_to_dsdnnf(acc)


def assert_within_bound(d1, d2, tree):
    out = dsdnnf_conjoin(d1, d2, tree)
    assert circuit_size(out) <= (circuit_size(d1) + 2) * (circuit_size(d2) + 2)
    return out


class TestConjoinBound:
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        vtrees(list(range(1, n + 1))), clause_lists(n), clause_lists(n))))
    @settings(max_examples=60, deadline=None)
    def test_random_circuits(self, drawn):
        tree, clauses_a, clauses_b = drawn
        store = SddStore(tree)
        d1 = sdd_circuit(store, clauses_a)
        d2 = sdd_circuit(store, clauses_b)
        out = assert_within_bound(d1, d2, tree)
        validate_structured(out, tree)
        assert validate_deterministic(out, tree)
        assert dsdnnf_equiv(out, sdd_circuit(store, clauses_a + clauses_b))
        acc = None
        for clause in clauses_a + clauses_b:
            circuit = clause_circuit(clause, tree)
            acc = circuit if acc is None \
                else assert_within_bound(acc, circuit, tree)

    def test_every_join_of_the_fold_benchmark(self):
        phi = lift_Z(vc_formula(path(4))).result
        tree = right_linear_vtree(tuple(range(1, phi.num_vars + 1)))
        acc = clause_circuit(phi.clauses[0], tree)
        for clause in phi.clauses[1:]:
            acc = assert_within_bound(acc, clause_circuit(clause, tree), tree)
        assert dsdnnf_is_unsat(acc)
