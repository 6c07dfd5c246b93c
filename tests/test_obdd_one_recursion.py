"""One recursion per job in the OBDD store.

Conjunction and disjunction share one apply worker; negation, restriction
and migration share one bottom-up rebuild; the model count is one flat
pass.  Node ids are part of every proof's bytes, so the node tables a
fixed script builds, and a restricted proof, are pinned by SHA-256.  The
count is checked against brute force over random count sets.
"""

import hashlib
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcproof.cnf import restrict_cnf
from kcproof.obdd import (ObddError, ObddStore, migrate, obdd_apply,
                          obdd_count, obdd_from_clause, obdd_literal,
                          obdd_negate, obdd_restrict, obdd_support)
from kcproof.proofs import check_proof, proof_to_text
from kcproof.refute import naive_conjoin_refute, restrict_proof
from kcproof.zoo import lift_Z, path, vc_formula

# repr of the node tables of both stores after script()
SCRIPT_NODES_SHA256 = \
    "9fefe533a56200bfc22b04280ecab0829929a1d7a775388d7d93efddc1172bb1"
# restrict_proof of the obdd fold of lift_Z(vc-path 3), natural order
RESTRICTION = {1: 0, 5: 1}
RESTRICT_SHA256 = \
    "0bac29e2130f5bc6a8200bff9cbb34b5321ec36f617f34979e4572fd1406758a"


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def script():
    """And, or, not, restrict and migrate steps in a fixed order."""
    store = ObddStore((3, 1, 4, 2, 5))
    x = {v: obdd_literal(store, v) for v in store.order}
    a = obdd_apply("or", obdd_apply("and", x[1], x[2]), obdd_negate(x[3]))
    b = obdd_apply("and", obdd_apply("or", x[4], obdd_negate(x[5])), a)
    c = obdd_negate(obdd_apply("or", b, obdd_apply("and", x[2], x[5])))
    d = obdd_restrict(c, {4: 1, 1: 0})
    e = obdd_apply("and", obdd_restrict(b, {3: 0}), obdd_negate(d))
    # the same relative order, with x6 put in
    other = ObddStore((3, 6, 1, 4, 2, 5))
    joint = obdd_apply("or", migrate(other, e), migrate(other, c))
    joint = obdd_apply("and", joint, obdd_literal(other, -6))
    migrate(store, obdd_negate(obdd_restrict(joint, {6: 0})))
    return store, other


def test_script_node_tables():
    store, other = script()
    assert sha256(repr((store.nodes, other.nodes))) == SCRIPT_NODES_SHA256


def test_restrict_proof_bytes():
    lifted = lift_Z(vc_formula(path(3)))
    order = tuple(range(1, lifted.result.num_vars + 1))
    proof = naive_conjoin_refute(lifted.result, order)
    restricted = restrict_proof(lifted.result, proof, RESTRICTION)
    assert sha256(proof_to_text(restricted)) == RESTRICT_SHA256
    assert check_proof(restrict_cnf(lifted.result, RESTRICTION),
                       restricted).accepted


def test_and_and_or_share_one_worker():
    assert ObddStore._and.__code__ is ObddStore._or.__code__


def test_count_of_a_diagram_deeper_than_the_recursion_limit():
    n = 3000
    store = ObddStore(range(1, n + 1))
    d = obdd_from_clause(store, range(1, n + 1))
    assert obdd_count(d, range(1, n + 1)) == (1 << n) - 1
    assert obdd_count(d, range(1, n + 2)) == (1 << (n + 1)) - 2


def holds(d, assignment):
    nodes = d.store.nodes
    u = d.node
    while nodes[u] is not None:
        var, lo, hi = nodes[u]
        u = hi if assignment[var] else lo
    return u == d.store.TRUE


def brute_count(d, over):
    over = sorted(over)
    return sum(holds(d, dict(zip(over, bits)))
               for bits in product((0, 1), repeat=len(over)))


@st.composite
def diagrams(draw):
    """A diagram built by and, or, not and restrict from literals, over
    an order of some of the variables 1..6."""
    order = draw(st.permutations(range(1, 7)))
    order = order[:draw(st.integers(1, 6))]
    store = ObddStore(order)
    literal = st.builds(lambda v, sign: obdd_literal(store, v * sign),
                        st.sampled_from(order), st.sampled_from((1, -1)))
    built = [draw(literal)]
    for step in draw(st.lists(st.sampled_from(("and", "or", "not",
                                               "restrict")), max_size=8)):
        d = built[-1]
        if step == "not":
            d = obdd_negate(d)
        elif step == "restrict":
            d = obdd_restrict(d, {draw(st.sampled_from(order)):
                                  draw(st.integers(0, 1))})
        else:
            other = draw(st.one_of(literal, st.sampled_from(built)))
            d = obdd_apply(step, d, other)
        built.append(d)
    return built[-1]


@settings(max_examples=150, deadline=None)
@given(diagrams(), st.data())
def test_count_agrees_with_brute_force(d, data):
    support = obdd_support(d)
    # free order variables, and variables outside the order, left out or in
    others = sorted(set(range(1, 9)) - support)
    extra = data.draw(st.sets(st.sampled_from(others)) if others
                      else st.just(set()))
    over = support | extra
    assert obdd_count(d, over) == brute_count(d, over)
    if support:
        missing = data.draw(st.sampled_from(sorted(support)))
        with pytest.raises(ObddError, match="missing support variables"):
            obdd_count(d, over - {missing})
