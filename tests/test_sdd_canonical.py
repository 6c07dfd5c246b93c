"""Canonicity of the SDD store, on which equality and entailment by node
id rest: in one store, diagrams reached by different routes share a node
exactly when they compute the same function.  Brute-force truth masks
are the oracle."""

from hypothesis import given, settings
from hypothesis import strategies as st

from kcproof.cnf import cnf
from kcproof.proofs import BACKENDS
from kcproof.refute import fold_trace
from kcproof.sdd import (SddStore, drop_leaf, rebind, sdd_entails, sdd_equal,
                         sdd_from_lines, sdd_negate, sdd_restrict,
                         sdd_to_lines, sdd_truth_mask)
from kcproof.structure import remove_leaf, vtree_leaf, vtree_node


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
                   for _ in range(draw(st.integers(1, 2 * n)))])


def fold(store, clauses):
    return fold_trace(BACKENDS["sdd"], store, clauses)[0]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_one_node_per_function(data):
    n = data.draw(st.integers(1, 5), label="n")
    # a vtree over one more variable, n + 1, which drop_leaf removes
    big = data.draw(vtrees(data.draw(
        st.permutations(list(range(1, n + 2))))), label="big")
    tree = remove_leaf(big, n + 1)
    other = data.draw(vtrees(data.draw(
        st.permutations(list(range(1, n + 1))))), label="other")
    phi, psi = data.draw(cnfs(n), label="phi"), data.draw(cnfs(n), label="psi")
    chi = data.draw(cnfs(n + 1), label="chi")
    var = data.draw(st.integers(1, n), label="var")
    value = data.draw(st.integers(0, 1), label="value")

    store = SddStore(tree)
    f = fold(store, phi.clauses)
    g = fold(store, psi.clauses)
    diagrams = [
        f,
        fold(store, phi.clauses[::-1]),
        g,
        sdd_negate(sdd_negate(g)),
        sdd_negate(f),
        sdd_restrict(f, {var: value}),
        sdd_restrict(g, {var: 1 - value}),
        sdd_from_lines(store, sdd_to_lines(fold(SddStore(tree),
                                                psi.clauses[::-1]))),
        rebind(store, fold(SddStore(other), phi.clauses)),
        drop_leaf(store, sdd_restrict(fold(SddStore(big), chi.clauses),
                                      {n + 1: value}), n + 1),
    ]
    masks = [sdd_truth_mask(d, n) for d in diagrams]
    for a, mask_a in zip(diagrams, masks):
        assert a.store is store
        for b, mask_b in zip(diagrams, masks):
            assert (a.node == b.node) == (mask_a == mask_b)
            assert sdd_equal(a, b) == (mask_a == mask_b)
            assert sdd_entails(a, b) == (mask_a & ~mask_b == 0)
