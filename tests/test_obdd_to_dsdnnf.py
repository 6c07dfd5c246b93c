"""obdd_to_dsdnnf over random small CNFs and random orders.

The circuit carries the right-linear vtree of the OBDD's order, is
structured and deterministic on it, and has the OBDD's model count.
"""

from hypothesis import given, settings, strategies as st

from kcproof.cnf import cnf
from kcproof.dsdnnf import (dsdnnf_count, obdd_to_dsdnnf,
                            validate_deterministic, validate_structured)
from kcproof.obdd import (ObddStore, obdd_apply, obdd_const, obdd_count,
                          obdd_from_clause)
from kcproof.structure import right_linear_vtree

NUM_VARS = 5

clauses = st.lists(
    st.dictionaries(st.integers(1, NUM_VARS), st.booleans(),
                    min_size=1, max_size=3).map(
        lambda signs: tuple(v if positive else -v
                            for v, positive in sorted(signs.items()))),
    min_size=0, max_size=6)


@settings(deadline=None, max_examples=60)
@given(clauses, st.permutations(range(1, NUM_VARS + 1)))
def test_the_circuit_is_the_obdd_on_its_right_linear_vtree(payload, order):
    phi = cnf(NUM_VARS, payload)
    order = tuple(order)
    store = ObddStore(order)
    d = obdd_const(store, True)
    for clause in phi.clauses:
        d = obdd_apply("and", d, obdd_from_clause(store, clause))
    circuit = obdd_to_dsdnnf(d)
    tree = right_linear_vtree(order)
    assert circuit.vtree == tree
    validate_structured(circuit, tree)
    assert validate_deterministic(circuit, tree)
    assert dsdnnf_count(circuit, set(order)) == obdd_count(d, set(order))
