"""The extraction is exact: from every weakening-free producer's refutation
of a chain lifting, in every format the producer writes, it pulls out a
diagram for the base formula over the base variables alone.

The diagram's model count over its own structure is the base formula's,
and it agrees with the base formula on every full assignment.
"""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from kcproof.cnf import cnf
from kcproof.proofs import BACKENDS, backend_of
from kcproof.refute import (compilation_to_refutation, extract_representation,
                            fold_trace, naive_conjoin_refute, obdd_refute_eq,
                            treewidth_refute)
from kcproof.structure import right_linear_vtree
from kcproof.zoo import eq_formula, lift_C, lift_Z
from oracles import brute_force_models


def natural(lifted, fmt):
    order = tuple(range(1, lifted.result.num_vars + 1))
    return order if fmt == "obdd" else right_linear_vtree(order)


def naive(fmt):
    return lambda lifted: naive_conjoin_refute(
        lifted.result, natural(lifted, fmt), fmt)


def compile2ref(fmt):
    def produce(lifted):
        backend = BACKENDS[fmt]
        store = backend.store(natural(lifted, fmt))
        _, trace = fold_trace(backend, store, lift_C(lifted.base).clauses)
        return compilation_to_refutation(trace, lifted)
    return produce


PRODUCERS = {
    "naive-obdd": naive("obdd"),
    "naive-sdd": naive("sdd"),
    "naive-dsdnnf": naive("dsdnnf"),
    "compile2ref-obdd": compile2ref("obdd"),
    "compile2ref-sdd": compile2ref("sdd"),
    "treewidth": lambda lifted: treewidth_refute(lifted.base)[0],
}


def assert_exact(phi, proof):
    diagram = extract_representation(proof, lift_Z(phi))
    backend = backend_of(diagram)
    structure = backend.structure_of(backend.store_of(diagram))
    assert backend.leaves(structure) == set(range(1, phi.num_vars + 1))
    assert backend.count(diagram, structure) == brute_force_models(phi)
    for row in product((0, 1), repeat=phi.num_vars):
        assignment = dict(enumerate(row, 1))
        holds = all(any(assignment[abs(lit)] == (lit > 0) for lit in clause)
                    for clause in phi.clauses)
        assert backend.is_false(backend.restrict(diagram, assignment)) \
            is not holds


formulas = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.builds(
        lambda clauses: cnf(n, clauses),
        st.lists(
            st.dictionaries(st.integers(1, n), st.sampled_from((1, -1)),
                            min_size=1, max_size=3).map(
                lambda signs: [var * sign for var, sign in signs.items()]),
            min_size=1, max_size=4)))


@pytest.mark.parametrize("producer", sorted(PRODUCERS))
@settings(deadline=None, max_examples=12)
@given(phi=formulas)
def test_extraction_represents_the_base_formula(producer, phi):
    assert_exact(phi, PRODUCERS[producer](lift_Z(phi)))


@pytest.mark.parametrize("shift", range(4))
def test_extraction_of_the_equality_refutation(shift):
    assert_exact(eq_formula(4, shift), obdd_refute_eq(4, shift))
