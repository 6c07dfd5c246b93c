"""The chain lifting states its own layout: lift_Z records where each base
clause's block of implication clauses starts and where the chain starts,
and LiftedFormula numbers the control and chain variables.

The producers and the extraction read that layout from the lifting they
check the caller's against, never from the caller's: a LiftedFormula
built by hand, without starts, gives the same bytes as lift_Z's own.
The extraction finds the block of whichever clause a side of the split
misses, so it is exact whichever clause the last join adds.
"""

import pytest
from hypothesis import given, settings, strategies as st

from kcproof.cnf import cnf, mk_clause
from kcproof.proofs import (BACKENDS, Proof, ProofSystem, diagram_payload,
                            proof_to_text)
from kcproof.refute import (compilation_to_refutation, extract_representation,
                            fold_trace, naive_conjoin_refute,
                            resolution_refute_lifted)
from kcproof.resolution import resolution_to_text
from kcproof.structure import right_linear_vtree
from kcproof.zoo import LiftedFormula, eq_formula, lift_C, lift_Z, path, \
    vc_formula
from oracles import brute_force_models

formulas = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.builds(
        lambda clauses: cnf(n, clauses),
        st.lists(
            st.dictionaries(st.integers(1, n), st.sampled_from((1, -1)),
                            min_size=1, max_size=3).map(
                lambda signs: [var * sign for var, sign in signs.items()]),
            min_size=1, max_size=5)))


@settings(deadline=None, max_examples=60)
@given(phi=formulas)
def test_starts_index_the_blocks_and_the_chain(phi):
    lifted = lift_Z(phi)
    m, clauses = phi.num_clauses, lifted.result.clauses
    assert len(lifted.starts) == m + 1
    for i in range(1, m + 1):
        lits = tuple(phi.clauses[i - 1]) + (lifted.y(i),)
        block = clauses[lifted.starts[i - 1]:lifted.starts[i]]
        assert block == tuple(
            mk_clause((-lit, -lifted.z(i), lifted.z(i + 1))) for lit in lits)
    assert clauses[lifted.starts[m]] == (lifted.z(1),)
    assert clauses[lifted.starts[m] + 1:] == ((-lifted.z(m + 1),),)
    for i in range(1, m + 1):
        assert lifted.roles[lifted.y(i)] == "y%d" % i
    for i in range(1, m + 2):
        assert lifted.roles[lifted.z(i)] == "z%d" % i


def by_hand(lifted):
    """The same lifting, built without lift_Z and so without starts."""
    return LiftedFormula(lifted.base, lifted.result, lifted.roles)


BASES = {
    "vc-path-3": vc_formula(path(3)),
    "eq-4-1": eq_formula(4, 1),
    "mixed": cnf(4, [(1, -2, 3), (-1, 4), (2, -3, -4), (3,)]),
}


def compile2ref_text(fmt, lifted):
    backend = BACKENDS[fmt]
    order = tuple(range(1, lifted.result.num_vars + 1))
    store = backend.store(order if fmt == "obdd" else right_linear_vtree(order))
    _, trace = fold_trace(backend, store, lift_C(lifted.base).clauses)
    return proof_to_text(compilation_to_refutation(trace, lifted))


@pytest.mark.parametrize("name", sorted(BASES))
@pytest.mark.parametrize("fmt", ["obdd", "sdd"])
def test_compilation_to_refutation_reads_its_own_lifting(name, fmt):
    lifted = lift_Z(BASES[name])
    assert by_hand(lifted).starts == ()
    assert compile2ref_text(fmt, by_hand(lifted)) \
        == compile2ref_text(fmt, lifted)


@pytest.mark.parametrize("name", sorted(BASES))
def test_resolution_refute_lifted_reads_its_own_lifting(name):
    lifted = lift_Z(BASES[name])
    assert resolution_to_text(resolution_refute_lifted(by_hand(lifted))) \
        == resolution_to_text(resolution_refute_lifted(lifted))


@pytest.mark.parametrize("name", sorted(BASES))
@pytest.mark.parametrize("fmt", ["obdd", "sdd", "dsdnnf"])
def test_extract_representation_reads_its_own_lifting(name, fmt):
    lifted = lift_Z(BASES[name])
    order = tuple(range(1, lifted.result.num_vars + 1))
    proof = naive_conjoin_refute(
        lifted.result, order if fmt == "obdd" else right_linear_vtree(order),
        fmt)
    assert diagram_payload(extract_representation(proof, by_hand(lifted))) \
        == diagram_payload(extract_representation(proof, lifted))


def split_at(lifted, last, fmt):
    """A join-only refutation of the lifting that folds every clause but
    the one at index last, in order, and joins that one last."""
    backend = BACKENDS[fmt]
    order = tuple(range(1, lifted.result.num_vars + 1))
    structure = order if fmt == "obdd" else right_linear_vtree(order)
    store = backend.store(structure)
    proof = Proof(ProofSystem(fmt, ("join",)))
    sid = proof.add_structure(structure)
    clauses = lifted.result.clauses
    acc = line = None
    for index in [i for i in range(len(clauses)) if i != last] + [last]:
        d = backend.clause(store, clauses[index])
        init = proof.add_init(index, proof.add_diagram(sid, diagram_payload(d)))
        if acc is None:
            acc, line = d, init
            continue
        acc = backend.conjoin(store, acc, d)
        line = proof.add_join(line, init,
                              proof.add_diagram(sid, diagram_payload(acc)))
    return proof


@pytest.mark.parametrize("name", ["mixed", "vc-path-3"])
@pytest.mark.parametrize("fmt", ["obdd", "sdd"])
def test_extraction_is_exact_whichever_clause_is_joined_last(name, fmt):
    phi = BASES[name]
    lifted = lift_Z(phi)
    for last in range(lifted.result.num_clauses):
        proof = split_at(lifted, last, fmt)
        diagram = extract_representation(proof, lifted)
        backend = BACKENDS[fmt]
        structure = backend.structure_of(backend.store_of(diagram))
        assert backend.count(diagram, structure) == brute_force_models(phi)
        assert diagram_payload(extract_representation(
            proof, by_hand(lifted))) == diagram_payload(diagram)
