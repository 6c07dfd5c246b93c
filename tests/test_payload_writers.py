"""The payload writers against their reference, and how proofs reach them.

Each writer builds a statement as one f-string.  The reference copies in
tests/oracles.py are the `%`-format writers they replaced, so every payload
must match them byte for byte.  Proof labels of an SDD are store ids, and
writing an SDD may create a path's constant node, so the SDD writer must
also leave its store with the nodes the reference leaves: two stores
folded alike stay alike after each write, one by each writer.

The benchmark's tracer times `*.to_lines_s` by swapping the writers bound
in `kcproof.proofs`' globals, so diagram payloads and proof text must
reach each writer through those globals.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcproof import proofs
from kcproof.cnf import cnf
from kcproof.dsdnnf import circuit_to_lines, sdd_to_dsdnnf
from kcproof.obdd import ObddStore, obdd_const, obdd_to_lines
from kcproof.proofs import BACKENDS, diagram_payload, proof_to_text
from kcproof.refute import fold_trace, naive_conjoin_refute
from kcproof.sdd import (SddStore, drop_leaf, insert_leaf, sdd_const,
                         sdd_restrict, sdd_to_lines)
from kcproof.structure import (remove_leaf, right_linear_vtree, vtree_leaf,
                               vtree_node)
from oracles import (circuit_to_lines_reference, obdd_to_lines_reference,
                     sdd_to_lines_reference)


def random_vtree(variables, rng):
    """A vtree over the variables in the given order, split at random."""
    if len(variables) == 1:
        return vtree_leaf(variables[0])
    cut = rng.randint(1, len(variables) - 1)
    return vtree_node(random_vtree(variables[:cut], rng),
                      random_vtree(variables[cut:], rng))


@st.composite
def folds(draw):
    """A CNF's clauses and a variable order with a vtree over it."""
    n = draw(st.integers(1, 6))
    clause = st.sets(st.integers(1, n), min_size=1, max_size=3).flatmap(
        lambda variables: st.tuples(*[st.sampled_from((v, -v))
                                      for v in sorted(variables)]))
    clauses = draw(st.lists(clause, min_size=1, max_size=8))
    order = tuple(draw(st.permutations(range(1, n + 1))))
    tree = random_vtree(order, random.Random(draw(st.integers(0, 2 ** 16))))
    return cnf(n, clauses).clauses, order, tree


def sdd_diagrams(tree, clauses):
    """Each diagram of a fold of the clauses, each followed, for a vtree
    of two or more leaves, by its restriction x = 0 with x's leaf dropped
    and inserted again, as a move check builds them; then both constants.
    Built lazily, so a diagram's store holds what writing the earlier
    ones added.  Dropped and inserted diagrams are built by mk_dec without
    apply, and writing them may create a path's true or false node."""
    store = SddStore(tree)
    final, trace = fold_trace(BACKENDS["sdd"], store, clauses)
    x = min(tree.variables)
    common = SddStore(remove_leaf(tree, x)) if len(tree.variables) > 1 else None
    for d in [step[-1] for step in trace] + [final]:
        yield d
        if common is not None:
            dropped = drop_leaf(common, sdd_restrict(d, {x: 0}), x)
            yield dropped
            yield insert_leaf(store, dropped, x)
    yield sdd_const(store, True)
    yield sdd_const(store, False)


def check_obdd_writer(clauses, order):
    store = ObddStore(order)
    final, trace = fold_trace(BACKENDS["obdd"], store, clauses)
    written = []
    for d in [step[-1] for step in trace] + [
            final, obdd_const(store, True), obdd_const(store, False)]:
        lines = obdd_to_lines(d)
        assert lines == obdd_to_lines_reference(d)
        written += lines
    return written


def check_sdd_and_circuit_writers(clauses, tree):
    """The SDD writer on one fold's diagrams, the reference on a twin
    fold's; each circuit exported from the twin's diagrams, by both
    circuit writers.  Returns the SDD lines written and how many nodes
    writing created."""
    written, created = [], 0
    for d, e in zip(sdd_diagrams(tree, clauses), sdd_diagrams(tree, clauses)):
        before = len(d.store.nodes)
        assert before == len(e.store.nodes)
        lines = sdd_to_lines(d)
        assert lines == sdd_to_lines_reference(e)
        assert len(d.store.nodes) == len(e.store.nodes)
        created += len(d.store.nodes) - before
        circuit = sdd_to_dsdnnf(e)
        assert circuit_to_lines(circuit) == circuit_to_lines_reference(circuit)
        written += lines
    return written, created


@settings(max_examples=150, deadline=None)
@given(folds())
def test_obdd_writer_matches_the_reference(fold):
    clauses, order, _ = fold
    check_obdd_writer(clauses, order)


@settings(max_examples=150, deadline=None)
@given(folds())
def test_sdd_and_circuit_writers_match_the_reference(fold):
    clauses, _, tree = fold
    check_sdd_and_circuit_writers(clauses, tree)


# one fixed fold whose payloads hold each statement form the properties
# above must cover
CLAUSES = cnf(4, [(1, 2, -3), (-1, 3, 4), (-2, -4), (2, 3), (-3, -4),
                  (1, -2), (-1, 4)]).clauses


def test_fixed_fold_writes_sink_roots():
    written = check_obdd_writer(CLAUSES, (1, 2, 3, 4))
    assert "root T" in written and "root F" in written
    assert any(line.startswith("n ") and line.endswith(" F")
               for line in written)


def test_fixed_fold_writes_negative_literals_and_internal_constants():
    tree = vtree_node(vtree_node(vtree_leaf(1), vtree_leaf(2)),
                      vtree_node(vtree_leaf(3), vtree_leaf(4)))
    written, created = check_sdd_and_circuit_writers(CLAUSES, tree)
    atoms = [line.split() for line in written if line.startswith("a ")]
    assert any(a[3] == "lit" and int(a[4]) < 0 for a in atoms)
    # "-" and "R" are internal paths also once x1's leaf is dropped
    internal = {a[3] for a in atoms if a[2] in ("-", "R")}
    assert internal == {"true", "false"}
    assert created > 0


# ------------------------------------------------ writers reached by proofs

WRITERS = {"obdd": "obdd_to_lines", "sdd": "sdd_to_lines",
           "dsdnnf": "circuit_to_lines"}
PHI = cnf(2, [(1, 2), (-1, 2), (1, -2), (-1, -2)])


def structure(fmt):
    return (1, 2) if fmt == "obdd" else right_linear_vtree((1, 2))


def spy_on(monkeypatch, fmt):
    """Replace fmt's writer in kcproof.proofs by a wrapper recording the
    payload of each call."""
    writer = getattr(proofs, WRITERS[fmt])
    payloads = []

    def spy(d):
        lines = writer(d)
        payloads.append(";".join(lines))
        return lines

    monkeypatch.setattr(proofs, WRITERS[fmt], spy)
    return payloads


@pytest.mark.parametrize("fmt", sorted(WRITERS))
def test_diagram_payload_reaches_the_writer_through_proofs_globals(
        monkeypatch, fmt):
    backend = BACKENDS[fmt]
    d = backend.clause(backend.store(structure(fmt)), (1, -2))
    payloads = spy_on(monkeypatch, fmt)
    assert [diagram_payload(d)] == payloads


@pytest.mark.parametrize("fmt", sorted(WRITERS))
def test_proof_text_reaches_the_writer_through_proofs_globals(
        monkeypatch, fmt):
    expected = proof_to_text(naive_conjoin_refute(PHI, structure(fmt), fmt))
    payloads = spy_on(monkeypatch, fmt)
    text = proof_to_text(naive_conjoin_refute(PHI, structure(fmt), fmt))
    assert text == expected
    assert len(payloads) == 2 * len(PHI.clauses) - 1
    for payload in payloads:
        assert " %s\n" % payload in text


@pytest.mark.parametrize("fmt", sorted(WRITERS))
def test_writer_bound_in_proofs_belongs_to_its_layer(fmt):
    """The tracer wraps a binding owned by another kcproof module and names
    its span after that module: obdd.obdd_to_lines and so on."""
    assert getattr(proofs, WRITERS[fmt]).__module__ == "kcproof." + fmt
