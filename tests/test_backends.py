"""The per-format backends of kcproof.proofs and the one clause fold.

Every backend's clause diagram, conjunction, restriction, count,
equality, entailment and constant-false test must agree with brute force
on small formulas, including clauses with duplicate and clashing
literals, and the three backends must agree with each other.
"""

import contextlib
import io
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcproof import cli
from kcproof.cnf import CnfFormula
from kcproof.proofs import BACKENDS, check_proof
from kcproof.refute import fold_trace, naive_conjoin_refute
from kcproof.structure import vtree_leaf, vtree_node
from oracles import brute_force_models, formula_mask


def mask(num_vars, clauses):
    return formula_mask(CnfFormula(num_vars, tuple(clauses)))


def restricted(clauses, assignment):
    """The clauses under a partial assignment, over the same variables."""
    out = []
    for clause in clauses:
        if any(assignment.get(abs(lit)) == (lit > 0) for lit in clause):
            continue
        out.append(tuple(lit for lit in clause if abs(lit) not in assignment))
    return out


def random_vtree(data, order):
    if len(order) == 1:
        return vtree_leaf(order[0])
    split = data.draw(st.integers(1, len(order) - 1))
    return vtree_node(random_vtree(data, order[:split]),
                      random_vtree(data, order[split:]))


@st.composite
def instances(draw):
    n = draw(st.integers(1, 5))
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.lists(literal, max_size=4).map(tuple),
                            max_size=5))
    order = tuple(draw(st.permutations(range(1, n + 1))))
    assignment = draw(st.dictionaries(st.integers(1, n), st.booleans(),
                                      max_size=n))
    return n, clauses, order, assignment


@settings(max_examples=60, deadline=None)
@given(instances(), st.data())
def test_backends_agree_with_brute_force_and_each_other(instance, data):
    n, clauses, order, assignment = instance
    tree = random_vtree(data, order)
    full = (1 << (1 << n)) - 1
    want_mask = mask(n, clauses)
    want_count = brute_force_models(CnfFormula(n, tuple(clauses)))
    first_mask = mask(n, clauses[:1])
    answers = {}
    for name, backend in sorted(BACKENDS.items()):
        structure = order if name == "obdd" else tree
        store = backend.store(structure)
        final, _ = fold_trace(backend, store, clauses)
        again, _ = fold_trace(backend, store, clauses[::-1])
        count = backend.count(final, structure)
        assert count == want_count
        assert backend.is_false(final) == (want_count == 0)
        assert backend.equal(final, again)
        for clause in clauses:
            d = backend.clause(store, clause)
            assert backend.count(d, structure) == mask(n, [clause]).bit_count()
            assert backend.is_false(d) == (mask(n, [clause]) == 0)
            assert backend.entails(final, d)
            assert backend.entails_clause(store, final, clause)
        row = restricted(clauses, {v: int(b) for v, b in assignment.items()})
        cut = backend.restrict(final, {v: int(b)
                                       for v, b in assignment.items()})
        assert backend.count(cut, structure) == mask(n, row).bit_count()
        answers[name] = (count, backend.is_false(final))
        if clauses:
            first = backend.clause(store, clauses[0])
            same = backend.equal(final, first)
            wider = backend.entails(first, final)
            assert same == (want_mask == first_mask)
            assert wider == (first_mask & (full ^ want_mask) == 0)
            answers[name] += (same, wider)
    assert len(set(answers.values())) == 1


@pytest.mark.parametrize("fmt", sorted(BACKENDS))
def test_clashing_clause_is_the_constant_true(fmt):
    # one model: x1 or not x1 holds everywhere, so only (x1) constrains
    phi = CnfFormula(1, ((1, -1), (1,)))
    structure = (1,) if fmt == "obdd" else vtree_leaf(1)
    verdict = check_proof(phi, naive_conjoin_refute(phi, structure, fmt))
    assert not verdict.accepted


def run(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(args))
    return code, out.getvalue()


@pytest.mark.parametrize("fmt", sorted(BACKENDS))
def test_compile_without_clauses_is_the_constant_true(tmp_path, fmt):
    source = os.path.join(str(tmp_path), "empty.cnf")
    target = os.path.join(str(tmp_path), "empty.diagram")
    with open(source, "w") as handle:
        handle.write("p cnf 2 0\n")
    assert run("compile", source, "--format", fmt, "-o", target)[0] == 0
    assert run("count", target) == (0, "4\n")
