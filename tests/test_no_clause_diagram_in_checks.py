"""One clause test for every format, with no clause diagram built.

`_Backend.entails_clause` decides whether a diagram entails a clause by
restricting it to the clause's falsifying assignment and asking whether
the result is the constant false; a clause with both x and not x is
entailed.  It must agree with brute force in every format, and an SDD or
d-SDNNF check, whose init lines are decided without a clause diagram,
must build none anywhere else either.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcproof.cnf import CnfFormula
from kcproof.proofs import BACKENDS
from kcproof.refute import fold_trace
from oracles import brute_force_models
from test_backends import instances, random_vtree
from test_trusted_base import RULE_SETS, proof_text, reached

CLAUSE_BUILDERS = {
    "sdd": {"sdd_from_clause", "sdd_literal", "SddStore.embed"},
    "dsdnnf": {"clause_circuit", "dsdnnf_clausal_entails"},
}


@pytest.mark.parametrize("fmt", sorted(CLAUSE_BUILDERS))
def test_a_check_builds_no_clause_diagram(fmt):
    for rules in RULE_SETS[fmt]:
        entered = {name for _, name in reached(proof_text(fmt, rules))}
        assert not entered & CLAUSE_BUILDERS[fmt], rules


@settings(max_examples=80, deadline=None)
@given(instances(), st.data())
def test_entails_clause_agrees_with_brute_force(instance, data):
    """A drawn clause, which may be empty or hold both x and not x, the
    empty clause and a tautology, against a random fold."""
    n, clauses, order, _ = instance
    tree = random_vtree(data, order)
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    drawn = data.draw(st.lists(literal, max_size=4).map(tuple))
    models = brute_force_models(CnfFormula(n, tuple(clauses)))
    want = {clause: models == brute_force_models(
                CnfFormula(n, (*clauses, clause)))
            for clause in (drawn, (), (1, -1))}
    for fmt, backend in sorted(BACKENDS.items()):
        store = backend.store(order if fmt == "obdd" else tree)
        d, _ = fold_trace(backend, store, clauses)
        for clause, entailed in want.items():
            assert backend.entails_clause(store, d, clause) == entailed, \
                (fmt, clause)
