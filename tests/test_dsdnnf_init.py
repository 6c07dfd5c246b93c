"""d-SDNNF init lines are decided inside the d-SDNNF module.

The checker accepts a circuit for clause C when it has as many models as
C over the vtree's leaves and entails C.  These tests compare every
verdict and reason with the check by equivalence to C's own circuit,
`_Backend.init_ok`, which compiles C through an SDD store, and with
brute-force truth tables.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcproof.cnf import CnfFormula
from kcproof.dsdnnf import clause_circuit, sdd_to_dsdnnf
from kcproof.proofs import (BACKENDS, Proof, ProofSystem, _Backend,
                            check_proof, diagram_payload)
from kcproof.sdd import (SddStore, sdd_apply, sdd_const, sdd_from_clause,
                         sdd_from_term)
from kcproof.structure import vtree_leaf, vtree_node

MISMATCH = "init diagram does not match clause 0"


def one_init_verdict(tree, num_vars, clause, circuit):
    proof = Proof(ProofSystem("dsdnnf", ()))
    sid = proof.add_structure(tree)
    proof.add_init(0, proof.add_diagram(sid, diagram_payload(circuit)))
    return check_proof(CnfFormula(num_vars, (tuple(clause),)), proof)


def verdicts(tree, num_vars, clause, circuit):
    """The verdict of one init line, and that of the equivalence check."""
    new = one_init_verdict(tree, num_vars, clause, circuit)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(type(BACKENDS["dsdnnf"]), "init_ok", _Backend.init_ok)
        old = one_init_verdict(tree, num_vars, clause, circuit)
    return new, old


def truth_table(circuit, variables):
    def value(i, assignment):
        gate = circuit.gates[i]
        if gate[0] == "lit":
            return assignment[abs(gate[1])] == (gate[1] > 0)
        if gate[0] == "and":
            return value(gate[1], assignment) and value(gate[2], assignment)
        if gate[0] == "or":
            return value(gate[1], assignment) or value(gate[2], assignment)
        return gate[0] == "true"

    return [value(circuit.root, dict(zip(variables, bits)))
            for bits in itertools.product((False, True),
                                          repeat=len(variables))]


def clause_table(clause, variables):
    return [any(bits[variables.index(abs(lit))] == (lit > 0)
                for lit in clause)
            for bits in itertools.product((False, True),
                                          repeat=len(variables))]


def circuit_of(tree, build):
    """The circuit of an SDD built in a fresh store over the tree."""
    return sdd_to_dsdnnf(build(SddStore(tree)))


@st.composite
def vtrees(draw, variables):
    if len(variables) == 1:
        return vtree_leaf(variables[0])
    split = draw(st.integers(1, len(variables) - 1))
    return vtree_node(draw(vtrees(variables[:split])),
                      draw(vtrees(variables[split:])))


@st.composite
def clauses(draw, variables, max_size=4):
    return [v if draw(st.booleans()) else -v for v in draw(
        st.lists(st.sampled_from(variables), max_size=max_size))]


@st.composite
def cases(draw):
    """A vtree over 1..n, n <= 5, a clause C and a clause D over its
    leaves, with repeats and both signs of a variable allowed, and the
    position at which a literal outside the vtree is put into C."""
    n = draw(st.integers(1, 5))
    variables = list(range(1, n + 1))
    tree = draw(vtrees(draw(st.permutations(variables))))
    c = draw(clauses(variables))
    d = draw(clauses(variables))
    return tree, n, c, d, draw(st.integers(0, len(c)))


@given(cases())
@settings(max_examples=150, deadline=None)
def test_init_verdicts_match_the_equivalence_check(case):
    tree, n, c, d, at = case
    variables = list(range(1, n + 1))
    sign = {abs(lit): lit > 0 for lit in c}
    clashing = len(sign) < len(set(c))
    flipped = [-lit if abs(lit) == abs(c[0]) else lit for lit in c]
    payloads = {
        "honest": clause_circuit(c, tree),
        "same width": clause_circuit(flipped or c, tree),
        "stronger": circuit_of(tree, lambda s: sdd_apply(
            "and", sdd_from_clause(s, c), sdd_from_clause(s, d))),
        "negated": circuit_of(tree, lambda s: sdd_const(s, False)
                              if clashing else sdd_from_term(
                                  s, {v: not sign[v] for v in sign})),
    }
    x = abs(d[0]) if d else 1
    # with n + 2 inserted, the n + 1 behind it comes later in clause order
    outside = n + 1 + at % 2
    init_clauses = {
        "clause": c,
        "with x and not x": c + [x, -x],
        "outside the vtree": c[:at] + [-outside] + c[at:] + [n + 1],
    }
    for clause_kind, clause in init_clauses.items():
        for payload_kind, circuit in payloads.items():
            new, old = verdicts(tree, n + 2, clause, circuit)
            label = (clause_kind, payload_kind)
            assert (new.accepted, new.failing_line, new.reason) \
                == (old.accepted, old.failing_line, old.reason), label
            if clause_kind == "outside the vtree":
                assert new.reason == "malformed: variable %d not in vtree" \
                    % outside, label
                continue
            same = truth_table(circuit, variables) \
                == clause_table(clause, variables)
            assert (new.reason != MISMATCH) == same, label
