"""A d-SDNNF join with an init premise is decided with one product.

`_DsdnnfBackend.join_ok(a, b, c, clause)`, where b is the init line of
the clause, accepts c exactly when c entails the clause, has as many
models as a and the clause (#a less the models of a on the clause's
falsifying assignment), and has as many as its product with a.  It must
agree with brute force over truth tables and with the nested check
`dsdnnf_join_check(a, b, c)`, on every clause shape: the empty clause,
repeated literals and x next to not x.  A clause join builds one
product, any other join two, and each product stops at the check's cap.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcproof import cli, dsdnnf
from kcproof.cnf import DEFAULT_CHECK_CAP, CnfFormula, cnf, to_dimacs
from kcproof.dsdnnf import dsdnnf_join_check, sdd_to_dsdnnf
from kcproof.proofs import (BACKENDS, Proof, ProofSystem, _Session,
                            check_proof, diagram_payload, proof_to_text)
from kcproof.refute import fold_backend, fold_trace, naive_conjoin_refute
from kcproof.sdd import SddStore, sdd_from_clause
from kcproof.structure import right_linear_vtree, vtree_leaf, vtree_node
from kcproof.zoo import lift_Z, path, vc_formula
from oracles import clause_mask, full_mask, var_mask
from test_backends import instances, random_vtree
from test_sdd_conditioning import from_mask, setups

DSDNNF = BACKENDS["dsdnnf"]


def circuit_mask(d, n):
    """Truth-table bits of a circuit over variables 1..n."""
    ones = full_mask(n)
    masks = []
    for gate in d.gates:
        if gate[0] == "lit":
            bits = var_mask(abs(gate[1]), n)
            masks.append(bits if gate[1] > 0 else ones ^ bits)
        elif gate[0] == "and":
            masks.append(masks[gate[1]] & masks[gate[2]])
        elif gate[0] == "or":
            masks.append(masks[gate[1]] | masks[gate[2]])
        else:
            masks.append(ones if gate[0] == "true" else 0)
    return masks[d.root]


@st.composite
def folds(draw):
    """A formula of `test_backends.instances` with at least two clauses,
    where an empty clause, a repeated literal and a clashing pair are
    each put in at a drawn place or left out, and a vtree."""
    n, clauses, order, _ = draw(instances())
    tree = random_vtree(draw(st.data()), order)
    var = draw(st.integers(1, n))
    literal = draw(st.sampled_from((var, -var)))
    clauses = list(clauses)
    for extra in ((), (literal, literal), (var, -var)):
        if draw(st.booleans()):
            clauses.insert(draw(st.integers(0, len(clauses))), extra)
    while len(clauses) < 2:
        clauses.append((literal,))
    return CnfFormula(n, tuple(clauses)), tree


def clause_joins(phi, proof):
    """(a, b, clause) of every join line whose second premise is an init
    line, and every diagram of the proof, parsed in one session."""
    session = _Session(proof, DEFAULT_CHECK_CAP)
    joins = []
    for line in proof.lines:
        if line.rule == "join":
            i, k = line.refs
            premise = proof.lines[k - 1]
            assert premise.rule == "init"
            joins.append((session.line_diagram(i)[0],
                          session.line_diagram(k)[0],
                          phi.clauses[premise.clause_index]))
    return joins, [session.diagram(did) for did in proof.diagrams]


@settings(max_examples=200, deadline=None)
@given(folds())
def test_every_claim_of_a_fold_agrees_with_the_nested_check(fold):
    phi, tree = fold
    joins, diagrams = clause_joins(
        phi, naive_conjoin_refute(phi, tree, "dsdnnf"))
    for a, b, clause in joins:
        want = circuit_mask(a, phi.num_vars) & clause_mask(clause,
                                                           phi.num_vars)
        for c in diagrams:
            honest = circuit_mask(c, phi.num_vars) == want
            assert DSDNNF.join_ok(a, b, c, clause) is honest, clause
            assert dsdnnf_join_check(a, b, c) is honest


def circuit(store, n, mask):
    return sdd_to_dsdnnf(from_mask(store, n, mask))


@settings(max_examples=150, deadline=None)
@given(setups(), st.data())
def test_claims_off_by_a_model_or_a_swap_are_rejected(setup, data):
    """Claims that keep a's and the clause's count but not both
    entailments, or that lose a model, as truth tables."""
    n, tree, a_mask, clause = setup
    store = SddStore(tree)
    a = circuit(store, n, a_mask)
    b = sdd_to_dsdnnf(sdd_from_clause(store, clause))
    want = a_mask & clause_mask(clause, n)
    rows = st.integers(0, (1 << n) - 1)
    first, second = data.draw(rows), data.draw(rows)
    for claimed in (want, a_mask, clause_mask(clause, n), 0,
                    want ^ 1 << first, want ^ 1 << first ^ 1 << second):
        c = circuit(store, n, claimed)
        assert DSDNNF.join_ok(a, b, c, clause) is (claimed == want)
        assert dsdnnf_join_check(a, b, c) is (claimed == want)


TREE3 = vtree_node(vtree_node(vtree_leaf(1), vtree_leaf(2)), vtree_leaf(3))


@pytest.mark.parametrize("a_clauses, clause, c_clauses, honest", [
    # the count of x3 and x1, and it entails x3, but not the clause x1
    ([(3,)], (1,), [(3,), (2,)], False),
    # the count of x1 and x2, and it entails x2, but not a
    ([(1,)], (2,), [(-1,), (2,)], False),
    # it entails x1 and x2, with one model of the two missing
    ([(1,)], (2,), [(1,), (2,), (3,)], False),
    ([(1,)], (2,), [(1,), (2,)], True),
    ([(1,)], (2, 2), [(1,), (2,)], True),
    ([(1,)], (1, -1), [(1,)], True),
    ([(1,)], (1, -1), [(1,), (2,)], False),
    ([(1,)], (), [()], True),
    ([(1,)], (), [(1,)], False),
])
def test_each_condition_rejects_on_its_own(a_clauses, clause, c_clauses,
                                           honest):
    backend, export = fold_backend("dsdnnf")
    store = backend.store(TREE3)
    a, b, c = (export(fold_trace(backend, store, clauses)[0])
               for clauses in (a_clauses, [clause], c_clauses))
    assert DSDNNF.join_ok(a, b, c, clause) is honest
    assert dsdnnf_join_check(a, b, c) is honest


# x1 or x2, not x1 or x2, x1 or not x2, not x1 or not x2: unsatisfiable
PHI = cnf(2, [(1, 2), (-1, 2), (1, -2), (-1, -2)])


def two_kinds_of_join():
    """Lines 5 and 6 join two init lines, line 7 joins those joins."""
    tree = vtree_node(vtree_leaf(1), vtree_leaf(2))
    backend, export = fold_backend("dsdnnf")
    store = backend.store(tree)
    proof = Proof(ProofSystem("dsdnnf", ("join",)))
    sid = proof.add_structure(tree)

    def diagram(clauses):
        d, _ = fold_trace(backend, store, clauses)
        return proof.add_diagram(sid, diagram_payload(export(d)))

    inits = [proof.add_init(j, diagram([PHI.clauses[j]])) for j in range(4)]
    left = proof.add_join(inits[0], inits[1], diagram(PHI.clauses[:2]))
    right = proof.add_join(inits[2], inits[3], diagram(PHI.clauses[2:]))
    proof.add_join(left, right, diagram(PHI.clauses))
    return proof


def test_one_product_per_clause_join_and_two_per_other_join(monkeypatch):
    calls = []
    conjoin = dsdnnf.dsdnnf_conjoin

    def spy(*args):
        calls.append(args)
        return conjoin(*args)

    monkeypatch.setattr(dsdnnf, "dsdnnf_conjoin", spy)
    proof = two_kinds_of_join()
    assert [line.rule for line in proof.lines] == ["init"] * 4 + ["join"] * 3
    assert check_proof(PHI, proof).accepted
    assert len(calls) == 1 + 1 + 2
    calls.clear()
    fold = naive_conjoin_refute(PHI, vtree_node(vtree_leaf(1),
                                                vtree_leaf(2)), "dsdnnf")
    assert check_proof(PHI, fold).accepted
    assert len(calls) == sum(line.rule == "join" for line in fold.lines)


# The d-SDNNF fold of lift_Z(vc-path 6) on its right-linear vtree, 51
# lines: the determinism memo of any of its diagrams peaks at 90 gate
# pairs, the product memo of its clause joins at 11,340, and first passes
# 1,000 in the join of line 9 (1,783 pairs)
CAP = 1000
CAPPED_LINE = 9


def vc_path_6():
    phi = lift_Z(vc_formula(path(6))).result
    tree = right_linear_vtree(tuple(range(1, phi.num_vars + 1)))
    return phi, naive_conjoin_refute(phi, tree, "dsdnnf")


def test_a_join_product_over_the_cap_is_a_resource_verdict():
    phi, proof = vc_path_6()
    session = _Session(proof, CAP)
    for did in proof.diagrams:
        session.diagram(did)  # every determinism check passes the cap
    verdict = check_proof(phi, proof, cap=CAP)
    assert verdict.resource
    assert verdict.failing_line == CAPPED_LINE
    assert verdict.reason == "resource cap exceeded: product conjoin " \
        "exceeded %d gate pairs" % CAP
    assert check_proof(phi, proof).accepted


def test_kcp_check_exits_3_when_a_join_product_passes_the_cap(tmp_path):
    phi, proof = vc_path_6()
    formula, text = tmp_path / "f.cnf", tmp_path / "p.kcp"
    formula.write_text(to_dimacs(phi))
    text.write_text(proof_to_text(proof))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["check", str(formula), str(text), "--cap", str(CAP)])
    assert code == 3
    assert out.getvalue().startswith("rejected at line %d: " % CAPPED_LINE)
