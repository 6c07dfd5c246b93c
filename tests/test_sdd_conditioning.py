"""SDD init lines and clause joins are decided by conditioning.

`_SddBackend.join_ok(a, b, c, clause)`, where b is the init line of
clause l1 or ... or lk, accepts c exactly when c and a agree on every
cell {not l1, ..., not l(i-1), li} and c is false on the clause's
falsifying assignment; `init_ok` is the same test with a the constant
true.  Both must agree with brute force over truth tables and with the
product check of `_Backend`, on every claim and every clause shape:
repeated literals, x next to not x, and the empty clause.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcproof import proofs
from kcproof.cnf import CnfFormula, clause_mask, cnf, full_mask
from kcproof.proofs import (BACKENDS, Proof, ProofSystem, _Backend,
                            check_proof, diagram_payload)
from kcproof.refute import naive_conjoin_refute
from kcproof.sdd import (SddError, SddRef, SddStore, sdd_const,
                         sdd_from_clause, sdd_from_term, sdd_restrict,
                         sdd_truth_mask)
from kcproof.structure import parse_vtree, vtree_leaf, vtree_node

SDD = BACKENDS["sdd"]


@st.composite
def vtrees(draw, variables):
    if len(variables) == 1:
        return vtree_leaf(variables[0])
    split = draw(st.integers(1, len(variables) - 1))
    return vtree_node(draw(vtrees(variables[:split])),
                      draw(vtrees(variables[split:])))


@st.composite
def setups(draw, max_vars=5):
    """n, a vtree over 1..n, a function of it as a truth-table mask, and a
    clause over 1..n whose literals may repeat or clash."""
    n = draw(st.integers(1, max_vars))
    order = draw(st.permutations(range(1, n + 1)))
    tree = draw(vtrees(tuple(order)))
    mask = draw(st.integers(0, full_mask(n)))
    clause = tuple(var if positive else -var for var, positive in draw(
        st.lists(st.tuples(st.integers(1, n), st.booleans()), max_size=4)))
    return n, tree, mask, clause


def from_mask(store, n, mask):
    """The diagram of a truth-table mask, as a disjunction of minterms."""
    d = sdd_const(store, False)
    for row in range(1 << n):
        if mask >> row & 1:
            term = sdd_from_term(store, {var: row >> (var - 1) & 1
                                         for var in range(1, n + 1)})
            d = SddRef(store, store.apply("or", d.node, term.node))
    return d


def claims(a_mask, c_mask, toggled_row):
    """Claimed masks for a join of a and the clause: honest, a, the
    clause, false, and the honest one with one model toggled."""
    return (a_mask & c_mask, a_mask, c_mask, 0,
            (a_mask & c_mask) ^ (1 << toggled_row))


@settings(max_examples=200, deadline=None)
@given(setups(), st.data())
def test_conditioning_matches_brute_force_and_the_product(setup, data):
    n, tree, a_mask, clause = setup
    store = SddStore(tree)
    a = from_mask(store, n, a_mask)
    c_mask = clause_mask(clause, n)
    b = sdd_from_clause(store, clause)
    assert sdd_truth_mask(b, n) == c_mask
    row = data.draw(st.integers(0, (1 << n) - 1))
    for claimed_mask in claims(a_mask, c_mask, row):
        claimed = from_mask(store, n, claimed_mask)
        expected = claimed_mask == a_mask & c_mask
        assert SDD.join_ok(a, b, claimed, clause) is expected
        assert _Backend.join_ok(SDD, a, b, claimed) is expected
        expected = claimed_mask == c_mask
        assert SDD.init_ok(store, claimed, clause) is expected
        assert _Backend.init_ok(SDD, store, claimed, clause) is expected


@settings(max_examples=100, deadline=None)
@given(setups(), st.data())
def test_a_constant_is_its_own_restriction_and_creates_nothing(setup, data):
    n, tree, _, _ = setup
    assigned = data.draw(st.lists(st.integers(1, n), unique=True))
    assignment = {var: data.draw(st.integers(0, 1)) for var in assigned}
    store = SddStore(tree)
    for value in (True, False):
        d = sdd_const(store, value)
        nodes = list(store.nodes)
        assert sdd_restrict(d, assignment).node == d.node
        assert store.nodes == nodes


@pytest.mark.parametrize("clause", [(1, 1), (2, -1, 2), (1, -1), (-2, 3, 2),
                                    (3, -3, 1), ()])
def test_repeated_clashing_and_empty_clauses(clause):
    n = 3
    tree = parse_vtree("((x1 x2) x3)")
    store = SddStore(tree)
    c_mask = clause_mask(clause, n)
    for a_mask in (0, full_mask(n), 0b10110010, 0b01011110):
        a = from_mask(store, n, a_mask)
        b = sdd_from_clause(store, clause)
        for claimed_mask in claims(a_mask, c_mask, 5):
            claimed = from_mask(store, n, claimed_mask)
            assert SDD.join_ok(a, b, claimed, clause) \
                is (claimed_mask == a_mask & c_mask)
            assert SDD.init_ok(store, claimed, clause) \
                is (claimed_mask == c_mask)


def test_each_conditioned_check_costs_at_most_2k_plus_1_restrictions(
        monkeypatch):
    restricted = []
    real = proofs.sdd_restrict

    def counting(d, assignment):
        restricted.append(dict(assignment))
        return real(d, assignment)

    def no_product(*args):
        raise AssertionError("a conditioned check ran a product")

    monkeypatch.setattr(proofs, "sdd_restrict", counting)
    monkeypatch.setattr(proofs, "sdd_apply", no_product)
    store = SddStore(parse_vtree("((x1 x2) (x3 x4))"))
    a = from_mask(store, 4, 0b1011001011110110)
    for clause in ((1, -2, 3, 4), (1, 1), (4, -4), ()):
        c_mask = clause_mask(clause, 4)
        claimed = from_mask(store, 4, 0b1011001011110110 & c_mask)
        del restricted[:]
        assert SDD.join_ok(a, None, claimed, clause)
        assert len(restricted) <= 2 * len(clause) + 1
        claimed = from_mask(store, 4, c_mask)
        del restricted[:]
        assert SDD.init_ok(store, claimed, clause)
        assert len(restricted) <= 2 * len(clause) + 1


def test_a_literal_outside_the_vtree_fails_its_init_line():
    store = SddStore(parse_vtree("(x1 x2)"))
    with pytest.raises(SddError, match="variable 3 not in vtree"):
        SDD.init_ok(store, sdd_const(store, True), (1, -3))
    phi = CnfFormula(3, ((1, -3), (-1,)))
    proof = Proof(ProofSystem("sdd", ("join",)))
    sid = proof.add_structure(store.vtree)
    proof.add_init(0, proof.add_diagram(
        sid, diagram_payload(sdd_const(store, True))))
    verdict = check_proof(phi, proof)
    assert (verdict.failing_line, verdict.reason) \
        == (1, "malformed: variable 3 not in vtree")


PHI = cnf(3, [(1, 2), (-1, 2), (-2, 3), (1, -3), (-1, -3)])


def fold_proof(init_first):
    """The naive fold of PHI, whose joins name the init line second, or
    first when init_first is set."""
    proof = naive_conjoin_refute(PHI, parse_vtree("((x1 x2) x3)"), "sdd")
    for line in proof.lines:
        assert line.rule == "init" or \
            proof.lines[line.refs[1] - 1].rule == "init"
        if line.rule == "join" and init_first:
            line.refs = line.refs[::-1]
    return proof


@pytest.mark.parametrize("init_first", [False, True])
@pytest.mark.parametrize("join_line", [3, 5, 7])
def test_an_altered_clause_join_is_a_join_mismatch(join_line, init_first):
    tree = parse_vtree("((x1 x2) x3)")
    proof = fold_proof(init_first)
    assert check_proof(PHI, proof).accepted
    line = proof.lines[join_line - 1]
    assert line.rule == "join"
    sid = proof.diagrams[line.diagram_id][0]
    # the honest claim with one model of the 8 toggled
    store = SddStore(tree)
    honest = sdd_truth_mask(
        proofs._Session(proof, 10 ** 7).diagram(line.diagram_id), 3)
    altered = from_mask(store, 3, honest ^ 1 << 6)
    line.diagram_id = proof.add_diagram(sid, diagram_payload(altered))
    verdict = check_proof(PHI, proof)
    assert (verdict.failing_line, verdict.reason) == (join_line,
                                                      "join mismatch")
