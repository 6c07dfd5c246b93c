import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcproof.cnf import CapExceeded, cnf
from kcproof.dsdnnf import (
    Circuit,
    DsdnnfError,
    circuit_from_lines,
    circuit_size,
    circuit_to_text,
    circuit_vars,
    clause_circuit,
    dsdnnf_clausal_entails,
    dsdnnf_conjoin,
    dsdnnf_count,
    dsdnnf_equiv,
    dsdnnf_implies,
    dsdnnf_is_unsat,
    dsdnnf_join_check,
    dsdnnf_restrict,
    obdd_to_dsdnnf,
    parse_circuit,
    sdd_to_dsdnnf,
    validate_deterministic,
    validate_structured,
)
from kcproof.obdd import ObddStore, obdd_apply, obdd_const, obdd_from_clause
from kcproof.sdd import SddStore, sdd_apply, sdd_const, sdd_from_clause, sdd_literal
from kcproof.structure import parse_vtree, right_linear_vtree, vtree_leaf, vtree_node
from oracles import formula_mask, obdd_literal

MAJ = cnf(3, [[1, 2], [1, 3], [2, 3]])
MAJ_VTREE = parse_vtree("((x1 x2) x3)")


def eval_circuit(circuit, assignment):
    """Independent recursive evaluator used as the counting oracle."""

    def rec(i):
        gate = circuit.gates[i]
        if gate[0] == "and":
            return rec(gate[1]) and rec(gate[2])
        if gate[0] == "or":
            return rec(gate[1]) or rec(gate[2])
        if gate[0] == "lit":
            value = assignment[abs(gate[1])]
            return value == 1 if gate[1] > 0 else value == 0
        return gate[0] == "true"

    return rec(circuit.root)


def brute_count(circuit, variables):
    ordered = sorted(variables)
    total = 0
    for bits in itertools.product((0, 1), repeat=len(ordered)):
        if eval_circuit(circuit, dict(zip(ordered, bits))):
            total += 1
    return total


def hand_majority():
    c = Circuit(MAJ_VTREE)
    x1, nx1 = c.mk_lit(1), c.mk_lit(-1)
    x2, nx2 = c.mk_lit(2), c.mk_lit(-2)
    x3 = c.mk_lit(3)
    both = c.mk_and(x1, x2)
    one = c.mk_or(c.mk_and(x1, nx2), c.mk_and(nx1, x2))
    free3 = c.mk_or(x3, c.mk_lit(-3))
    c.root = c.mk_or(c.mk_and(both, free3), c.mk_and(one, x3))
    return c


def true_circuit(tree):
    c = Circuit(tree)
    c.root = c.mk_true()
    return c


def false_circuit(tree):
    c = Circuit(tree)
    c.root = c.mk_false()
    return c


def compile_circuit(phi, tree):
    acc = true_circuit(tree)
    for clause in phi.clauses:
        acc = dsdnnf_conjoin(acc, clause_circuit(clause, tree), tree)
    return acc


@st.composite
def vtrees(draw, variables):
    if len(variables) == 1:
        return vtree_leaf(variables[0])
    split = draw(st.integers(1, len(variables) - 1))
    return vtree_node(draw(vtrees(variables[:split])),
                      draw(vtrees(variables[split:])))


@st.composite
def formulas_with_vtrees(draw, max_vars=4, max_clauses=5):
    n = draw(st.integers(1, max_vars))
    m = draw(st.integers(0, max_clauses))
    clauses = []
    for _ in range(m):
        support = draw(st.sets(st.integers(1, n), max_size=3))
        clauses.append([v if draw(st.booleans()) else -v for v in sorted(support)])
    perm = draw(st.permutations(list(range(1, n + 1))))
    return cnf(n, clauses), draw(vtrees(list(perm)))


class TestValidateStructured:
    def test_majority_accepted(self):
        c = hand_majority()
        binding = validate_structured(c, MAJ_VTREE)
        assert binding[c.root] == ""
        assert binding[c.gates[c.root][1]] == ""

    def test_literal_binds_to_leaf(self):
        c = hand_majority()
        binding = validate_structured(c, MAJ_VTREE)
        lit_gates = [i for i in binding if c.gates[i][0] == "lit"]
        assert {binding[i] for i in lit_gates} == {"LL", "LR", "R"}

    def test_repeated_variable_and_rejected(self):
        c = Circuit()
        c.root = c.add(("and", c.add(("lit", 1)), c.add(("lit", 1))))
        with pytest.raises(DsdnnfError):
            validate_structured(c, parse_vtree("(x1 x2)"))

    def test_or_variable_mismatch_rejected(self):
        c = Circuit()
        x1 = c.add(("lit", 1))
        both = c.add(("and", x1, c.add(("lit", 2))))
        c.root = c.add(("or", x1, both))
        with pytest.raises(DsdnnfError):
            validate_structured(c, parse_vtree("(x1 x2)"))

    def test_variable_outside_vtree_rejected(self):
        c = Circuit()
        c.root = c.add(("lit", 9))
        with pytest.raises(DsdnnfError):
            validate_structured(c, parse_vtree("(x1 x2)"))

    def test_unsplittable_and_rejected(self):
        c = Circuit()
        c.root = c.add(("and", c.add(("lit", 1)), c.add(("true",))))
        with pytest.raises(DsdnnfError):
            validate_structured(c, parse_vtree("(x1 x2)"))


class TestValidateDeterministic:
    def test_majority_deterministic(self):
        assert validate_deterministic(hand_majority(), MAJ_VTREE)

    def test_overlapping_or(self):
        c = Circuit()
        x1 = c.add(("lit", 1))
        both = c.add(("and", x1, c.add(("lit", 2))))
        c.root = c.add(("or", x1, both))
        assert not validate_deterministic(c, parse_vtree("(x1 x2)"))

    def test_disjoint_or(self):
        c = Circuit()
        a = c.add(("and", c.add(("lit", 1)), c.add(("lit", -2))))
        b = c.add(("and", c.add(("lit", -1)), c.add(("lit", 2))))
        c.root = c.add(("or", a, b))
        assert validate_deterministic(c, parse_vtree("(x1 x2)"))

    def test_cap_raises(self):
        c = hand_majority()
        with pytest.raises(CapExceeded):
            validate_deterministic(c, MAJ_VTREE, cap=1)


class TestConjoin:
    def test_majority_with_literal(self):
        joint = dsdnnf_conjoin(hand_majority(),
                               clause_circuit((1,), MAJ_VTREE), MAJ_VTREE)
        assert dsdnnf_count(joint, {1, 2, 3}) == 3

    def test_with_constant_true(self):
        d = hand_majority()
        joint = dsdnnf_conjoin(d, true_circuit(MAJ_VTREE), MAJ_VTREE)
        assert dsdnnf_equiv(joint, d)

    def test_contradictory_leaves(self):
        tree = parse_vtree("(x1 x2)")
        joint = dsdnnf_conjoin(clause_circuit((1,), tree),
                               clause_circuit((-1,), tree), tree)
        assert dsdnnf_is_unsat(joint)

    def test_vtree_mismatch(self):
        with pytest.raises(DsdnnfError):
            dsdnnf_conjoin(hand_majority(),
                           clause_circuit((9,), parse_vtree("(x8 x9)")),
                           MAJ_VTREE)

    @given(formulas_with_vtrees())
    @settings(max_examples=40, deadline=None)
    def test_compile_counts_and_validates(self, pair):
        phi, tree = pair
        c = compile_circuit(phi, tree)
        assert dsdnnf_count(c, set(range(1, phi.num_vars + 1))) == \
            formula_mask(phi).bit_count()
        validate_structured(c, tree)
        assert validate_deterministic(c, tree)

    @given(formulas_with_vtrees(max_vars=3, max_clauses=3),
           formulas_with_vtrees(max_vars=3, max_clauses=3))
    @settings(max_examples=25, deadline=None)
    def test_product_bound(self, pair_a, pair_b):
        (phi_a, tree), (phi_b, _) = pair_a, pair_b
        phi_b = cnf(phi_a.num_vars,
                    [cl for cl in phi_b.clauses
                     if all(abs(l) <= phi_a.num_vars for l in cl)])
        d1 = compile_circuit(phi_a, tree)
        d2 = compile_circuit(phi_b, tree)
        joint = dsdnnf_conjoin(d1, d2, tree)
        assert circuit_size(joint) <= \
            (circuit_size(d1) + 2) * (circuit_size(d2) + 2)
        assert brute_count(joint, set(range(1, phi_a.num_vars + 1))) == \
            dsdnnf_count(joint, set(range(1, phi_a.num_vars + 1)))


class TestRestrict:
    def test_majority_down_to_conjunction(self):
        d = dsdnnf_restrict(hand_majority(), {1: 0})
        assert dsdnnf_count(d, {2, 3}) == 1
        validate_structured(d, MAJ_VTREE)

    def test_empty_assignment(self):
        d = hand_majority()
        assert dsdnnf_equiv(dsdnnf_restrict(d, {}), d)

    def test_literal_to_constant(self):
        tree = parse_vtree("(x1 x2)")
        d = dsdnnf_restrict(clause_circuit((1,), tree), {1: 0})
        assert d.gates[d.root][0] == "false"

    def test_restricted_respects_moved_leaf_vtree(self):
        d = dsdnnf_restrict(hand_majority(), {3: 1})
        validate_structured(d, MAJ_VTREE)
        validate_structured(d, parse_vtree("((x1 x2) x3)"))
        validate_structured(d, parse_vtree("(x3 (x1 x2))"))


class TestCount:
    def test_constant_true(self):
        assert dsdnnf_count(true_circuit(None), {1, 2, 3, 4, 5}) == 32

    def test_pairing_formula(self):
        phi = cnf(4, [[-1, 3], [1, -3], [-2, 4], [2, -4]])
        tree = parse_vtree("((x1 x3) (x2 x4))")
        assert dsdnnf_count(compile_circuit(phi, tree), {1, 2, 3, 4}) == 4

    def test_missing_variable_rejected(self):
        with pytest.raises(DsdnnfError):
            dsdnnf_count(hand_majority(), {1, 2})

    def test_figure_majority(self):
        assert dsdnnf_count(hand_majority(), {1, 2, 3}) == 4


class TestQueries:
    def test_conjoined_contradiction_unsat(self):
        tree = parse_vtree("x1")
        phi = cnf(1, [[1], [-1]])
        assert dsdnnf_is_unsat(compile_circuit(phi, tree))

    def test_majority_entails_clause(self):
        assert dsdnnf_clausal_entails(hand_majority(), (1, 2))

    def test_majority_does_not_entail_literal(self):
        assert not dsdnnf_clausal_entails(hand_majority(), (1,))

    def test_implies(self):
        d = hand_majority()
        assert dsdnnf_implies(d, clause_circuit((1, 2), MAJ_VTREE))
        assert not dsdnnf_implies(clause_circuit((1, 2), MAJ_VTREE), d)

    def test_equiv_two_builds(self):
        assert dsdnnf_equiv(hand_majority(), compile_circuit(MAJ, MAJ_VTREE))

    def test_join_check(self):
        tree = parse_vtree("(x1 x2)")
        assert dsdnnf_join_check(clause_circuit((1,), tree),
                                 clause_circuit((-1,), tree),
                                 false_circuit(tree))
        assert not dsdnnf_join_check(clause_circuit((1,), tree),
                                     clause_circuit((-1,), tree),
                                     true_circuit(tree))

    def test_no_vtree_anywhere(self):
        with pytest.raises(DsdnnfError):
            dsdnnf_equiv(true_circuit(None), true_circuit(None))


class TestSddConversion:
    def test_false(self):
        store = SddStore(parse_vtree("(x1 x2)"))
        c = sdd_to_dsdnnf(sdd_const(store, False))
        assert c.gates[c.root][0] == "false"

    def test_literal(self):
        store = SddStore(parse_vtree("(x1 x2)"))
        c = sdd_to_dsdnnf(sdd_literal(store, 1))
        assert c.gates[c.root][0] == "lit"

    def test_majority(self):
        store = SddStore(MAJ_VTREE)
        acc = sdd_const(store, True)
        for clause in MAJ.clauses:
            acc = sdd_apply("and", acc, sdd_from_clause(store, clause))
        c = sdd_to_dsdnnf(acc)
        assert dsdnnf_count(c, {1, 2, 3}) == 4
        validate_structured(c, MAJ_VTREE)
        assert validate_deterministic(c, MAJ_VTREE)

    @given(formulas_with_vtrees())
    @settings(max_examples=40, deadline=None)
    def test_counts_and_validators(self, pair):
        phi, tree = pair
        store = SddStore(tree)
        acc = sdd_const(store, True)
        for clause in phi.clauses:
            acc = sdd_apply("and", acc, sdd_from_clause(store, clause))
        c = sdd_to_dsdnnf(acc)
        over = set(range(1, phi.num_vars + 1))
        assert dsdnnf_count(c, over) == formula_mask(phi).bit_count()
        validate_structured(c, tree)
        assert validate_deterministic(c, tree)

    @given(formulas_with_vtrees())
    @settings(max_examples=40, deadline=None)
    def test_size_bound(self, pair):
        from kcproof.sdd import sdd_size
        phi, tree = pair
        store = SddStore(tree)
        acc = sdd_const(store, True)
        for clause in phi.clauses:
            acc = sdd_apply("and", acc, sdd_from_clause(store, clause))
        c = sdd_to_dsdnnf(acc)
        pairs = sum(len(store.nodes[i][2])
                    for i in range(len(store.nodes))
                    if store.nodes[i][0] == "dec")
        budget = 2 * (sdd_size(acc) + pairs) + 4 * (2 * phi.num_vars - 1) + 2
        assert circuit_size(c) <= budget


class TestObddConversion:
    def test_majority(self):
        store = ObddStore((1, 2, 3))
        acc = obdd_const(store, True)
        for clause in MAJ.clauses:
            acc = obdd_apply("and", acc, obdd_from_clause(store, clause))
        c = obdd_to_dsdnnf(acc)
        tree = right_linear_vtree((1, 2, 3))
        assert c.vtree == tree
        assert dsdnnf_count(c, {1, 2, 3}) == 4
        validate_structured(c, tree)
        assert validate_deterministic(c, tree)

    def test_false_sink(self):
        store = ObddStore((1, 2))
        c = obdd_to_dsdnnf(obdd_const(store, False))
        assert c.gates[c.root][0] == "false"

    def test_single_literal(self):
        store = ObddStore((1,))
        c = obdd_to_dsdnnf(obdd_literal(store, 1))
        assert c.gates[c.root] == ("lit", 1)

    def test_skipped_level_padding(self):
        store = ObddStore((1, 2, 3))
        acc = obdd_apply("and", obdd_literal(store, 1), obdd_literal(store, 3))
        c = obdd_to_dsdnnf(acc)
        tree = right_linear_vtree((1, 2, 3))
        assert dsdnnf_count(c, {1, 2, 3}) == 2
        validate_structured(c, tree)
        assert validate_deterministic(c, tree)

    def test_true_sink_counts_everything(self):
        store = ObddStore((1, 2))
        c = obdd_to_dsdnnf(obdd_const(store, True))
        assert dsdnnf_count(c, {1, 2}) == 4


class TestSerialization:
    def test_round_trip(self):
        c = hand_majority()
        back = parse_circuit(circuit_to_text(c))
        assert back.vtree == MAJ_VTREE
        assert dsdnnf_count(back, {1, 2, 3}) == 4
        assert circuit_vars(back) == {1, 2, 3}

    def test_duplicate_id_rejected(self):
        with pytest.raises(DsdnnfError):
            circuit_from_lines(["g 0 TRUE", "g 0 FALSE", "root 0"])

    def test_undefined_child_rejected(self):
        with pytest.raises(DsdnnfError):
            circuit_from_lines(["g 0 AND 1 2", "root 0"])

    def test_unknown_kind_rejected(self):
        with pytest.raises(DsdnnfError):
            circuit_from_lines(["g 0 XOR 1 2", "root 0"])

    def test_missing_root_rejected(self):
        with pytest.raises(DsdnnfError):
            circuit_from_lines(["g 0 TRUE"])

    def test_zero_literal_rejected(self):
        with pytest.raises(DsdnnfError):
            circuit_from_lines(["g 0 LIT 0", "root 0"])

    @given(formulas_with_vtrees(max_vars=3, max_clauses=3))
    @settings(max_examples=20, deadline=None)
    def test_round_trip_preserves_count(self, pair):
        phi, tree = pair
        c = compile_circuit(phi, tree)
        back = parse_circuit(circuit_to_text(c))
        over = set(range(1, phi.num_vars + 1))
        assert dsdnnf_count(back, over) == dsdnnf_count(c, over)
