import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcproof.cnf import cnf
from kcproof.sdd import (
    SddError,
    SddStore,
    parse_sdd,
    rebind,
    sdd_apply,
    sdd_const,
    sdd_count,
    sdd_entails,
    sdd_equal,
    sdd_from_clause,
    sdd_from_lines,
    sdd_is_false,
    sdd_literal,
    sdd_restrict,
    sdd_size,
    sdd_to_lines,
    sdd_to_text,
)
from kcproof.structure import parse_vtree, right_linear_vtree
from oracles import (formula_mask, full_mask, sdd_compile_cnf, sdd_from_term,
                     sdd_is_unsat, sdd_mentioned_vars, sdd_negate,
                     sdd_truth_mask)

MAJ = cnf(3, [[1, 2], [1, 3], [2, 3]])
MAJ_VTREE = parse_vtree("((x1 x2) x3)")


def compile_formula(store, phi):
    acc = sdd_const(store, True)
    for clause in phi.clauses:
        acc = sdd_apply("and", acc, sdd_from_clause(store, clause))
    return acc


def check_store_invariants(store):
    """Partition, satisfiable primes, and compression for every decision node."""
    snapshot = list(enumerate(store.nodes))
    for node_id, descriptor in snapshot:
        if descriptor[0] != "dec":
            continue
        path = descriptor[1]
        primes = [prime for prime, _ in descriptor[2]]
        subs = [sub for _, sub in descriptor[2]]
        assert len(set(subs)) == len(subs), "uncompressed node %d" % node_id
        n_left = len(store.vars_at[path + "L"])
        assert all(store.count(p) > 0 for p in primes)
        assert sum(store.count(p) for p in primes) == 1 << n_left
        fold = store.false_at(path + "L")
        for prime in primes:
            fold = store.apply("or", fold, prime)
        assert fold == store.true_at(path + "L")


@st.composite
def vtrees(draw, variables):
    if len(variables) == 1:
        from kcproof.structure import vtree_leaf
        return vtree_leaf(variables[0])
    from kcproof.structure import vtree_node
    split = draw(st.integers(1, len(variables) - 1))
    left = draw(vtrees(variables[:split]))
    right = draw(vtrees(variables[split:]))
    return vtree_node(left, right)


@st.composite
def formulas_with_vtrees(draw, max_vars=5, max_clauses=6):
    n = draw(st.integers(1, max_vars))
    m = draw(st.integers(0, max_clauses))
    clauses = []
    for _ in range(m):
        support = draw(st.sets(st.integers(1, n), max_size=3))
        clauses.append([v if draw(st.booleans()) else -v for v in sorted(support)])
    perm = draw(st.permutations(list(range(1, n + 1))))
    tree = draw(vtrees(list(perm)))
    return cnf(n, clauses), tree


class TestConstruction:
    def test_clause_two_pairs(self):
        store = SddStore(parse_vtree("(x1 x2)"))
        d = sdd_from_clause(store, (1, 2))
        descriptor = store.nodes[d.node]
        assert descriptor[0] == "dec"
        assert len(descriptor[2]) == 2

    def test_empty_clause_is_false_atom(self):
        store = SddStore(parse_vtree("(x1 x2)"))
        assert sdd_is_false(sdd_from_clause(store, ()))

    def test_term_single_model(self):
        store = SddStore(parse_vtree("(x1 x2)"))
        d = sdd_from_term(store, {1: 1, 2: 0})
        assert sdd_count(d, {1, 2}) == 1

    def test_literal_requires_vtree_variable(self):
        store = SddStore(parse_vtree("(x1 x2)"))
        with pytest.raises(SddError):
            sdd_literal(store, 5)


class TestApply:
    def test_contradiction_is_canonical_false(self):
        store = SddStore(parse_vtree("(x1 x2)"))
        d = sdd_apply("and", sdd_from_clause(store, (1,)),
                      sdd_from_clause(store, (-1,)))
        assert sdd_is_false(d)
        assert sdd_is_unsat(d)

    def test_majority_count(self):
        for tree in (MAJ_VTREE, right_linear_vtree((1, 2, 3)),
                     parse_vtree("((x3 x1) x2)")):
            store = SddStore(tree)
            d = compile_formula(store, MAJ)
            assert sdd_count(d, {1, 2, 3}) == 4
            check_store_invariants(store)

    def test_negate_involution(self):
        store = SddStore(MAJ_VTREE)
        d = compile_formula(store, MAJ)
        assert sdd_negate(sdd_negate(d)) == d

    def test_negate_of_true_is_canonical_false(self):
        store = SddStore(MAJ_VTREE)
        assert sdd_is_false(sdd_negate(sdd_const(store, True)))

    def test_cross_store_rejected(self):
        a = sdd_const(SddStore(parse_vtree("(x1 x2)")), True)
        b = sdd_const(SddStore(parse_vtree("(x1 x2)")), True)
        with pytest.raises(SddError):
            sdd_apply("and", a, b)

    @given(formulas_with_vtrees())
    @settings(max_examples=50, deadline=None)
    def test_matches_truth_table(self, pair):
        phi, tree = pair
        store = SddStore(tree)
        d = compile_formula(store, phi)
        assert sdd_truth_mask(d, phi.num_vars) == formula_mask(phi)
        check_store_invariants(store)


class TestRestrict:
    def test_majority_on_one(self):
        store = SddStore(MAJ_VTREE)
        d = sdd_restrict(compile_formula(store, MAJ), {1: 1})
        assert sdd_count(d, {2, 3}) == 3

    def test_unmentioned_variable(self):
        store = SddStore(MAJ_VTREE)
        d = sdd_from_clause(store, (1, 2))
        assert sdd_restrict(d, {3: 0}) == d

    def test_term_restricted_by_itself(self):
        store = SddStore(parse_vtree("(x1 x2)"))
        assignment = {1: 1, 2: 0}
        d = sdd_restrict(sdd_from_term(store, assignment), assignment)
        assert d.node == store.true_at("")

    @given(formulas_with_vtrees(), st.integers(1, 5), st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_restrict_mask(self, pair, var, value):
        phi, tree = pair
        var = 1 + (var - 1) % phi.num_vars
        store = SddStore(tree)
        d = compile_formula(store, phi)
        restricted = sdd_restrict(d, {var: int(value)})
        from oracles import var_mask
        vm = var_mask(var, phi.num_vars)
        ones = full_mask(phi.num_vars)
        base = sdd_truth_mask(d, phi.num_vars)
        selected = base & (vm if value else ones ^ vm)
        # the restriction is free in var: copy the kept half onto the other
        stride = 1 << (var - 1)
        if value:
            expected = selected | (selected >> stride)
        else:
            expected = selected | ((selected << stride) & ones)
        assert sdd_truth_mask(restricted, phi.num_vars) == expected


class TestCount:
    def test_true_over_four(self):
        store = SddStore(parse_vtree("((x1 x2) (x3 x4))"))
        assert sdd_count(sdd_const(store, True), {1, 2, 3, 4}) == 16

    def test_clause_over_three(self):
        store = SddStore(parse_vtree("((x1 x2) x3)"))
        d = sdd_from_clause(store, (1, 2))
        assert sdd_count(d, {1, 2, 3}) == 6

    def test_scaling_above_vtree(self):
        store = SddStore(parse_vtree("(x1 x2)"))
        d = sdd_from_clause(store, (1, 2))
        assert sdd_count(d, {1, 2, 7}) == 6

    def test_shrinking_below_vtree(self):
        store = SddStore(parse_vtree("((x1 x2) x3)"))
        d = sdd_from_clause(store, (1, 2))
        assert sdd_count(d, {1, 2}) == 3

    def test_mentioned_variable_cannot_be_dropped(self):
        store = SddStore(parse_vtree("(x1 x2)"))
        with pytest.raises(SddError):
            sdd_count(sdd_from_clause(store, (1, 2)), {1})


class TestPredicates:
    def test_independent_builds_equal(self):
        store = SddStore(MAJ_VTREE)
        one = compile_formula(store, MAJ)
        acc = sdd_const(store, True)
        for clause in reversed(MAJ.clauses):
            acc = sdd_apply("and", sdd_from_clause(store, clause), acc)
        assert sdd_equal(one, acc)

    def test_literal_entails_clause(self):
        store = SddStore(parse_vtree("(x1 x2)"))
        assert sdd_entails(sdd_from_clause(store, (1,)),
                           sdd_from_clause(store, (1, 2)))

    def test_clause_does_not_entail_literal(self):
        store = SddStore(parse_vtree("(x1 x2)"))
        assert not sdd_entails(sdd_from_clause(store, (1, 2)),
                               sdd_from_clause(store, (1,)))

    def test_unequal_counts_fast_reject(self):
        store = SddStore(parse_vtree("(x1 x2)"))
        assert not sdd_equal(sdd_from_clause(store, (1,)),
                             sdd_from_clause(store, (1, 2)))


class TestCompile:
    def test_contradiction_trace(self):
        store = SddStore(parse_vtree("x1"))
        final, trace = sdd_compile_cnf(cnf(1, [[1], [-1]]), store)
        assert sdd_is_false(final)
        assert len(trace) == 3
        kinds = [step[0] for step in trace]
        assert kinds == ["init", "init", "join"]
        assert trace[2][3] == final

    def test_single_clause(self):
        store = SddStore(parse_vtree("((x1 x2) x3)"))
        final, trace = sdd_compile_cnf(cnf(3, [[1, 2, 3]]), store)
        assert len(trace) == 1
        assert sdd_count(final, {1, 2, 3}) == 7

    def test_path_cover_formula(self):
        phi = cnf(3, [[1, 2], [2, 3]])
        store = SddStore(right_linear_vtree((1, 2, 3)))
        final, trace = sdd_compile_cnf(phi, store)
        assert sdd_count(final, {1, 2, 3}) == formula_mask(phi).bit_count()
        assert len(trace) == 2 * phi.num_clauses - 1

    def test_variable_outside_vtree(self):
        store = SddStore(parse_vtree("(x1 x2)"))
        with pytest.raises(SddError):
            sdd_compile_cnf(cnf(3, [[3]]), store)

    def test_subset_of_leaves_allowed(self):
        store = SddStore(parse_vtree("((x1 x2) x3)"))
        final, _ = sdd_compile_cnf(cnf(2, [[1], [2]]), store)
        assert sdd_count(final, {1, 2, 3}) == 2


class TestSerialization:
    def test_round_trip(self):
        store = SddStore(MAJ_VTREE)
        d = compile_formula(store, MAJ)
        parsed = parse_sdd(sdd_to_text(d))
        assert sdd_count(parsed, {1, 2, 3}) == 4
        assert sdd_truth_mask(parsed, 3) == sdd_truth_mask(d, 3)

    def test_constant_round_trip(self):
        store = SddStore(parse_vtree("(x1 x2)"))
        parsed = parse_sdd(sdd_to_text(sdd_const(store, False)))
        assert sdd_is_false(parsed)

    def test_literal_round_trip(self):
        store = SddStore(parse_vtree("(x1 x2)"))
        parsed = parse_sdd(sdd_to_text(sdd_literal(store, -2)))
        assert sdd_count(parsed, {1, 2}) == 2
        assert sdd_mentioned_vars(parsed) == {2}

    def test_overlapping_primes_rejected(self):
        store = SddStore(parse_vtree("(x1 x2)"))
        lines = [
            "a 0 L lit 1",
            "a 1 L true",
            "a 2 R true",
            "a 3 R false",
            "s 4 - (0 2)(1 3)",
            "root 4",
        ]
        with pytest.raises(SddError):
            sdd_from_lines(store, lines)

    def test_non_exhaustive_primes_rejected(self):
        store = SddStore(parse_vtree("(x1 x2)"))
        lines = [
            "a 0 L lit 1",
            "a 2 R true",
            "s 4 - (0 2)",
            "root 4",
        ]
        with pytest.raises(SddError):
            sdd_from_lines(store, lines)

    def test_unsatisfiable_prime_rejected(self):
        store = SddStore(parse_vtree("(x1 x2)"))
        lines = [
            "a 0 L true",
            "a 1 L false",
            "a 2 R true",
            "a 3 R false",
            "s 4 - (0 2)(1 3)",
            "root 4",
        ]
        with pytest.raises(SddError):
            sdd_from_lines(store, lines)

    def test_misplaced_literal_rejected(self):
        store = SddStore(parse_vtree("(x1 x2)"))
        with pytest.raises(SddError):
            sdd_from_lines(store, ["a 0 R lit 1", "root 0"])

    def test_valid_hand_written_partition(self):
        store = SddStore(parse_vtree("(x1 x2)"))
        lines = [
            "a 0 L lit 1",
            "a 1 L lit -1",
            "a 2 R true",
            "a 3 R lit 2",
            "s 4 - (0 2)(1 3)",
            "root 4",
        ]
        d = sdd_from_lines(store, lines)
        assert sdd_count(d, {1, 2}) == 3  # x1 or x2

    def test_size_counts_reachable_nodes(self):
        store = SddStore(parse_vtree("(x1 x2)"))
        d = sdd_from_clause(store, (1, 2))
        assert sdd_size(d) >= 4
        assert len(sdd_to_lines(d)) == sdd_size(d) + 1


class TestRebind:
    def test_across_vtrees(self):
        source = SddStore(MAJ_VTREE)
        d = compile_formula(source, MAJ)
        target = SddStore(right_linear_vtree((3, 1, 2)))
        moved = rebind(target, d)
        assert sdd_truth_mask(moved, 3) == sdd_truth_mask(d, 3)
        check_store_invariants(target)

    def test_constants(self):
        source = SddStore(parse_vtree("(x1 x2)"))
        target = SddStore(parse_vtree("(x2 x1)"))
        assert sdd_is_false(rebind(target, sdd_const(source, False)))

    @given(formulas_with_vtrees(max_vars=4))
    @settings(max_examples=30, deadline=None)
    def test_mask_preserved(self, pair):
        phi, tree = pair
        source = SddStore(tree)
        d = compile_formula(source, phi)
        target = SddStore(right_linear_vtree(tuple(range(1, phi.num_vars + 1))))
        assert sdd_truth_mask(rebind(target, d), phi.num_vars) == \
            sdd_truth_mask(d, phi.num_vars)
