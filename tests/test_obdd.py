import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcproof.cnf import cnf
from kcproof.obdd import (
    ObddError,
    ObddStore,
    migrate,
    obdd_apply,
    obdd_const,
    obdd_count,
    obdd_entails,
    obdd_equal,
    obdd_from_clause,
    obdd_from_lines,
    obdd_restrict,
    obdd_size,
    obdd_to_lines,
    obdd_to_text,
    parse_obdd,
)
from oracles import (formula_mask, full_mask, obdd_is_unsat, obdd_literal,
                     obdd_move_var, obdd_negate, obdd_support,
                     obdd_total_size, obdd_truth_mask)

MAJ = cnf(3, [[1, 2], [1, 3], [2, 3]])


def compile_formula(store, phi):
    acc = obdd_const(store, True)
    for clause in phi.clauses:
        acc = obdd_apply("and", acc, obdd_from_clause(store, clause))
    return acc


@st.composite
def formulas(draw, max_vars=7, max_clauses=8):
    n = draw(st.integers(1, max_vars))
    m = draw(st.integers(0, max_clauses))
    clauses = []
    for _ in range(m):
        support = draw(st.sets(st.integers(1, n), max_size=4))
        clauses.append([v if draw(st.booleans()) else -v for v in sorted(support)])
    return cnf(n, clauses)


class TestConstruction:
    def test_binary_clause_shape(self):
        store = ObddStore((1, 2))
        d = obdd_from_clause(store, (1, 2))
        assert obdd_size(d) == 2
        var, lo, hi = store.node(d.node)
        assert var == 1 and hi == store.TRUE
        assert store.node(lo) == (2, store.FALSE, store.TRUE)

    def test_empty_clause(self):
        store = ObddStore((1,))
        assert obdd_from_clause(store, ()).node == store.FALSE

    def test_unit_clause(self):
        store = ObddStore((1, 2, 3))
        assert obdd_size(obdd_from_clause(store, (1,))) == 1

    def test_unordered_clause_literals(self):
        store = ObddStore((3, 1, 2))
        d = obdd_from_clause(store, (1, -3))
        assert obdd_count(d, {1, 2, 3}) == 6

    def test_mk_rejects_unknown_variable(self):
        store = ObddStore((1,))
        with pytest.raises(ObddError):
            store.mk(2, store.FALSE, store.TRUE)

    def test_mk_rejects_order_violation(self):
        store = ObddStore((1, 2))
        inner = store.mk(1, store.FALSE, store.TRUE)
        with pytest.raises(ObddError):
            store.mk(2, inner, store.TRUE)


class TestApply:
    def test_contradiction(self):
        store = ObddStore((1,))
        d = obdd_apply("and", obdd_from_clause(store, (1,)),
                       obdd_from_clause(store, (-1,)))
        assert obdd_is_unsat(d)

    def test_majority_node_count(self):
        store = ObddStore((1, 2, 3))
        d = compile_formula(store, MAJ)
        assert obdd_size(d) == 4
        assert obdd_count(d, {1, 2, 3}) == 4

    def test_and_true_identity(self):
        store = ObddStore((1, 2))
        d = obdd_from_clause(store, (1, 2))
        assert obdd_apply("and", d, obdd_const(store, True)) == d

    def test_cross_store_rejected(self):
        a = obdd_literal(ObddStore((1,)), 1)
        b = obdd_literal(ObddStore((1,)), 1)
        with pytest.raises(ObddError):
            obdd_apply("and", a, b)

    @given(formulas(max_vars=6))
    @settings(max_examples=60)
    def test_matches_truth_table(self, phi):
        store = ObddStore(tuple(range(1, phi.num_vars + 1)))
        d = compile_formula(store, phi)
        assert obdd_truth_mask(d, phi.num_vars) == formula_mask(phi)

    @given(formulas(max_vars=6, max_clauses=4), formulas(max_vars=6, max_clauses=4))
    @settings(max_examples=40)
    def test_product_size_bound(self, phi1, phi2):
        n = max(phi1.num_vars, phi2.num_vars)
        store = ObddStore(tuple(range(1, n + 1)))
        d1 = compile_formula(store, phi1)
        d2 = compile_formula(store, phi2)
        joined = obdd_apply("and", d1, d2)
        assert obdd_total_size(joined) <= obdd_total_size(d1) * obdd_total_size(d2)

    @given(formulas(max_vars=6))
    @settings(max_examples=40)
    def test_canonicity_two_fold_orders(self, phi):
        store = ObddStore(tuple(range(1, phi.num_vars + 1)))
        left = compile_formula(store, phi)
        acc = obdd_const(store, True)
        for clause in reversed(phi.clauses):
            acc = obdd_apply("and", obdd_from_clause(store, clause), acc)
        assert left.node == acc.node


class TestNegateRestrict:
    def test_negate_involution(self):
        store = ObddStore((1, 2, 3))
        d = compile_formula(store, MAJ)
        assert obdd_negate(obdd_negate(d)) == d

    def test_negate_mask(self):
        store = ObddStore((1, 2, 3))
        d = compile_formula(store, MAJ)
        assert obdd_truth_mask(obdd_negate(d), 3) == \
            full_mask(3) ^ obdd_truth_mask(d, 3)

    def test_majority_restrict_one(self):
        store = ObddStore((1, 2, 3))
        d = obdd_restrict(compile_formula(store, MAJ), {1: 1})
        clause = obdd_from_clause(store, (2, 3))
        assert d == clause
        assert obdd_size(d) == 2

    def test_restrict_unmentioned(self):
        store = ObddStore((1, 2, 3))
        d = obdd_from_clause(store, (1, 2))
        assert obdd_restrict(d, {3: 1}) == d

    def test_restrict_to_false(self):
        store = ObddStore((1, 2, 3))
        d = obdd_restrict(compile_formula(store, MAJ), {1: 0, 2: 0})
        assert obdd_is_unsat(d)


class TestCount:
    def test_majority(self):
        store = ObddStore((1, 2, 3))
        assert obdd_count(compile_formula(store, MAJ), {1, 2, 3}) == 4

    def test_true_sink(self):
        store = ObddStore((1, 2, 3))
        assert obdd_count(obdd_const(store, True), {1, 2, 3}) == 8

    def test_clause(self):
        store = ObddStore((1, 2, 3))
        d = obdd_from_clause(store, (1, 2))
        assert obdd_count(d, {1, 2}) == 3
        assert obdd_count(d, {1, 2, 3}) == 6

    def test_missing_support_rejected(self):
        store = ObddStore((1, 2))
        with pytest.raises(ObddError):
            obdd_count(obdd_from_clause(store, (1, 2)), {1})

    @given(formulas(max_vars=6))
    @settings(max_examples=60)
    def test_matches_brute_force(self, phi):
        store = ObddStore(tuple(range(1, phi.num_vars + 1)))
        d = compile_formula(store, phi)
        assert obdd_count(d, set(range(1, phi.num_vars + 1))) == \
            formula_mask(phi).bit_count()


class TestPredicates:
    def test_majority_entails_clause(self):
        store = ObddStore((1, 2, 3))
        maj = compile_formula(store, MAJ)
        assert obdd_entails(maj, obdd_from_clause(store, (1, 2)))

    def test_literal_entails_clause(self):
        store = ObddStore((1, 2))
        assert obdd_entails(obdd_from_clause(store, (1,)),
                            obdd_from_clause(store, (1, 2)))

    def test_clause_does_not_entail_literal(self):
        store = ObddStore((1, 2))
        assert not obdd_entails(obdd_from_clause(store, (1, 2)),
                                obdd_from_clause(store, (1,)))

    def test_equal_across_stores(self):
        s1, s2 = ObddStore((1, 2, 3)), ObddStore((1, 2, 3))
        assert obdd_equal(compile_formula(s1, MAJ), compile_formula(s2, MAJ))

    def test_equal_order_mismatch(self):
        s1, s2 = ObddStore((1, 2)), ObddStore((2, 1))
        with pytest.raises(ObddError):
            obdd_equal(obdd_literal(s1, 1), obdd_literal(s2, 1))


class TestMove:
    def test_majority_to_front(self):
        store = ObddStore((1, 2, 3))
        moved = obdd_move_var(compile_formula(store, MAJ), 3, 0)
        assert moved.store.order == (3, 1, 2)
        assert obdd_count(moved, {1, 2, 3}) == 4
        rebuilt = compile_formula(ObddStore((3, 1, 2)), MAJ)
        assert obdd_equal(moved, rebuilt)

    def test_move_to_same_position(self):
        store = ObddStore((1, 2))
        d = obdd_from_clause(store, (1, 2))
        moved = obdd_move_var(d, 1, 0)
        assert obdd_equal(moved, d)

    def test_swap_symmetric_clause(self):
        store = ObddStore((1, 2))
        moved = obdd_move_var(obdd_from_clause(store, (1, 2)), 1, 1)
        assert moved.store.order == (2, 1)
        assert obdd_size(moved) == 2

    @given(formulas(max_vars=6), st.integers(1, 6), st.integers(0, 5))
    @settings(max_examples=60)
    def test_preserves_function(self, phi, var, pos):
        var = 1 + (var - 1) % phi.num_vars
        pos = pos % phi.num_vars
        store = ObddStore(tuple(range(1, phi.num_vars + 1)))
        d = compile_formula(store, phi)
        moved = obdd_move_var(d, var, pos)
        assert obdd_truth_mask(moved, phi.num_vars) == \
            obdd_truth_mask(d, phi.num_vars)


class TestSerialization:
    def test_round_trip(self):
        store = ObddStore((1, 2, 3))
        d = compile_formula(store, MAJ)
        parsed = parse_obdd(obdd_to_text(d))
        assert parsed.store.order == (1, 2, 3)
        assert obdd_equal(parsed, d)

    def test_terminal_round_trip(self):
        store = ObddStore((1,))
        text = obdd_to_text(obdd_const(store, False))
        assert parse_obdd(text).node == ObddStore((1,)).FALSE

    def test_lines_shape(self):
        store = ObddStore((1, 2))
        lines = obdd_to_lines(obdd_from_clause(store, (1, 2)))
        assert lines[-1].startswith("root ")
        assert all(ln.split()[0] in ("n", "root") for ln in lines)

    def test_undefined_reference(self):
        store = ObddStore((1,))
        with pytest.raises(ObddError):
            obdd_from_lines(store, ["n 5 1 T 9", "root 5"])

    def test_reused_label(self):
        store = ObddStore((1, 2))
        with pytest.raises(ObddError):
            obdd_from_lines(store, ["n 5 2 T F", "n 5 1 T F", "root 5"])

    def test_missing_root(self):
        store = ObddStore((1,))
        with pytest.raises(ObddError):
            obdd_from_lines(store, ["n 5 1 T F"])

    def test_support_and_migration(self):
        store = ObddStore((1, 2, 3))
        d = obdd_from_clause(store, (1, 3))
        assert obdd_support(d) == {1, 3}
        bigger = ObddStore((1, 4, 3))
        moved = migrate(bigger, d)
        assert obdd_count(moved, {1, 3, 4}) == 6
        with pytest.raises(ObddError):
            migrate(ObddStore((3, 1)), d)
