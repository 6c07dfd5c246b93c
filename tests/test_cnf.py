import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcproof.cnf import (
    CnfError,
    CapExceeded,
    CnfFormula,
    cnf,
    mk_clause,
    mk_graph,
    parse_dimacs,
    primal_graph,
    to_dimacs,
    tree_decomposition,
    validate_decomposition,
)
from oracles import (all_models, brute_force_models, is_minimally_unsat,
                     kl_profile, restrict_cnf, restriction_map, var_mask)


# Independent oracle used to pin expected counts: evaluates clauses literally
# over every total assignment, no bit tricks.
def naive_count(phi):
    count = 0
    for bits in itertools.product([0, 1], repeat=phi.num_vars):
        value = {v: bits[v - 1] for v in range(1, phi.num_vars + 1)}
        ok = True
        for clause in phi.clauses:
            if not any(value[abs(l)] == (1 if l > 0 else 0) for l in clause):
                ok = False
                break
        if ok:
            count += 1
    return count


MAJORITY = cnf(3, [[1, 2], [1, 3], [2, 3]])


@st.composite
def formulas(draw, max_vars=7, max_clauses=8):
    n = draw(st.integers(1, max_vars))
    m = draw(st.integers(0, max_clauses))
    clauses = []
    for _ in range(m):
        support = draw(st.sets(st.integers(1, n), max_size=4))
        clauses.append([v if draw(st.booleans()) else -v for v in sorted(support)])
    return cnf(n, clauses)


@st.composite
def graphs(draw, max_vertices=8):
    n = draw(st.integers(1, max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.sets(st.sampled_from(pairs) if pairs else st.nothing()))
    return mk_graph(n, chosen)


class TestParse:
    def test_two_unit_clauses(self):
        phi = parse_dimacs("p cnf 1 2\n1 0\n-1 0\n")
        assert phi.num_vars == 1
        assert phi.clauses == ((1,), (-1,))

    def test_single_binary_clause(self):
        phi = parse_dimacs("p cnf 2 1\n1 2 0\n")
        assert phi.clauses == ((1, 2),)

    def test_tautology_rejected(self):
        with pytest.raises(CnfError):
            parse_dimacs("p cnf 1 1\n1 -1 0\n")

    def test_comments_and_multiline_clauses(self):
        phi = parse_dimacs("c a comment\np cnf 3 1\n1 2\n3 0\n")
        assert phi.clauses == ((1, 2, 3),)

    def test_bytes_input(self):
        phi = parse_dimacs(b"p cnf 1 1\n1 0\n")
        assert phi.clauses == ((1,),)

    def test_malformed_header(self):
        with pytest.raises(CnfError):
            parse_dimacs("p cnf x 1\n1 0\n")

    def test_literal_out_of_range(self):
        with pytest.raises(CnfError):
            parse_dimacs("p cnf 1 1\n2 0\n")

    def test_unterminated_clause(self):
        with pytest.raises(CnfError):
            parse_dimacs("p cnf 2 1\n1 2\n")

    def test_clause_count_mismatch(self):
        with pytest.raises(CnfError):
            parse_dimacs("p cnf 1 2\n1 0\n")

    def test_missing_header(self):
        with pytest.raises(CnfError):
            parse_dimacs("1 0\n")

    @given(formulas())
    def test_round_trip(self, phi):
        assert parse_dimacs(to_dimacs(phi)) == phi


class TestClause:
    def test_dedup(self):
        assert mk_clause([2, 1, 2]) == (1, 2)

    def test_sorted_by_variable(self):
        assert mk_clause([-3, 1]) == (1, -3)

    def test_tautology(self):
        with pytest.raises(CnfError):
            mk_clause([1, -1])

    def test_zero_literal(self):
        with pytest.raises(CnfError):
            mk_clause([0])

    def test_empty(self):
        assert mk_clause([]) == ()


class TestRestrict:
    def test_satisfied_clause_dropped(self):
        phi = cnf(2, [[1, 2]])
        assert restrict_cnf(phi, {1: 1}).clauses == ()

    def test_falsified_literal_deleted(self):
        phi = cnf(2, [[1, 2]])
        assert restrict_cnf(phi, {1: 0}).clauses == ((2,),)

    def test_empty_clause_survives(self):
        phi = cnf(1, [[1], [-1]])
        assert () in restrict_cnf(phi, {1: 0}).clauses

    def test_variable_space_unchanged(self):
        phi = cnf(3, [[1, 2]])
        assert restrict_cnf(phi, {1: 0}).num_vars == 3

    def test_map(self):
        phi = cnf(2, [[1], [2], [-1, 2]])
        assert restriction_map(phi, {1: 1}) == {0: None, 1: 0, 2: 1}

    def test_out_of_range_assignment(self):
        with pytest.raises(CnfError):
            restrict_cnf(cnf(1, [[1]]), {2: 0})

    @given(formulas(max_vars=6))
    def test_commutes(self, phi):
        a = {1: 1}
        b = {phi.num_vars: 0} if phi.num_vars > 1 else {}
        ab = dict(a)
        ab.update(b)
        one = restrict_cnf(restrict_cnf(phi, a), b)
        other = restrict_cnf(phi, ab)
        assert one == other


class TestBruteForce:
    def test_binary_clause(self):
        assert brute_force_models(cnf(2, [[1, 2]])) == 3

    def test_majority(self):
        assert brute_force_models(MAJORITY) == 4
        assert naive_count(MAJORITY) == 4

    def test_empty_formula(self):
        assert brute_force_models(cnf(2, [])) == 4

    def test_empty_clause(self):
        assert brute_force_models(cnf(2, [[]])) == 0

    def test_cap(self):
        with pytest.raises(CapExceeded):
            brute_force_models(cnf(25, []), cap=24)

    def test_all_models(self):
        rows = all_models(cnf(2, [[1]]))
        assert rows == [{1: 1, 2: 0}, {1: 1, 2: 1}]

    @given(formulas())
    @settings(max_examples=60)
    def test_matches_naive_oracle(self, phi):
        assert brute_force_models(phi) == naive_count(phi)

    @given(st.integers(1, 6), st.integers(0, 63))
    def test_var_mask_bits(self, var, row):
        mask = var_mask(var, 6)
        assert (mask >> row) & 1 == (row >> (var - 1)) & 1


class TestMinimallyUnsat:
    def test_contradiction(self):
        assert is_minimally_unsat(cnf(1, [[1], [-1]]))

    def test_removable_clause(self):
        assert not is_minimally_unsat(cnf(2, [[1], [-1], [1, 2]]))

    def test_satisfiable(self):
        assert not is_minimally_unsat(cnf(1, [[1]]))

    def test_empty_formula(self):
        assert not is_minimally_unsat(cnf(1, []))

    def test_duplicate_contradiction(self):
        # deleting one copy leaves the other, so not minimal
        assert not is_minimally_unsat(cnf(1, [[1], [1], [-1]]))


class TestProfile:
    def test_binary_clause(self):
        assert kl_profile(cnf(2, [[1, 2]])) == (2, 1)

    def test_contradiction(self):
        assert kl_profile(cnf(1, [[1], [-1]])) == (1, 2)

    def test_empty(self):
        assert kl_profile(cnf(1, [])) == (0, 0)


class TestPrimalGraph:
    def test_single_edge(self):
        g = primal_graph(cnf(2, [[1, 2]]))
        assert g.edges == ((0, 1),)

    def test_path(self):
        g = primal_graph(cnf(3, [[1, 2], [2, 3]]))
        assert g.edges == ((0, 1), (1, 2))

    def test_wide_clause(self):
        g = primal_graph(cnf(3, [[1, 2, 3]]))
        assert g.edges == ((0, 1), (0, 2), (1, 2))


class TestTreeDecomposition:
    def test_single_edge(self):
        g = mk_graph(2, [(0, 1)])
        td = tree_decomposition(g)
        assert td.bags == ((0, 1),)
        assert td.width == 1
        assert validate_decomposition(g, td)

    def test_path(self):
        g = mk_graph(3, [(0, 1), (1, 2)])
        td = tree_decomposition(g)
        assert td.width == 1
        assert validate_decomposition(g, td)

    def test_triangle(self):
        g = mk_graph(3, [(0, 1), (0, 2), (1, 2)])
        td = tree_decomposition(g)
        assert td.bags == ((0, 1, 2),)
        assert td.width == 2
        assert validate_decomposition(g, td)

    def test_isolated_vertices(self):
        g = mk_graph(3, [])
        td = tree_decomposition(g)
        assert validate_decomposition(g, td)
        assert td.width == 0

    def test_deterministic(self):
        g = mk_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
        assert tree_decomposition(g) == tree_decomposition(g)

    @given(graphs())
    @settings(max_examples=60)
    def test_always_valid(self, g):
        assert validate_decomposition(g, tree_decomposition(g))

    def test_validator_rejects_missing_edge_coverage(self):
        g = mk_graph(2, [(0, 1)])
        from kcproof.cnf import TreeDecomposition
        bad = TreeDecomposition(((0,), (1,)), ((0, 1),))
        assert not validate_decomposition(g, bad)
