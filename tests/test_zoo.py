import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcproof.cnf import (
    all_models,
    brute_force_models,
    cnf,
    formula_mask,
    is_minimally_unsat,
    kl_profile,
    mk_graph,
    restrict_cnf,
)
from kcproof.zoo import (
    ZooError,
    binary_code,
    complete_binary_tree,
    eq_formula,
    graph_product,
    grid_family,
    lift_C,
    lift_Z,
    path,
    perm_formula,
    random_regular,
    selector_width,
    seq_formula,
    tseitin,
    vc_formula,
)

PHI0 = cnf(1, [[1], [-1]])
MAJ = cnf(3, [[1, 2], [1, 3], [2, 3]])
TRIANGLE = mk_graph(3, [(0, 1), (0, 2), (1, 2)])


class TestLiftZ:
    def test_phi0_exact_clauses(self):
        lifted = lift_Z(PHI0)
        assert lifted.result.num_vars == 6
        assert lifted.result.clauses == (
            (1, 2), (-1, 3),
            (-1, -4, 5), (-2, -4, 5),
            (1, -5, 6), (-3, -5, 6),
            (4,), (-6,),
        )
        assert lifted.roles == {1: "x1", 2: "y1", 3: "y2",
                                4: "z1", 5: "z2", 6: "z3"}

    def test_single_clause(self):
        lifted = lift_Z(cnf(2, [[1, 2]]))
        assert lifted.result.num_clauses == 6
        assert formula_mask(lifted.result) == 0

    def test_random_3cnf_count(self):
        phi = cnf(4, [[1, 2, 3], [-1, 2, 4], [1, -3, -4], [2, 3, 4], [-2, -3, -4]])
        lifted = lift_Z(phi)
        assert lifted.result.num_clauses == 5 + 5 * 4 + 2
        assert lifted.result.num_vars == 4 + 5 + 6

    def test_empty_rejected(self):
        with pytest.raises(ZooError):
            lift_Z(cnf(3, []))

    def test_roles_total(self):
        lifted = lift_Z(MAJ)
        assert set(lifted.roles) == set(range(1, lifted.result.num_vars + 1))

    @given(st.integers(1, 3), st.data())
    @settings(max_examples=25, deadline=None)
    def test_minimally_unsatisfiable(self, n, data):
        m = data.draw(st.integers(1, min(4, (12 - n - 1) // 2)))
        clauses = []
        for _ in range(m):
            support = data.draw(st.sets(st.integers(1, n), min_size=1, max_size=2))
            clauses.append([v if data.draw(st.booleans()) else -v
                            for v in sorted(support)])
        lifted = lift_Z(cnf(n, clauses))
        assert lifted.result.num_vars <= 12
        assert is_minimally_unsat(lifted.result)


class TestLiftC:
    def test_phi0(self):
        result = lift_C(PHI0)
        assert result.clauses == ((1, 2), (-1, 3))
        assert result.num_vars == 3
        # x1=0 forces y1, x1=1 forces y2; the other control is free
        assert brute_force_models(result) == 4

    def test_empty_clause_input(self):
        result = lift_C(cnf(0, [[]]))
        assert result.clauses == ((1,),)

    def test_vc_k2(self):
        result = lift_C(vc_formula(mk_graph(2, [(0, 1)])))
        assert result.clauses == ((1, 2, 3),)

    def test_always_satisfiable(self):
        result = lift_C(MAJ)
        assert formula_mask(result) != 0


class TestGraphs:
    def test_k2_square(self):
        k2 = mk_graph(2, [(0, 1)])
        product = graph_product(k2, k2)
        assert product.n_vertices == 4
        assert len(product.edges) == 4

    def test_grid_1_1(self):
        g = grid_family(1, 1)
        assert g.n_vertices == 6
        assert len(g.edges) == 7

    def test_product_with_single_vertex(self):
        single = mk_graph(1, [])
        assert graph_product(TRIANGLE, single) == TRIANGLE

    def test_tree_shape(self):
        t2 = complete_binary_tree(2)
        assert t2.n_vertices == 7
        assert len(t2.edges) == 6

    def test_path_shape(self):
        p3 = path(3)
        assert p3.n_vertices == 4
        assert p3.edges == ((0, 1), (1, 2), (2, 3))

    def test_bad_parameters(self):
        with pytest.raises(ZooError):
            complete_binary_tree(0)
        with pytest.raises(ZooError):
            path(0)

    @given(st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=15, deadline=None)
    def test_product_edge_count(self, h, length):
        g = complete_binary_tree(h)
        p = path(length)
        product = graph_product(g, p)
        assert product.n_vertices == g.n_vertices * p.n_vertices
        assert len(product.edges) == \
            g.n_vertices * len(p.edges) + len(g.edges) * p.n_vertices


class TestVertexCover:
    def test_k2(self):
        phi = vc_formula(mk_graph(2, [(0, 1)]))
        assert phi.clauses == ((1, 2),)
        assert brute_force_models(phi) == 3

    def test_triangle_covers(self):
        assert brute_force_models(vc_formula(TRIANGLE)) == 4

    def test_grid_profile(self):
        for h, length in ((1, 1), (2, 2), (1, 3)):
            k, occurrences = kl_profile(vc_formula(grid_family(h, length)))
            assert k == 2
            assert occurrences <= 5


class TestRegularAndExpansion:
    def test_deterministic(self):
        assert random_regular(8, 3, seed=1) == random_regular(8, 3, seed=1)

    def test_degrees(self):
        g = random_regular(10, 3, seed=7)
        degrees = [0] * 10
        for (u, v) in g.edges:
            degrees[u] += 1
            degrees[v] += 1
        assert degrees == [3] * 10

    def test_odd_product_rejected(self):
        with pytest.raises(ZooError):
            random_regular(5, 3, seed=0)



class TestTseitin:
    def test_triangle_odd_charge(self):
        phi = tseitin(TRIANGLE, (1, 0, 0))
        assert phi.num_clauses == 6
        assert phi.num_vars == 3
        assert formula_mask(phi) == 0

    def test_triangle_even_charge(self):
        phi = tseitin(TRIANGLE, (0, 0, 0))
        assert brute_force_models(phi) == 2

    def test_single_edge_dedup(self):
        phi = tseitin(mk_graph(2, [(0, 1)]), (1, 1))
        assert phi.clauses == ((1,),)

    def test_degree_cap(self):
        star = mk_graph(8, [(0, i) for i in range(1, 8)])
        with pytest.raises(ZooError):
            tseitin(star, (0,) * 8)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_parity_criterion(self, data):
        graph = data.draw(st.sampled_from(
            [path(3), complete_binary_tree(2), TRIANGLE]))
        charges = tuple(data.draw(st.integers(0, 1))
                        for _ in range(graph.n_vertices))
        phi = tseitin(graph, charges)
        satisfiable = formula_mask(phi) != 0
        assert satisfiable == (sum(charges) % 2 == 0)


class TestEq:
    def test_eq2_0(self):
        phi = eq_formula(2, 0)
        assert phi.num_clauses == 4
        assert phi.num_vars == 4
        assert brute_force_models(phi) == 4

    def test_eq2_1_models(self):
        phi = eq_formula(2, 1)
        models = all_models(phi)
        assert len(models) == 4
        for model in models:
            assert model[1] == model[4]  # x0 paired with y1
            assert model[2] == model[3]  # x1 paired with y0

    def test_var_sets_shift_invariant(self):
        assert eq_formula(4, 0).num_vars == eq_formula(4, 3).num_vars == 8

    def test_count_power(self):
        for n in (2, 4):
            assert brute_force_models(eq_formula(n, 1)) == 2 ** n

    def test_bad_parameters(self):
        with pytest.raises(ZooError):
            eq_formula(3, 0)
        with pytest.raises(ZooError):
            eq_formula(4, 4)


class TestPerm:
    def test_identity_single(self):
        result = perm_formula(MAJ, [{}], [(0,)])
        assert result.num_clauses == MAJ.num_clauses + 1
        assert result.num_vars == 4
        assert result.clauses[-1] == (-4,)

    def test_two_shifts_full_codes(self):
        phi = eq_formula(2, 0)
        shift = {3: 4, 4: 3}
        result = perm_formula(phi, [{}, shift], [(0,), (1,)])
        assert result.num_clauses == 2 * phi.num_clauses

    def test_three_of_four_codes(self):
        result = perm_formula(MAJ, [{}, {}, {}], [(0, 0), (0, 1), (1, 0)])
        guard_only = [cl for cl in result.clauses if len(cl) == 2
                      and all(abs(l) > 3 for l in cl)]
        assert guard_only == [(-4, -5)]
        assert result.num_clauses == 3 * MAJ.num_clauses + 1

    def test_injectivity_enforced(self):
        with pytest.raises(ZooError):
            perm_formula(MAJ, [{}, {}], [(0,), (0,)])

    def test_non_bijection_rejected(self):
        with pytest.raises(ZooError):
            perm_formula(MAJ, [{1: 2}], [(0,)])

    def test_code_width_enforced(self):
        with pytest.raises(ZooError):
            perm_formula(MAJ, [{}], [(0, 0)])


class TestSeq:
    def test_seq2_shape(self):
        phi = seq_formula(2)
        assert phi.num_clauses == 36
        assert phi.num_vars == 14
        assert formula_mask(phi) == 0

    def test_seq2_selector_restrictions(self):
        phi = seq_formula(2)
        for shift, bit in ((0, 0), (1, 1)):
            restricted = restrict_cnf(phi, {14: bit})
            projected = cnf(13, restricted.clauses)
            target = lift_Z(eq_formula(2, shift)).result
            assert formula_mask(projected) == formula_mask(target)

    def test_seq4_selector_width(self):
        phi = seq_formula(4)
        base = lift_Z(eq_formula(4, 0)).result
        assert phi.num_vars == base.num_vars + 2
        assert selector_width(4) == 2

    def test_binary_code(self):
        assert binary_code(2, 2) == (1, 0)
        assert binary_code(0, 1) == (0,)
        with pytest.raises(ZooError):
            binary_code(4, 2)
