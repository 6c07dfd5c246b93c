import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcproof.cnf import cnf, primal_graph, tree_decomposition
from kcproof.structure import (
    StructureError,
    move,
    node_table,
    order_move_of_vtree_move,
    order_to_text,
    parse_order,
    parse_path,
    parse_vtree,
    path_of_var,
    path_to_text,
    remove_leaf,
    resolve_path,
    right_linear_order,
    right_linear_vtree,
    vtree_from_decomposition,
    vtree_leaf,
    vtree_node,
    vtree_to_text,
)
from oracles import single_variable_move, validate_vtree


class TestRightLinear:
    def test_single(self):
        assert vtree_to_text(right_linear_vtree((1,))) == "x1"

    def test_pair(self):
        assert vtree_to_text(right_linear_vtree((1, 2))) == "(x1 x2)"

    def test_triple(self):
        assert vtree_to_text(right_linear_vtree((1, 2, 3))) == "(x1 (x2 x3))"

    def test_order_round_trip(self):
        assert right_linear_order(right_linear_vtree((3, 1, 2))) == (3, 1, 2)

    def test_not_right_linear(self):
        t = vtree_node(vtree_node(vtree_leaf(1), vtree_leaf(2)), vtree_leaf(3))
        assert right_linear_order(t) is None

    @given(st.permutations(list(range(1, 7))))
    def test_leaf_sequence_is_the_order(self, perm):
        order = tuple(perm)
        assert tuple(right_linear_vtree(order).leaves_in_order()) == order


class TestValidate:
    def test_accepts(self):
        assert validate_vtree(right_linear_vtree((1, 2, 3)), {1, 2, 3})

    def test_wrong_variable_set(self):
        assert not validate_vtree(right_linear_vtree((1, 2, 3)), {1, 2})

    def test_duplicate_leaf_rejected_at_construction(self):
        with pytest.raises(StructureError):
            vtree_node(vtree_leaf(1), vtree_leaf(1))


class TestSerialization:
    def test_example_format(self):
        text = "(x1 ((x2 x3) x4))"
        assert vtree_to_text(parse_vtree(text)) == text

    def test_parse_errors(self):
        for bad in ["", "(x1", "x1)", "(x1 x2 x3)", "(y1 x2)", "(x1 x2) x3"]:
            with pytest.raises(StructureError):
                parse_vtree(bad)

    def test_order_round_trip(self):
        assert parse_order("x3 x1 x2") == (3, 1, 2)
        assert order_to_text((3, 1, 2)) == "x3 x1 x2"

    def test_order_repeat_rejected(self):
        with pytest.raises(StructureError):
            parse_order("x1 x1")

    def test_path_round_trip(self):
        assert parse_path("-") == ""
        assert path_to_text("") == "-"
        assert parse_path("LRL") == "LRL"
        with pytest.raises(StructureError):
            parse_path("LQ")


class TestPaths:
    def test_resolve(self):
        t = parse_vtree("(x1 ((x2 x3) x4))")
        assert resolve_path(t, "RL").variables == frozenset({2, 3})
        assert resolve_path(t, "").variables == frozenset({1, 2, 3, 4})

    def test_resolve_below_leaf(self):
        with pytest.raises(StructureError):
            resolve_path(parse_vtree("(x1 x2)"), "LL")

    def test_path_of_var(self):
        t = parse_vtree("(x1 ((x2 x3) x4))")
        assert path_of_var(t, 3) == "RLR"
        assert path_of_var(t, 9) is None

    def test_node_table(self):
        t = parse_vtree("(x1 x2)")
        table = node_table(t)
        assert set(table) == {"", "L", "R"}


class TestMove:
    def test_figure_shape(self):
        # detach x6 and lower it beside the (x1 x2) block as a right child
        t = parse_vtree("((x1 x2) ((x3 x4) (x5 x6)))")
        moved = move(t, 6, "L", "r")
        assert vtree_to_text(moved) == "(((x1 x2) x6) ((x3 x4) x5))"

    def test_two_leaf_swap(self):
        # after removal the remainder is the single leaf x2, addressed by "-"
        t = parse_vtree("(x1 x2)")
        assert vtree_to_text(move(t, 1, "", "l")) == "(x1 x2)"
        assert vtree_to_text(move(t, 1, "", "r")) == "(x2 x1)"

    def test_right_linear_reinsertion(self):
        t = right_linear_vtree((1, 2, 3))
        moved = move(t, 1, "R", "l")
        assert vtree_to_text(moved) == "(x2 (x1 x3))"
        assert right_linear_order(moved) == (2, 1, 3)

    def test_remove_leaf_splices_parent(self):
        t = parse_vtree("(x1 (x2 x3))")
        assert vtree_to_text(remove_leaf(t, 2)) == "(x1 x3)"
        assert vtree_to_text(remove_leaf(t, 1)) == "(x2 x3)"

    def test_move_missing_variable(self):
        with pytest.raises(StructureError):
            move(parse_vtree("(x1 x2)"), 9, "", "l")

    def test_move_invalid_path(self):
        with pytest.raises(StructureError):
            move(parse_vtree("(x1 x2)"), 1, "RR", "l")

    def test_move_single_leaf(self):
        with pytest.raises(StructureError):
            move(vtree_leaf(1), 1, "", "l")

    @given(st.permutations(list(range(1, 7))), st.integers(1, 6),
           st.integers(0, 20), st.booleans())
    @settings(max_examples=80)
    def test_move_preserves_leaf_set(self, perm, var, path_seed, to_left):
        tree = right_linear_vtree(tuple(perm))
        remainder = remove_leaf(tree, var)
        # pick a valid path in the remainder deterministically from the seed
        paths = sorted(node_table(remainder))
        path = paths[path_seed % len(paths)]
        moved = move(tree, var, path, "l" if to_left else "r")
        assert moved.variables == tree.variables
        # the fresh parent of var has the addressed subtree as its other child
        leaf_path = path_of_var(moved, var)
        parent = resolve_path(moved, leaf_path[:-1])
        other = parent.right if leaf_path[-1] == "L" else parent.left
        assert other == resolve_path(remainder, path)


class TestSingleVariableMove:
    def test_to_front(self):
        assert single_variable_move((1, 2, 3), 3, 0) == (3, 1, 2)

    def test_pair(self):
        assert single_variable_move((1, 2), 1, 1) == (2, 1)

    def test_to_back(self):
        assert single_variable_move((1, 2, 3, 4), 2, 3) == (1, 3, 4, 2)

    def test_missing(self):
        with pytest.raises(StructureError):
            single_variable_move((1, 2), 3, 0)

    @given(st.permutations(list(range(1, 8))))
    def test_can_sort_any_permutation(self, perm):
        order = tuple(perm)
        for target, var in enumerate(sorted(order)):
            order = single_variable_move(order, var, target)
        assert order == tuple(sorted(perm))

    def test_matches_vtree_move(self):
        t = right_linear_vtree((1, 2, 3))
        assert order_move_of_vtree_move(t, 1, "R", "l") == (2, 1, 3)
        assert order_move_of_vtree_move(t, 1, "R", "l") == \
            single_variable_move((1, 2, 3), 1, 1)


class TestDecompositionVtree:
    def test_single_clause(self):
        phi = cnf(2, [[1, 2]])
        td = tree_decomposition(primal_graph(phi))
        assert vtree_to_text(vtree_from_decomposition(td, phi)) == "(x1 x2)"

    def test_path_formula_separates_ends(self):
        phi = cnf(3, [[1, 2], [2, 3]])
        tree = vtree_from_decomposition(tree_decomposition(primal_graph(phi)), phi)
        assert validate_vtree(tree, {1, 2, 3})
        # some node splits x1 from x3
        table = node_table(tree)
        assert any(
            not node.is_leaf
            and ((1 in node.left.variables) != (3 in node.left.variables))
            for node in table.values())

    def test_covers_all_variables(self):
        phi = cnf(5, [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]])
        tree = vtree_from_decomposition(tree_decomposition(primal_graph(phi)), phi)
        assert validate_vtree(tree, {1, 2, 3, 4, 5})

    def test_deterministic(self):
        phi = cnf(4, [[1, 2, 3], [2, 3, 4]])
        td = tree_decomposition(primal_graph(phi))
        assert vtree_from_decomposition(td, phi) == vtree_from_decomposition(td, phi)

    def test_mismatched_decomposition_rejected(self):
        phi = cnf(2, [[1, 2]])
        other = cnf(3, [[1, 2], [2, 3]])
        td = tree_decomposition(primal_graph(other))
        with pytest.raises(StructureError):
            vtree_from_decomposition(td, phi)
