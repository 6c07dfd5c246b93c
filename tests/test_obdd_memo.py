"""The OBDD store's two memo tables.

`ObddStore.cache` keeps whole-operation results for the store's life;
`ObddStore.memo` holds the steps of the one operation running now and is
empty between operations.  A step recomputed in a later operation only
meets nodes that already exist, so how long the cache lives never moves a
node id: that is what keeps every pinned proof SHA-256.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcproof.obdd import ObddRef, ObddStore, obdd_from_clause
from oracles import full_mask, obdd_negate, obdd_truth_mask, var_mask


@st.composite
def folds(draw):
    """An order, clauses over it, and a script of top-level operations.

    Each step is ("and" | "or", i, j) on two earlier results or
    ("not", i); results start with the clause diagrams, and the first
    steps fold the clauses left to right, as a refutation's joins do.
    """
    num_vars = draw(st.integers(1, 6))
    order = tuple(draw(st.permutations(range(1, num_vars + 1))))
    literal = st.integers(1, num_vars).flatmap(
        lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=4),
                            min_size=1, max_size=8))
    steps = [("and", 0, 1)] if len(clauses) > 1 else []
    for k in range(2, len(clauses)):
        steps.append(("and", len(clauses) + k - 2, k))
    for _ in range(draw(st.integers(0, 10))):
        size = len(clauses) + len(steps)
        op = draw(st.sampled_from(("and", "or", "not")))
        i = draw(st.integers(0, size - 1))
        if op == "not":
            steps.append((op, i))
        else:
            steps.append((op, i, draw(st.integers(0, size - 1))))
    return num_vars, order, clauses, steps


def clause_mask(clause, num_vars):
    ones = full_mask(num_vars)
    mask = 0
    for lit in clause:
        vm = var_mask(abs(lit), num_vars)
        mask |= vm if lit > 0 else ones ^ vm
    return mask


def run(store, clauses, steps, between=None):
    """Replay the script; returns the result ids, calling between() after
    every top-level operation."""
    ids = [obdd_from_clause(store, clause).node for clause in clauses]
    for step in steps:
        if step[0] == "not":
            ids.append(obdd_negate(ObddRef(store, ids[step[1]])).node)
        else:
            ids.append(store.apply(step[0], ids[step[1]], ids[step[2]]))
        if between is not None:
            between()
    return ids


@settings(max_examples=200, deadline=None)
@given(folds())
def test_node_table_does_not_depend_on_the_cache_lifetime(case):
    num_vars, order, clauses, steps = case
    kept = ObddStore(order)
    cleared = ObddStore(order)
    assert run(kept, clauses, steps) == \
        run(cleared, clauses, steps, cleared.cache.clear)
    assert kept.nodes == cleared.nodes
    assert kept.levels == cleared.levels


@settings(max_examples=200, deadline=None)
@given(folds())
def test_memo_is_empty_between_operations(case):
    num_vars, order, clauses, steps = case
    store = ObddStore(order)
    operations = [0]

    def between():
        operations[0] += 1
        assert store.memo == {}
        assert len(store.cache) <= operations[0]

    run(store, clauses, steps, between)


@settings(max_examples=200, deadline=None)
@given(folds())
def test_truth_masks_match_brute_force(case):
    num_vars, order, clauses, steps = case
    store = ObddStore(order)
    ids = run(store, clauses, steps)
    ones = full_mask(num_vars)
    masks = [clause_mask(clause, num_vars) for clause in clauses]
    for step in steps:
        if step[0] == "not":
            masks.append(ones ^ masks[step[1]])
        elif step[0] == "and":
            masks.append(masks[step[1]] & masks[step[2]])
        else:
            masks.append(masks[step[1]] | masks[step[2]])
    assert [obdd_truth_mask(ObddRef(store, u), num_vars) for u in ids] \
        == masks


def test_a_repeated_operation_is_one_cache_hit():
    store = ObddStore((1, 2, 3))
    a = obdd_from_clause(store, (1, 2)).node
    b = obdd_from_clause(store, (-2, 3)).node
    result = store.apply("and", a, b)
    nodes = len(store.nodes)
    assert store.cache == {("and", min(a, b), max(a, b)): result}
    assert store.apply("and", b, a) == result
    assert len(store.nodes) == nodes and len(store.cache) == 1


def test_a_failed_operation_leaves_the_memo_empty():
    store = ObddStore((1, 2))
    x2 = store.mk(2, store.FALSE, store.TRUE)
    not_x2 = store.mk(2, store.TRUE, store.FALSE)
    a = store.mk(1, x2, store.TRUE)
    # the lo step succeeds and is memoised, then the hi step reaches an
    # id the store does not hold
    store.nodes[a] = (1, x2, len(store.nodes) + 5)
    with pytest.raises(IndexError):
        store.apply("and", a, not_x2)
    assert store.memo == {}
    assert store.cache == {}
