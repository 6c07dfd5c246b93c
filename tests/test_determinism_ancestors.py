"""The determinism check on circuits that need not be smooth.

On the proof path smoothness is validated first, so the determinism
check only meets or-gate children bound to the same vtree node.  `kcp
count` validates determinism alone, so there a child bound at an
ancestor of the other child's node is paired with it: the ancestor's
and-gate is split, and only the half on the other child's side is paired.
"""

import contextlib
import io
import itertools
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcproof import cli
from kcproof.dsdnnf import Circuit, validate_deterministic
from kcproof.structure import parse_vtree, vtree_leaf, vtree_node

TREE = parse_vtree("((x1 x2) x3)")


def kcp_count(directory, body):
    target = os.path.join(str(directory), "d.diag")
    with open(target, "w") as handle:
        handle.write("format dsdnnf\nvtree ((x1 x2) x3)\n" + body)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["count", target])
    return code, out.getvalue().strip(), err.getvalue().strip()


def test_an_exclusive_ancestor_pair_is_counted(tmp_path):
    # (x1 & x3) | ~x1: 2 + 4 models
    body = ("g 0 LIT 1\ng 1 LIT 3\ng 2 AND 0 1\ng 3 LIT -1\ng 4 OR 2 3\n"
            "root 4\n")
    assert kcp_count(tmp_path, body) == (0, "6", "")


def test_an_overlapping_ancestor_pair_is_not_deterministic(tmp_path):
    # (x1 & x3) | x1
    body = ("g 0 LIT 1\ng 1 LIT 3\ng 2 AND 0 1\ng 3 LIT 1\ng 4 OR 2 3\n"
            "root 4\n")
    assert kcp_count(tmp_path, body) \
        == (2, "", "error: circuit is not deterministic")


@pytest.mark.parametrize("first_is_and", [True, False])
@pytest.mark.parametrize("var, exclusive", [
    (-1, True), (1, False),    # the other child sits left of the split
    (-3, True), (3, False),    # and right of it
])
def test_each_ancestor_side(first_is_and, var, exclusive):
    c = Circuit()
    conj = c.add(("and", c.add(("lit", 1)), c.add(("lit", 3))))
    other = c.add(("lit", var))
    c.root = c.add(("or", conj, other) if first_is_and
                   else ("or", other, conj))
    assert validate_deterministic(c, TREE) is exclusive


# ------------------------------------------------ random structured circuits

@st.composite
def vtrees(draw, variables):
    if len(variables) == 1:
        return vtree_leaf(variables[0])
    split = draw(st.integers(1, len(variables) - 1))
    return vtree_node(draw(vtrees(variables[:split])),
                      draw(vtrees(variables[split:])))


@st.composite
def structured(draw, c, node):
    """A gate respecting the vtree below node, bound at node or below it.
    Or-gates pair gates bound at any nodes of this subtree, so a child is
    often bound at an ancestor of the other child's node."""
    if node.var is not None:
        kind = draw(st.sampled_from(["pos", "neg", "pos", "neg", "true",
                                     "false", "or"]))
    else:
        kind = draw(st.sampled_from(["left", "right", "and", "and", "or",
                                     "or", "true"]))
    if kind in ("true", "false"):
        return c.add((kind,))
    if kind in ("pos", "neg"):
        return c.add(("lit", node.var if kind == "pos" else -node.var))
    if kind == "left":
        return draw(structured(c, node.left))
    if kind == "right":
        return draw(structured(c, node.right))
    if kind == "and":
        left = draw(structured(c, node.left))
        right = draw(structured(c, node.right))
        # an and-gate with a child that mentions no variable is not split
        # by any node
        both = mentions(c, left) and mentions(c, right)
        return c.add(("and" if both else "or", left, right))
    first = draw(structured(c, node))
    return c.add(("or", first, draw(structured(c, node))))


def mentions(c, i):
    gate = c.gates[i]
    if gate[0] in ("and", "or"):
        return mentions(c, gate[1]) or mentions(c, gate[2])
    return gate[0] == "lit"


@st.composite
def trees_and_circuits(draw):
    n = draw(st.integers(1, 5))
    variables = draw(st.permutations(list(range(1, n + 1))))
    tree = draw(vtrees(variables))
    c = Circuit()
    c.root = draw(structured(c, tree))
    return tree, c, sorted(variables)


def models(c, gate, variables):
    def value(i, assignment):
        kind = c.gates[i]
        if kind[0] == "lit":
            return assignment[abs(kind[1])] == (kind[1] > 0)
        if kind[0] == "and":
            return value(kind[1], assignment) and value(kind[2], assignment)
        if kind[0] == "or":
            return value(kind[1], assignment) or value(kind[2], assignment)
        return kind[0] == "true"

    return {bits for bits in itertools.product((False, True),
                                                repeat=len(variables))
            if value(gate, dict(zip(variables, bits)))}


def reachable(c):
    seen, stack = set(), [c.root]
    while stack:
        i = stack.pop()
        if i not in seen:
            seen.add(i)
            stack.extend(c.gates[i][1:] if c.gates[i][0] in ("and", "or")
                         else ())
    return seen


@given(trees_and_circuits())
@settings(max_examples=300, deadline=None)
def test_agrees_with_brute_force_exclusivity(drawn):
    tree, c, variables = drawn
    exclusive = all(
        not models(c, c.gates[i][1], variables)
        & models(c, c.gates[i][2], variables)
        for i in reachable(c) if c.gates[i][0] == "or")
    assert validate_deterministic(c, tree) is exclusive
