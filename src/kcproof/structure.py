"""Variable orders, vtrees, and the single-leaf move restructuring step.

A vtree is a rooted full binary tree whose leaves carry distinct variables.
Nodes are addressed by root-to-node paths written as strings over {L, R}
(the empty string is the root; serialized as "-").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from .cnf import CnfFormula, TreeDecomposition, validate_decomposition, primal_graph

VarOrder = Tuple[int, ...]


class StructureError(Exception):
    pass


@dataclass(frozen=True, eq=False)
class Vtree:
    var: Optional[int]
    left: Optional["Vtree"] = None
    right: Optional["Vtree"] = None

    def __post_init__(self):
        if self.var is None:
            if self.left is None or self.right is None:
                raise StructureError("internal vtree node needs two children")
            if self.left.variables & self.right.variables:
                raise StructureError("vtree children share variables")
            variables = self.left.variables | self.right.variables
        else:
            if self.left is not None or self.right is not None:
                raise StructureError("leaf cannot have children")
            if self.var < 1:
                raise StructureError("leaf variable must be positive")
            variables = frozenset((self.var,))
        # a plain attribute, not a field, so == and hash see only the shape
        object.__setattr__(self, "_variables", variables)

    def __eq__(self, other):
        # an explicit stack of node pairs; a shared subtree is not walked
        if not isinstance(other, Vtree):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is not b:
                if a.var != b.var:
                    return False
                if a.var is None:
                    stack += ((a.right, b.right), (a.left, b.left))
        return True

    def __hash__(self):
        return hash(vtree_to_text(self))

    @property
    def is_leaf(self) -> bool:
        return self.var is not None

    @property
    def variables(self) -> FrozenSet[int]:
        return self._variables

    def leaves_in_order(self) -> List[int]:
        return [node.var for node in node_table(self).values() if node.is_leaf]


def vtree_leaf(var: int) -> Vtree:
    return Vtree(var)


def vtree_node(left: Vtree, right: Vtree) -> Vtree:
    return Vtree(None, left, right)


def right_linear_vtree(order: VarOrder) -> Vtree:
    if not order:
        raise StructureError("order must be nonempty")
    tree = vtree_leaf(order[-1])
    for var in reversed(order[:-1]):
        tree = vtree_node(vtree_leaf(var), tree)
    return tree


def right_linear_order(tree: Vtree) -> Optional[VarOrder]:
    """The variable order of a right-linear vtree, None for any other shape."""
    order = []
    while not tree.is_leaf:
        if not tree.left.is_leaf:
            return None
        order.append(tree.left.var)
        tree = tree.right
    order.append(tree.var)
    return tuple(order)


# ----------------------------------------------------------------- addressing

def resolve_path(tree: Vtree, path: str) -> Vtree:
    node = tree
    for step in path:
        if node.is_leaf:
            raise StructureError("path %r descends below a leaf" % path)
        if step == "L":
            node = node.left
        elif step == "R":
            node = node.right
        else:
            raise StructureError("bad path step %r" % step)
    return node


def path_to_text(path: str) -> str:
    return path if path else "-"


def parse_path(text: str) -> str:
    if text == "-":
        return ""
    if text.strip("LR"):
        raise StructureError("bad path %r" % text)
    return text


def path_of_var(tree: Vtree, var: int) -> Optional[str]:
    path = ""
    while tree.var is None and var in tree.variables:
        path += "L" if var in tree.left.variables else "R"
        tree = tree.left if path[-1] == "L" else tree.right
    return path if tree.var == var else None


# ----------------------------------------------------------------------- move

def _replace(tree: Vtree, path: str, subtree: Vtree) -> Vtree:
    """tree with the node at path replaced by subtree; only the nodes on
    the path above it are rebuilt."""
    spine = []
    for step in path:
        spine.append(tree)
        tree = tree.left if step == "L" else tree.right
    for node, step in zip(reversed(spine), reversed(path)):
        subtree = (vtree_node(subtree, node.right) if step == "L"
                   else vtree_node(node.left, subtree))
    return subtree


def remove_leaf(tree: Vtree, var: int) -> Vtree:
    """Delete the leaf of var; its parent is spliced out."""
    path = path_of_var(tree, var)
    if path is None:
        raise StructureError("variable %d not in vtree" % var)
    if not path:
        raise StructureError("cannot remove the only leaf")
    sibling = path[:-1] + ("R" if path[-1] == "L" else "L")
    return _replace(tree, path[:-1], resolve_path(tree, sibling))


def move(tree: Vtree, var: int, w_path: str, direction: str) -> Vtree:
    """Detach the leaf of var, then re-attach it beside the node addressed
    by w_path, as the left or right child of a fresh parent.

    w_path is resolved in the tree AFTER the leaf has been removed (the
    removal may splice out the old parent, so pre-removal addresses for the
    deleted parent are not representable and cannot be requested).
    """
    if direction not in ("l", "r"):
        raise StructureError("direction must be 'l' or 'r'")
    remainder = remove_leaf(tree, var)
    w = resolve_path(remainder, w_path)  # raises if invalid
    leaf = vtree_leaf(var)
    pair = vtree_node(leaf, w) if direction == "l" else vtree_node(w, leaf)
    return _replace(remainder, w_path, pair)


def order_move_of_vtree_move(tree: Vtree, var: int, w_path: str,
                             direction: str) -> Optional[VarOrder]:
    """If tree and move(tree, var, w_path, direction) are both right-linear,
    the move acts on the underlying order; return the new order, else None."""
    if right_linear_order(tree) is None:
        return None
    return right_linear_order(move(tree, var, w_path, direction))


# -------------------------------------------------------------- serialization

def vtree_to_text(tree: Vtree) -> str:
    parts, stack = [], [tree]  # nodes still to write, and the text between
    while stack:
        node = stack.pop()
        if type(node) is str:
            parts.append(node)
        elif node.var is None:
            parts.append("(")
            stack += (")", node.right, " ", node.left)
        else:
            parts.append("x%d" % node.var)
    return "".join(parts)


def parse_vtree(text: str) -> Vtree:
    tokens = iter(text.replace("(", " ( ").replace(")", " ) ").split())
    tree = _parse_node(tokens)
    if next(tokens, None) is not None:
        raise StructureError("trailing tokens in vtree text")
    return tree


def _parse_node(tokens) -> Vtree:
    """The vtree whose text starts at the token iterator, consumed."""
    tok = next(tokens, None)
    if tok is None:
        raise StructureError("unexpected end of vtree text")
    if tok == "(":
        left = _parse_node(tokens)
        right = _parse_node(tokens)
        if next(tokens, None) != ")":
            raise StructureError("expected ')' in vtree text")
        return vtree_node(left, right)
    if tok == ")":
        raise StructureError("unexpected ')' in vtree text")
    if not tok.startswith("x"):
        raise StructureError("bad leaf token %r" % tok)
    try:
        return vtree_leaf(int(tok[1:]))
    except ValueError:
        raise StructureError("bad leaf token %r" % tok)


def order_to_text(order: VarOrder) -> str:
    return " ".join("x%d" % v for v in order)


def parse_order(text: str) -> VarOrder:
    order: List[int] = []
    for tok in text.split():
        if not tok.startswith("x"):
            raise StructureError("bad order token %r" % tok)
        try:
            order.append(int(tok[1:]))
        except ValueError:
            raise StructureError("bad order token %r" % tok)
    if len(set(order)) != len(order):
        raise StructureError("order repeats a variable")
    if not order:
        raise StructureError("empty order")
    return tuple(order)


# ------------------------------------------- decomposition-derived vtrees

def vtree_from_decomposition(td: TreeDecomposition, phi: CnfFormula) -> Vtree:
    """One deterministic vtree realization for a tree decomposition of the
    primal graph: root the bag tree at bag 0, give every variable to the bag
    nearest the root that contains its vertex, and fold each bag's fresh
    leaves above its children's subtrees.
    """
    if not validate_decomposition(primal_graph(phi), td):
        raise StructureError("decomposition does not match the formula")
    n_bags = len(td.bags)
    adj: List[List[int]] = [[] for _ in range(n_bags)]
    for a, b in td.tree_edges:
        adj[a].append(b)
        adj[b].append(a)

    tree = _bag_vtree(td, adj, set(), 0, -1)
    if tree is None:
        raise StructureError("decomposition yields no variables")
    return tree


def _bag_vtree(td, adj, assigned, bag_id, parent) -> Optional[Vtree]:
    """The leaves of bag_id's variables not yet assigned, which it adds to
    assigned, folded above its child bags' subtrees, or None."""
    fresh = [v for v in td.bags[bag_id] if v not in assigned]
    assigned.update(fresh)
    pieces = [vtree_leaf(v + 1) for v in sorted(fresh)]
    for child in sorted(adj[bag_id]):
        if child != parent:
            sub = _bag_vtree(td, adj, assigned, child, bag_id)
            if sub is not None:
                pieces.append(sub)
    if not pieces:
        return None
    tree = pieces[-1]
    for piece in reversed(pieces[:-1]):
        tree = vtree_node(piece, tree)
    return tree


# --------------------------------------------------------------- path tables

def node_table(tree: Vtree) -> Dict[str, Vtree]:
    """All nodes keyed by path, in preorder."""
    table: Dict[str, Vtree] = {}
    stack = [("", tree)]
    while stack:
        path, node = stack.pop()
        table[path] = node
        if node.var is None:
            stack += ((path + "R", node.right), (path + "L", node.left))
    return table
