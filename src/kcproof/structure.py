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


@dataclass(frozen=True)
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

    @property
    def is_leaf(self) -> bool:
        return self.var is not None

    @property
    def variables(self) -> FrozenSet[int]:
        return self._variables

    def leaves_in_order(self) -> List[int]:
        if self.is_leaf:
            return [self.var]
        return self.left.leaves_in_order() + self.right.leaves_in_order()


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


def is_right_linear(tree: Vtree) -> bool:
    while not tree.is_leaf:
        if not tree.left.is_leaf:
            return False
        tree = tree.right
    return True


def right_linear_order(tree: Vtree) -> Optional[VarOrder]:
    """The variable order of a right-linear vtree, None for any other shape."""
    if not is_right_linear(tree):
        return None
    return tuple(tree.leaves_in_order())


def validate_vtree(tree: Vtree, variables) -> bool:
    # full binary shape and leaf disjointness are enforced by the constructor;
    # what remains is the bijection onto the requested variable set
    return tree.variables == frozenset(variables)


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
    if any(step not in "LR" for step in text):
        raise StructureError("bad path %r" % text)
    return text


def path_of_var(tree: Vtree, var: int) -> Optional[str]:
    if tree.is_leaf:
        return "" if tree.var == var else None
    if var in tree.left.variables:
        return "L" + path_of_var(tree.left, var)
    if var in tree.right.variables:
        return "R" + path_of_var(tree.right, var)
    return None


# ----------------------------------------------------------------------- move

def remove_leaf(tree: Vtree, var: int) -> Vtree:
    """Delete the leaf of var; its parent is spliced out."""
    if var not in tree.variables:
        raise StructureError("variable %d not in vtree" % var)
    if tree.is_leaf:
        raise StructureError("cannot remove the only leaf")

    def walk(node: Vtree) -> Vtree:
        if node.left.is_leaf and node.left.var == var:
            return node.right
        if node.right.is_leaf and node.right.var == var:
            return node.left
        if var in node.left.variables:
            return vtree_node(walk(node.left), node.right)
        return vtree_node(node.left, walk(node.right))

    return walk(tree)


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
    resolve_path(remainder, w_path)  # raises if invalid
    leaf = vtree_leaf(var)

    def rebuild(node: Vtree, path: str) -> Vtree:
        if not path:
            if direction == "l":
                return vtree_node(leaf, node)
            return vtree_node(node, leaf)
        if path[0] == "L":
            return vtree_node(rebuild(node.left, path[1:]), node.right)
        return vtree_node(node.left, rebuild(node.right, path[1:]))

    return rebuild(remainder, w_path)


def single_variable_move(order: VarOrder, var: int, pos: int) -> VarOrder:
    """Remove var from the order and reinsert it at index pos."""
    if var not in order:
        raise StructureError("variable %d not in order" % var)
    rest = [v for v in order if v != var]
    if not (0 <= pos <= len(rest)):
        raise StructureError("position %d out of range" % pos)
    rest.insert(pos, var)
    return tuple(rest)


def order_move_of_vtree_move(tree: Vtree, var: int, w_path: str,
                             direction: str) -> Optional[VarOrder]:
    """If tree and move(tree, var, w_path, direction) are both right-linear,
    the move acts on the underlying order; return the new order, else None."""
    if right_linear_order(tree) is None:
        return None
    return right_linear_order(move(tree, var, w_path, direction))


# -------------------------------------------------------------- serialization

def vtree_to_text(tree: Vtree) -> str:
    def fmt(node: Vtree) -> str:
        if node.is_leaf:
            return "x%d" % node.var
        return "(%s %s)" % (fmt(node.left), fmt(node.right))
    return fmt(tree)


def parse_vtree(text: str) -> Vtree:
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def parse_node() -> Vtree:
        nonlocal pos
        if pos >= len(tokens):
            raise StructureError("unexpected end of vtree text")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            left = parse_node()
            right = parse_node()
            if pos >= len(tokens) or tokens[pos] != ")":
                raise StructureError("expected ')' in vtree text")
            pos += 1
            return vtree_node(left, right)
        if tok == ")":
            raise StructureError("unexpected ')' in vtree text")
        if not tok.startswith("x"):
            raise StructureError("bad leaf token %r" % tok)
        try:
            return vtree_leaf(int(tok[1:]))
        except ValueError:
            raise StructureError("bad leaf token %r" % tok)

    tree = parse_node()
    if pos != len(tokens):
        raise StructureError("trailing tokens in vtree text")
    return tree


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

    assigned = set()

    def build(bag_id: int, parent: int) -> Optional[Vtree]:
        fresh = [v for v in td.bags[bag_id] if v not in assigned]
        assigned.update(fresh)
        pieces = [vtree_leaf(v + 1) for v in sorted(fresh)]
        for child in sorted(adj[bag_id]):
            if child != parent:
                sub = build(child, bag_id)
                if sub is not None:
                    pieces.append(sub)
        if not pieces:
            return None
        tree = pieces[-1]
        for piece in reversed(pieces[:-1]):
            tree = vtree_node(piece, tree)
        return tree

    tree = build(0, -1)
    if tree is None:
        raise StructureError("decomposition yields no variables")
    return tree


# --------------------------------------------------------------- path tables

def node_table(tree: Vtree) -> Dict[str, Vtree]:
    """All nodes keyed by path, in preorder."""
    table: Dict[str, Vtree] = {}

    def walk(node: Vtree, path: str):
        table[path] = node
        if not node.is_leaf:
            walk(node.left, path + "L")
            walk(node.right, path + "R")

    walk(tree, "")
    return table
