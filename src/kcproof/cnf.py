"""CNF formulas: DIMACS I/O, primal graphs, and min-fill tree
decompositions.

Variables are the positive integers 1..n (DIMACS convention); a literal is a
nonzero integer whose sign is its polarity.  Graph vertices are 0-based; the
bijection between graph vertices and formula variables is v <-> v + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

Clause = Tuple[int, ...]

DEFAULT_CHECK_CAP = 10 ** 7  # gate pairs a proof check tests at most


class CnfError(Exception):
    """Malformed formula, clause, or DIMACS input."""


class CapExceeded(CnfError):
    """More work than a cap allows: assignments to enumerate, gate pairs
    to test for determinism, or variables of an extracted representation."""


def mk_clause(literals: Iterable[int]) -> Clause:
    """Normalize literals into a clause: deduplicate, sort by variable index.

    Raises CnfError for a zero literal or for a clause containing a variable
    both positively and negatively (such clauses are not representable).
    """
    seen = {}
    for lit in literals:
        if lit == 0:
            raise CnfError("literal 0 is not allowed inside a clause")
        var = abs(lit)
        if var in seen:
            if seen[var] != lit:
                raise CnfError("tautological clause: %d and %d" % (seen[var], lit))
        else:
            seen[var] = lit
    return tuple(seen[v] for v in sorted(seen))


@dataclass(frozen=True)
class CnfFormula:
    num_vars: int
    clauses: Tuple[Clause, ...]

    def __post_init__(self):
        for clause in self.clauses:
            for lit in clause:
                if not (1 <= abs(lit) <= self.num_vars):
                    raise CnfError("literal %d out of range 1..%d" % (lit, self.num_vars))

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def cnf(num_vars: int, clauses: Iterable[Iterable[int]]) -> CnfFormula:
    """Build a formula, normalizing every clause through mk_clause."""
    return CnfFormula(num_vars, tuple(mk_clause(c) for c in clauses))


# ---------------------------------------------------------------- DIMACS I/O

def parse_dimacs(text) -> CnfFormula:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    num_vars = None
    declared_clauses = None
    clauses: List[Clause] = []
    pending: List[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise CnfError("line %d: malformed header %r" % (lineno, raw))
            try:
                num_vars = int(parts[2])
                declared_clauses = int(parts[3])
            except ValueError:
                raise CnfError("line %d: malformed header %r" % (lineno, raw))
            if num_vars < 0 or declared_clauses < 0:
                raise CnfError("line %d: negative counts in header" % lineno)
            continue
        if num_vars is None:
            raise CnfError("line %d: clause before header" % lineno)
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise CnfError("line %d: bad token %r" % (lineno, tok))
            if lit == 0:
                clauses.append(mk_clause(pending))
                pending = []
            else:
                if abs(lit) > num_vars:
                    raise CnfError("line %d: literal %d out of range" % (lineno, lit))
                pending.append(lit)
    if num_vars is None:
        raise CnfError("missing DIMACS header")
    if pending:
        raise CnfError("unterminated clause at end of input")
    if declared_clauses is not None and declared_clauses != len(clauses):
        raise CnfError("header declares %d clauses, found %d"
                       % (declared_clauses, len(clauses)))
    return CnfFormula(num_vars, tuple(clauses))


def to_dimacs(phi: CnfFormula) -> str:
    lines = ["p cnf %d %d" % (phi.num_vars, phi.num_clauses)]
    for clause in phi.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


# -------------------------------------------------------------------- graphs

@dataclass(frozen=True)
class Graph:
    n_vertices: int
    edges: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise CnfError("self-loop at vertex %d" % u)
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise CnfError("edge (%d,%d) out of range" % (u, v))

    def neighbors(self) -> List[set]:
        adj = [set() for _ in range(self.n_vertices)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


def mk_graph(n_vertices: int, edges: Iterable[Tuple[int, int]]) -> Graph:
    """Normalize edges: sorted endpoints, deduplicated, deterministic order."""
    normalized = sorted({(min(u, v), max(u, v)) for u, v in edges})
    return Graph(n_vertices, tuple(normalized))


def primal_graph(phi: CnfFormula) -> Graph:
    """Vertices are variables (vertex v is variable v+1); edge iff co-occurrence."""
    edges = set()
    for clause in phi.clauses:
        variables = sorted(abs(lit) for lit in clause)
        for i in range(len(variables)):
            for j in range(i + 1, len(variables)):
                edges.add((variables[i] - 1, variables[j] - 1))
    return mk_graph(phi.num_vars, edges)


# -------------------------------------------------------- tree decomposition

@dataclass(frozen=True)
class TreeDecomposition:
    bags: Tuple[Tuple[int, ...], ...]        # bag id -> sorted vertex tuple
    tree_edges: Tuple[Tuple[int, int], ...]  # undirected edges between bag ids

    @property
    def width(self) -> int:
        return max((len(bag) for bag in self.bags), default=0) - 1


def tree_decomposition(graph: Graph) -> TreeDecomposition:
    """Min-fill elimination ordering, ties broken by smallest vertex index.

    The result always satisfies both decomposition conditions; the width is
    heuristic, not necessarily optimal.
    """
    n = graph.n_vertices
    if n == 0:
        return TreeDecomposition((), ())
    adj = graph.neighbors()
    active = set(range(n))

    def fill_in(v: int) -> int:
        nbrs = [u for u in adj[v] if u in active]
        missing = 0
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                if nbrs[j] not in adj[nbrs[i]]:
                    missing += 1
        return missing

    order: List[int] = []
    elim_bags: List[Tuple[int, ...]] = []
    while active:
        v = min(active, key=lambda u: (fill_in(u), u))
        nbrs = sorted(u for u in adj[v] if u in active)
        elim_bags.append(tuple(sorted([v] + nbrs)))
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                adj[nbrs[i]].add(nbrs[j])
                adj[nbrs[j]].add(nbrs[i])
        active.remove(v)
        order.append(v)

    # Bag of the i-th eliminated vertex attaches to the bag of the earliest
    # subsequently eliminated vertex it still neighbors.  Bags with no later
    # neighbor close out their component; the components are then bridged
    # into one tree (any bridge keeps per-vertex occurrence sets connected,
    # since those never span components).
    position = {v: i for i, v in enumerate(order)}
    tree_edges = []
    parent = list(range(len(order)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, v in enumerate(order):
        later = [position[u] for u in elim_bags[i] if u != v]
        if later:
            j = min(later)
            tree_edges.append((i, j))
            parent[find(i)] = find(j)
    for i in range(1, len(order)):
        if find(i) != find(0):
            tree_edges.append((i, 0))
            parent[find(i)] = find(0)
    return _prune_decomposition(elim_bags, tree_edges)


def _prune_decomposition(bags: List[Tuple[int, ...]],
                         tree_edges: List[Tuple[int, int]]) -> TreeDecomposition:
    """Contract every bag that is a subset of a tree neighbor into that neighbor."""
    contents = [set(bag) for bag in bags]
    adj: List[set] = [set() for _ in bags]
    for a, b in tree_edges:
        adj[a].add(b)
        adj[b].add(a)
    alive = set(range(len(bags)))
    changed = True
    while changed:
        changed = False
        for i in sorted(alive):
            target = next((j for j in sorted(adj[i]) if contents[i] <= contents[j]),
                          None)
            if target is None:
                continue
            for k in adj[i]:
                adj[k].discard(i)
                if k != target:
                    adj[k].add(target)
                    adj[target].add(k)
            adj[i] = set()
            alive.discard(i)
            changed = True
            break
    renumber = {old: new for new, old in enumerate(sorted(alive))}
    kept_bags = tuple(tuple(sorted(contents[old])) for old in sorted(alive))
    kept_edges = sorted({(min(renumber[a], renumber[b]), max(renumber[a], renumber[b]))
                         for a in alive for b in adj[a]})
    return TreeDecomposition(kept_bags, tuple(kept_edges))


def validate_decomposition(graph: Graph, td: TreeDecomposition) -> bool:
    """Check both decomposition conditions plus tree-ness of the bag graph."""
    n_bags = len(td.bags)
    if n_bags == 0:
        return graph.n_vertices == 0
    # the bag graph is a tree
    if len(td.tree_edges) != n_bags - 1:
        return False
    adj = [set() for _ in range(n_bags)]
    for a, b in td.tree_edges:
        if not (0 <= a < n_bags and 0 <= b < n_bags) or a == b:
            return False
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        cur = stack.pop()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    if len(seen) != n_bags:
        return False
    # every vertex occurs, every edge is covered
    occurrence = [set() for _ in range(graph.n_vertices)]
    for bag_id, bag in enumerate(td.bags):
        for v in bag:
            if not (0 <= v < graph.n_vertices):
                return False
            occurrence[v].add(bag_id)
    if any(not occ for occ in occurrence):
        return False
    bag_sets = [set(bag) for bag in td.bags]
    for u, v in graph.edges:
        if not any(u in bag and v in bag for bag in bag_sets):
            return False
    # occurrence sets are connected in the tree
    for occ in occurrence:
        start = next(iter(occ))
        seen = {start}
        stack = [start]
        while stack:
            cur = stack.pop()
            for nxt in adj[cur]:
                if nxt in occ and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if seen != occ:
            return False
    return True
