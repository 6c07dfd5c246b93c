"""Generators for the CNF families and liftings used by the refuters.

Variable numbering in liftings is fixed so tests and proofs can name
variables stably: originals keep their indices, then come the control
variables y_1..y_m, then the chain variables z_1..z_{m+1}, then any
selector variables.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from kcproof.cnf import Clause, CnfFormula, Graph, cnf, mk_clause, mk_graph


class ZooError(Exception):
    pass


@dataclass(frozen=True)
class LiftedFormula:
    base: CnfFormula
    result: CnfFormula
    roles: dict  # result variable -> label like "x3", "y1", "z2", "w1"
    # lift_Z: the index in result of each base clause's block of
    # implication clauses, then of the chain start (z_1)
    starts: tuple = ()

    def y(self, i):
        """Control variable of base clause i, 1-based."""
        return self.base.num_vars + i

    def z(self, i):
        """Chain variable i, for i in 1..m+1."""
        return self.base.num_vars + self.base.num_clauses + i


def lift_Z(phi: CnfFormula) -> LiftedFormula:
    """Chain lifting: unsatisfiable for every nonempty base formula.

    Clauses in order: (C_i | y_i) for each clause, then for each clause
    and each literal t of C_i plus y_i the clause (~t | ~z_i | z_i+1),
    then (z_1), then (~z_m+1).
    """
    m = phi.num_clauses
    if m == 0:
        raise ZooError("lift_Z needs a nonempty formula")
    n = phi.num_vars
    y = lambda i: n + i            # i in 1..m
    z = lambda i: n + m + i        # i in 1..m+1
    clauses: list[Clause] = []
    for i, clause in enumerate(phi.clauses, start=1):
        clauses.append(tuple(clause) + (y(i),))
    starts = []
    for i, clause in enumerate(phi.clauses, start=1):
        starts.append(len(clauses))
        for lit in tuple(clause) + (y(i),):
            clauses.append((-lit, -z(i), z(i + 1)))
    starts.append(len(clauses))
    clauses.append((z(1),))
    clauses.append((-z(m + 1),))
    result = cnf(n + m + (m + 1), clauses)
    roles = {v: "x%d" % v for v in range(1, n + 1)}
    roles.update({y(i): "y%d" % i for i in range(1, m + 1)})
    roles.update({z(i): "z%d" % i for i in range(1, m + 2)})
    return LiftedFormula(base=phi, result=result, roles=roles,
                         starts=tuple(starts))


def lift_C(phi: CnfFormula) -> CnfFormula:
    """Control lifting: each clause extended by a fresh control variable."""
    n = phi.num_vars
    clauses = [tuple(clause) + (n + i,)
               for i, clause in enumerate(phi.clauses, start=1)]
    return cnf(n + phi.num_clauses, clauses)


def graph_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product: every vertex of g replaced by a copy of h."""
    nh = h.n_vertices
    edges = []
    for u in range(g.n_vertices):
        for (i, j) in h.edges:
            edges.append((u * nh + i, u * nh + j))
    for (u, v) in g.edges:
        for i in range(nh):
            edges.append((u * nh + i, v * nh + i))
    return mk_graph(g.n_vertices * nh, edges)


def complete_binary_tree(h: int) -> Graph:
    """Height-h complete binary tree with 2^(h+1)-1 vertices."""
    if h < 1:
        raise ZooError("height must be at least 1")
    size = 2 ** (h + 1) - 1
    edges = [(i, c) for i in range(size)
             for c in (2 * i + 1, 2 * i + 2) if c < size]
    return mk_graph(size, edges)


def path(length: int) -> Graph:
    """Path with `length` edges and length+1 vertices."""
    if length < 1:
        raise ZooError("length must be at least 1")
    return mk_graph(length + 1, [(i, i + 1) for i in range(length)])


def grid_family(h: int, length: int) -> Graph:
    """Product of the height-h tree with the length-edge path."""
    return graph_product(complete_binary_tree(h), path(length))


def vc_formula(g: Graph) -> CnfFormula:
    """Vertex-cover formula: one positive 2-clause per edge."""
    return cnf(g.n_vertices, [(u + 1, v + 1) for (u, v) in g.edges])


def random_regular(n: int, d: int, seed: int) -> Graph:
    """Simple d-regular graph via the configuration model with rejection."""
    if n * d % 2 != 0:
        raise ZooError("n*d must be even")
    if d >= n:
        raise ZooError("degree must be below the vertex count")
    rng = random.Random(seed)
    for _ in range(2000):
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for k in range(0, len(stubs), 2):
            u, v = stubs[k], stubs[k + 1]
            if u == v or (min(u, v), max(u, v)) in edges:
                ok = False
                break
            edges.add((min(u, v), max(u, v)))
        if ok:
            return mk_graph(n, sorted(edges))
    raise ZooError("regular graph generation retry limit exceeded")


def tseitin(g: Graph, charges, max_degree: int = 6) -> CnfFormula:
    """Parity formula over edge variables: per vertex, incident edges sum
    to the vertex charge mod 2.  Repeated clauses are emitted once."""
    if len(charges) != g.n_vertices:
        raise ZooError("one charge per vertex required")
    if any(ch not in (0, 1) for ch in charges):
        raise ZooError("charges must be 0 or 1")
    incident: list[list[int]] = [[] for _ in range(g.n_vertices)]
    for index, (u, v) in enumerate(g.edges):
        incident[u].append(index + 1)
        incident[v].append(index + 1)
    clauses = []
    seen = set()
    for v in range(g.n_vertices):
        edges_here = incident[v]
        if len(edges_here) > max_degree:
            raise ZooError("vertex %d degree %d exceeds cap %d"
                           % (v, len(edges_here), max_degree))
        for bits in itertools.product((0, 1), repeat=len(edges_here)):
            if sum(bits) % 2 == charges[v]:
                continue
            clause = mk_clause(e if b == 0 else -e
                               for e, b in zip(edges_here, bits))
            if clause not in seen:
                seen.add(clause)
                clauses.append(clause)
    return cnf(len(g.edges), clauses)


def eq_formula(n: int, shift: int) -> CnfFormula:
    """Shifted equality: x_i equal to y_(shift+i mod n), 2n clauses, 2n vars.

    Zero-based block indices: x_i is variable i+1, y_j is variable n+j+1.
    """
    if n < 1 or n & (n - 1):
        raise ZooError("n must be a power of two")
    if not 0 <= shift < n:
        raise ZooError("shift out of range")
    clauses = []
    for i in range(n):
        j = (shift + i) % n
        clauses.append((i + 1, -(n + j + 1)))
        clauses.append((-(i + 1), n + j + 1))
    return cnf(2 * n, clauses)


def selector_width(count: int) -> int:
    """Selector variables needed to address `count` alternatives."""
    if count < 1:
        raise ZooError("need at least one alternative")
    return max(1, math.ceil(math.log2(count)))


def binary_code(value: int, width: int) -> tuple:
    """Most-significant-bit-first encoding of value in `width` bits."""
    if not 0 <= value < 2 ** width:
        raise ZooError("value does not fit the width")
    return tuple((value >> (width - 1 - j)) & 1 for j in range(width))


def perm_formula(phi: CnfFormula, perms, codes) -> CnfFormula:
    """Selector-guarded union of variable-renamed copies of phi.

    For each renaming pi with code a, every clause C of phi-renamed is
    emitted as (~T_a | C); every unused code contributes the clause ~T_a
    alone.  Selector variables come after phi's variables.
    """
    if len(perms) != len(codes):
        raise ZooError("one selector code per renaming required")
    width = selector_width(len(perms))
    for code in codes:
        if len(code) != width or any(b not in (0, 1) for b in code):
            raise ZooError("codes must be 0/1 tuples of width %d" % width)
    if len(set(codes)) != len(codes):
        raise ZooError("selector encoding must be injective")
    n = phi.num_vars
    selector = lambda j: n + j + 1  # j in 0..width-1

    def guard(code):
        return tuple(-selector(j) if bit else selector(j)
                     for j, bit in enumerate(code))

    clauses = []
    for perm, code in zip(perms, codes):
        image = sorted(perm.values())
        if image != sorted(perm.keys()) or any(
                not 1 <= v <= n for v in perm.keys()):
            raise ZooError("renaming is not a variable bijection")
        for clause in phi.clauses:
            renamed = tuple(
                (1 if lit > 0 else -1) * perm.get(abs(lit), abs(lit))
                for lit in clause)
            clauses.append(guard(code) + renamed)
    used = set(codes)
    for value in range(2 ** width):
        code = binary_code(value, width)
        if code not in used:
            clauses.append(guard(code))
    return cnf(n + width, clauses)


def seq_formula(n: int) -> CnfFormula:
    """Selector-guarded union of the n cyclic y-shifts of lift_Z(eq_formula).

    Unsatisfiable: every selector code selects one lifted shifted
    equality, and each of those is unsatisfiable.
    """
    base = lift_Z(eq_formula(n, 0)).result
    shifts = []
    for shift in range(n):
        shifts.append({n + 1 + i: n + 1 + (i + shift) % n for i in range(n)})
    width = selector_width(n)
    codes = [binary_code(shift, width) for shift in range(n)]
    return perm_formula(base, shifts, codes)
