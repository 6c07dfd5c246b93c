"""The SDD kernel's shortcuts leave every node id where it was.

apply takes an equal pair of primes or subs as its own result, compress
skips the merge when no sub repeats, and restrict returns a node whose
vtree node holds no assigned variable.  Proof labels are store ids, so
each shortcut must create exactly the nodes, in exactly the order, that
the full computation creates.  The full computations are kept here as
oracles, in store classes that override the shortcut methods, and twin
stores built by the same calls must end with the same node table.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcproof.cnf import cnf
from kcproof.proofs import BACKENDS
from kcproof.refute import fold_trace
from kcproof.sdd import (SddError, SddStore, rebind, sdd_apply, sdd_count,
                         sdd_literal, sdd_restrict, sdd_to_lines)
from kcproof.structure import (StructureError, move, node_table, parse_vtree,
                               remove_leaf, right_linear_vtree, vtree_leaf,
                               vtree_node)
from kcproof.zoo import random_regular, tseitin
from oracles import sdd_truth_mask


class DictCompressStore(SddStore):
    """_compress as it was before its shortcuts: every element goes
    through the merge dict, whether or not a sub repeats."""

    def _compress(self, path, elements):
        merged = {}
        for prime, sub in elements:
            other = merged.get(sub)
            merged[sub] = prime if other is None \
                else self._apply("or", other, prime)
        if not merged:
            raise SddError("decision node with no satisfiable prime")
        compressed = tuple(sorted((prime, sub)
                                  for sub, prime in merged.items()))
        return self._intern(("dec", path, compressed), path)


class FullKernelStore(DictCompressStore):
    """apply, compress and restrict with none of the shortcuts."""

    def _apply(self, op, a, b):
        if a == b:
            return a
        key = (op, a, b) if a <= b else (op, b, a)
        found = self.cache.get(key)
        if found is not None:
            return found
        path = self.node_path[a]
        true_here, false_here = self.true_at(path), self.false_at(path)
        if op == "and":
            if a == false_here or b == false_here:
                return false_here
            if a == true_here:
                return b
            if b == true_here:
                return a
        else:
            if a == true_here or b == true_here:
                return true_here
            if a == false_here:
                return b
            if b == false_here:
                return a
        children = self.children.get(path)
        if children is None:
            result = self._leaf_apply(op, a, b, path)
        else:
            false_left = self._false_at[children[0]]
            elements = []
            for prime_a, sub_a in self.nodes[a][2]:
                for prime_b, sub_b in self.nodes[b][2]:
                    prime = self._apply("and", prime_a, prime_b)
                    if prime != false_left:
                        elements.append((prime, self._apply(op, sub_a, sub_b)))
            result = self._compress(path, elements)
        self.cache[key] = result
        return result

    def restrict(self, u, assignment):
        memo = {}

        def rec(t):
            if t in memo:
                return memo[t]
            descriptor = self.nodes[t]
            if descriptor[0] == "lit":
                var = abs(descriptor[2])
                if var in assignment:
                    satisfied = assignment[var] == (1 if descriptor[2] > 0
                                                    else 0)
                    result = self.atom(("true" if satisfied else "false",
                                        descriptor[1]))
                else:
                    result = t
            elif descriptor[0] in ("true", "false"):
                result = t
            else:
                path = descriptor[1]
                false_left = self.false_at(path + "L")
                elements = []
                for prime, sub in descriptor[2]:
                    prime = rec(prime)
                    if prime == false_left:
                        continue
                    elements.append((prime, rec(sub)))
                result = self.mk_dec(path, elements)
            memo[t] = result
            return result

        return rec(u)


@st.composite
def vtrees(draw, variables):
    if len(variables) == 1:
        return vtree_leaf(variables[0])
    split = draw(st.integers(1, len(variables) - 1))
    return vtree_node(draw(vtrees(variables[:split])),
                      draw(vtrees(variables[split:])))


@st.composite
def instances(draw, max_vars=6):
    """A CNF over 1..n and a vtree over the same variables."""
    n = draw(st.integers(1, max_vars))
    order = draw(st.permutations(range(1, n + 1)))
    clauses = []
    for _ in range(draw(st.integers(0, 2 * n))):
        variables = draw(st.lists(st.integers(1, n), min_size=1,
                                  max_size=min(3, n), unique=True))
        clauses.append(tuple(v if draw(st.booleans()) else -v
                             for v in variables))
    return cnf(n, clauses), draw(vtrees(tuple(order)))


def fold(store, clauses):
    return fold_trace(BACKENDS["sdd"], store, clauses)[0]


def twins(tree, clauses, oracle_class):
    """The same fold in a store of this module and in an oracle store."""
    return fold(SddStore(tree), clauses), fold(oracle_class(tree), clauses)


def restricted_mask(d, assignment, n):
    """Truth-table bits of d with the assigned variables fixed, by brute
    force over the rows of d's own truth table."""
    mask = sdd_truth_mask(d, n)
    out = 0
    for row in range(1 << n):
        source = row
        for var, value in assignment.items():
            bit = 1 << (var - 1)
            source = source | bit if value else source & ~bit
        if mask >> source & 1:
            out |= 1 << row
    return out


# ------------------------------------------- (a) the rebind chain, pinned

# sdd_to_lines of the fold and of each diagram after it along the 20
# rebinds of test_rebind_move's sdd_moves instance: the node ids of every
# target store, set by the restrictions of each Shannon step
CHAIN_LINES_SHA256 = [
    "a6e13dbfea198ab52bf1b60629fe04fe34abf57968ae1e901b8505e095b2b5fd",
    "bd03ef5dc6d1d1147c23962820f7e77e811b7a05957214ff0e1d85669562da55",
    "9b5bab93ac5786e443995aae584dbb9e3e6993572305817e52e3f0b3fbc77d6d",
    "d9113187db6e915652594b55f3cb98ef0a5b5c7805bc2f8e524b414551ea267c",
    "4ea81897d48518bbb83e886c061c1beefca61fc220d04f03a16715be62aab5a2",
    "f16b4118975a99bdc360b1924ee42bdaa579fc4803c0f69e38e3e6f9de8a2e18",
    "59e3172b5d0fae08d8f3508c437a425aa9ee878a0c68f05e68bd87fa16ec4b0e",
    "92715c1f723e82070078b2956a24085131c725aa452932f96f7b54bd0b883878",
    "04f5fac05d1de43af716fd8afa9a0377bae89747efed5fcfd204e71a43ff00a7",
    "57b89dae4a31e05800fd79e1bbd0f92577bebc21748f1d32dbc46ca063d82b9f",
    "96cfcbc0b59214de3ba361b02e0f0f543c96255d26a561dbe34b5caefa5a52e3",
    "2679b57523d32971393e4e9e06448b89d0a673a5142603d5b7531b70a5d31306",
    "f1040416f41a3f8aa074d0ec7ecefd14ac574d8db814b39d672e864a903286b5",
    "7ac92287f75db0190081226c9f00402aa9d13b4e628f16685ca9e2984053c75a",
    "c65e72f6676ee2059ce36bd29bf2bc0205f625a4d6102f73d6219a206d989f89",
    "328ae5f0bac0538dcacebc28247ebe54b50d483a6896446ac868a1532787a204",
    "0f0a7a8bd4400f448851d11e5487e5f98689de3cfea3d9d9a21ad966bd5d4ea7",
    "1cd168c170378485b874a01cdf60cf3dc6a7287cddb923de7b1ec3326e7491d4",
    "04fb3bda04fe81cb96610710f686ad18aff7c3ebd2e29dbb2a49cf8605338515",
    "69f5fe826e91af471278c472763d69dc9ed48b6388df7dd6178b82b7ca82dbb6",
    "e40c57e8a8b3576e2896d1008481d71cb0a5621efd7452e0e1d0459d1764cf8e",
]
# repr of each source store's node table after its rebind, in chain
# order, into one digest: the ids the restrictions added to it
CHAIN_SOURCE_NODES_SHA256 = \
    "7cb2b5d4b6ea8e3514b0561bc855051c4fa41b67657d538ad408c26feb013d9a"


def test_rebind_chain_node_ids_pinned():
    graph = random_regular(10, 3, 1)
    phi = tseitin(graph, [1] + [0] * (graph.n_vertices - 1))
    tree = right_linear_vtree(tuple(range(1, phi.num_vars + 1)))
    acc = fold(SddStore(tree), phi.clauses[:2 * phi.num_clauses // 3])
    rng = random.Random(1)
    lines = [hashlib.sha256("\n".join(sdd_to_lines(acc)).encode())
             .hexdigest()]
    sources = hashlib.sha256()
    while len(lines) < len(CHAIN_LINES_SHA256):
        x = rng.randint(1, phi.num_vars)
        w_path = rng.choice(sorted(node_table(remove_leaf(tree, x))))
        direction = rng.choice("lr")
        try:
            moved = move(tree, x, w_path, direction)
        except StructureError:
            continue
        if moved == tree:
            continue
        tree, source = moved, acc.store
        acc = rebind(SddStore(tree), acc)
        lines.append(hashlib.sha256("\n".join(sdd_to_lines(acc)).encode())
                     .hexdigest())
        sources.update(repr(source.nodes).encode())
    assert lines == CHAIN_LINES_SHA256
    assert sources.hexdigest() == CHAIN_SOURCE_NODES_SHA256


# ------------------------------------------------------------ (b) restrict

@settings(max_examples=150, deadline=None)
@given(instances(), st.data())
def test_restrict_brute_force_and_untouched_nodes(instance, data):
    phi, tree = instance
    n = phi.num_vars
    d = fold(SddStore(tree), phi.clauses)
    store = d.store
    assigned = data.draw(st.lists(st.integers(1, n), unique=True,
                                  max_size=n))
    assignment = {var: data.draw(st.integers(0, 1)) for var in assigned}
    restricted = sdd_restrict(d, assignment)
    assert sdd_truth_mask(restricted, n) == restricted_mask(d, assignment, n)
    # a node bound below no assigned variable is its own restriction,
    # and restricting it adds no node
    held = len(store.nodes)
    for t in sorted(store.reachable(d.node)):
        if store.vars_at[store.node_path[t]].isdisjoint(assignment):
            assert store.restrict(t, assignment) == t
    assert len(store.nodes) == held


def test_restrict_outside_the_vtree_is_the_identity():
    store = SddStore(parse_vtree("((x1 x2) x3)"))
    d = sdd_apply("or", sdd_literal(store, 1), sdd_literal(store, -3))
    held = len(store.nodes)
    assert sdd_restrict(d, {4: 1, 5: 0}) == d
    assert len(store.nodes) == held


# ------------------------------------------------------------ (c) compress

# on ((1 2) (3 4)): the root's primes are the four minterms over x1, x2
# and its subs the four literals over x3, x4
MINTERMS = "((x1 x2) (x3 x4))"


def minterm_store(store_class):
    store = store_class(parse_vtree(MINTERMS))
    lit = {v: sdd_literal(store, v) for v in (1, 2, 3, 4, -1, -2, -3, -4)}
    terms = [(lit[1], lit[2], lit[3]), (lit[1], lit[-2], lit[4]),
             (lit[-1], lit[2], lit[-3]), (lit[-1], lit[-2], lit[-4])]
    f = None
    for a, b, c in terms:
        term = sdd_apply("and", sdd_apply("and", a, b), c)
        f = term if f is None else sdd_apply("or", f, term)
    primes = [prime for prime, _ in store.nodes[f.node][2]]
    subs = [sub for _, sub in store.nodes[f.node][2]]
    right = store.children[""][1]
    subs += [store.true_at(right), store.false_at(right)]
    return store, primes, subs


def compress_twins(blocks, sub_choice, order):
    """_compress of one element list in a store of this module and in the
    dict oracle: the blocks join minterm primes into a partition, each
    block takes the sub sub_choice names, and order lists the elements."""
    results = []
    for store_class in (SddStore, DictCompressStore):
        store, primes, subs = minterm_store(store_class)
        elements = []
        for block, choice in zip(blocks, sub_choice):
            prime = primes[block[0]]
            for i in block[1:]:
                prime = store.apply("or", prime, primes[i])
            elements.append((prime, subs[choice]))
        elements = [elements[i] for i in order]
        results.append((store._compress("", elements), store.nodes))
    return results


@st.composite
def partitions(draw):
    """A set partition of the four minterms, sub choices and an order."""
    labels = draw(st.lists(st.integers(0, 3), min_size=4, max_size=4))
    blocks = [[i for i in range(4) if labels[i] == label]
              for label in sorted(set(labels))]
    sub_choice = draw(st.lists(st.integers(0, 5), min_size=len(blocks),
                               max_size=len(blocks)))
    order = draw(st.permutations(range(len(blocks))))
    return blocks, sub_choice, order


@settings(max_examples=200, deadline=None)
@given(partitions())
def test_compress_matches_dict_oracle(case):
    (node, nodes), (oracle_node, oracle_nodes) = compress_twins(*case)
    assert node == oracle_node
    assert nodes == oracle_nodes


@pytest.mark.parametrize("blocks, sub_choice, order", [
    ([[0, 1, 2, 3]], [0], [0]),                       # one element
    ([[0, 2], [1, 3]], [4, 4], [1, 0]),               # two, one sub
    ([[0, 2], [1, 3]], [0, 5], [1, 0]),               # two, distinct subs
    ([[0], [1], [2], [3]], [0, 1, 2, 3], [3, 1, 0, 2]),   # four, distinct
    ([[0], [1], [2], [3]], [0, 1, 0, 1], [2, 0, 3, 1]),   # four, two pairs
    ([[0], [1, 2], [3]], [5, 5, 5], [1, 2, 0]),       # three, one sub
    ([[0], [1, 2], [3]], [2, 4, 2], [0, 1, 2]),       # three, one pair
])
def test_compress_cases(blocks, sub_choice, order):
    (node, nodes), (oracle_node, oracle_nodes) = compress_twins(
        blocks, sub_choice, order)
    assert node == oracle_node
    assert nodes == oracle_nodes


@settings(max_examples=200, deadline=None)
@given(instances(max_vars=7), st.data())
def test_compress_of_folded_nodes_matches_dict_oracle(instance, data):
    """The elements of a decision node of a fold, their primes joined in
    blocks and their subs drawn from the nodes bound to the right child:
    deeper primes than the minterm cases, so each or builds nodes."""
    phi, tree = instance
    d, oracle = twins(tree, phi.clauses, DictCompressStore)
    decisions = [t for t in sorted(d.store.reachable(d.node))
                 if d.store.nodes[t][0] == "dec"]
    if not decisions:
        return
    t = data.draw(st.sampled_from(decisions))
    path, elements = d.store.nodes[t][1], d.store.nodes[t][2]
    right = d.store.children[path][1]
    subs = [u for u in range(len(d.store.nodes))
            if d.store.node_path[u] == right]
    labels = data.draw(st.lists(st.integers(0, len(elements) - 1),
                                min_size=len(elements),
                                max_size=len(elements)))
    blocks = [[prime for (prime, _), label in zip(elements, labels)
               if label == block] for block in sorted(set(labels))]
    chosen = [data.draw(st.sampled_from(subs)) for _ in blocks]
    order = data.draw(st.permutations(range(len(blocks))))
    results = []
    for store in (d.store, oracle.store):
        joined = []
        for block, sub in zip(blocks, chosen):
            prime = block[0]
            for other in block[1:]:
                prime = store.apply("or", prime, other)
            joined.append((prime, sub))
        results.append(store._compress(path, [joined[i] for i in order]))
    assert results[0] == results[1]
    assert d.store.nodes == oracle.store.nodes


def test_compress_of_no_element_is_an_error():
    store = SddStore(parse_vtree(MINTERMS))
    with pytest.raises(SddError):
        store._compress("", [])


# --------------------------------------------- every shortcut at once

@settings(max_examples=150, deadline=None)
@given(instances(), st.data())
def test_fold_and_restrict_match_full_kernel(instance, data):
    """A fold, a conjunction and restrictions build the same node table
    with the shortcuts as without them."""
    phi, tree = instance
    n = phi.num_vars
    d, oracle = twins(tree, phi.clauses, FullKernelStore)
    assert d.node == oracle.node
    assert d.store.nodes == oracle.store.nodes
    split = data.draw(st.integers(0, len(phi.clauses)))
    for ref in (d, oracle):
        half = fold(ref.store, phi.clauses[:split])
        rest = fold(ref.store, phi.clauses[split:])
        assert sdd_apply("and", half, rest) == ref
    for _ in range(data.draw(st.integers(1, 3))):
        assigned = data.draw(st.lists(st.integers(1, n), unique=True,
                                      max_size=n))
        assignment = {var: data.draw(st.integers(0, 1)) for var in assigned}
        assert d.store.restrict(d.node, assignment) == \
            oracle.store.restrict(oracle.node, assignment)
    assert d.store.nodes == oracle.store.nodes


# ------------------------------------------------------------- sdd_count

def test_count_over_or_inside_the_leaves():
    store = SddStore(parse_vtree("((x1 x2) x3)"))
    d = sdd_apply("or", sdd_literal(store, 1), sdd_literal(store, 3))
    assert sdd_count(d, {1, 2, 3}) == 6
    assert sdd_count(d, {1, 2, 3, 4}) == 12
    assert sdd_count(d, {1, 3}) == 3
    with pytest.raises(SddError):
        sdd_count(d, {1, 2})
