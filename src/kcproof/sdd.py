"""Structured decision diagrams over a fixed vtree.

A store owns one vtree.  Every diagram handed out is normalized at the vtree
root; every decision node is bound to exactly one vtree node, its primes
normalized to the left child and its subs to the right child, with the primes
partitioning the left assignment space.  Nodes are hash-consed and kept
compressed (no two elements of one node share a sub), and the constant
functions have one canonical node per vtree node.  Such diagrams are
canonical (Darwiche, IJCAI 2011): two diagrams in one store compute the
same function exactly when their root ids coincide, so equality and
entailment are id comparisons.  A restriction stays in its store and is
normalized at the root, so two diagrams agree on every assignment that
extends a partial one exactly when their restrictions to it share an
id: the checker decides init lines and joins with a clause premise that
way, by conditioning instead of apply.

Work that never changes under a fixed vtree is done once: each store
memoises literal embeddings on (path, literal) and keeps the child paths of
every internal vtree node, and each vtree node caches its variable set when
it is built.  Hash-consing makes the cached results the nodes a fresh
computation would find, so no node id depends on the caches.  apply checks
its operands once at the entry, then probes its memo before the constants:
only a miss at the same vtree node fills the memo, and that miss made them.
Deserialization reuses a decision node the store already holds without
validating its partition again, since the store holds only nodes that are
valid by construction; it matches the statement's sorted elements exactly,
so an uncompressed statement is still validated.

Proof labels are store ids, so the order in which a store creates nodes
is part of the proof bytes, and a shortcut may skip only a step that
could not have created a node.  apply's product loop takes an equal
pair of primes or subs as its own result, which apply returns at once.
_compress sorts elements whose subs are all distinct, and only repeated
subs go through the merge, whose disjunctions keep their order.
restrict returns a node bound to a vtree node with no assigned
variable, which every node below it shares, a constant, and a node whose
restricted elements are its own; a rebuild through mk_dec would only
find the same node again.  It visits only the children bound below an assigned
variable.

collect frees the nodes that neither a given root nor a true_at or false_at
node reaches, with every cache, count and embedding entry that names one.
Ids are never reused, and a freed id's slots hold None.  Only the checker
collects, since a producer's node creation order is part of its proof.

Node descriptors:
  ("lit", path, lit)        literal atom at a leaf
  ("true", path)            canonical constant-true at a leaf
  ("false", path)           canonical constant-false at a leaf
  ("dec", path, elements)   decision node; elements = ((prime, sub), ...)
Internal constant-true/false are ordinary decision nodes reachable through
true_at/false_at and are canonical by hash-consing.
"""

from .structure import (StructureError, Vtree, node_table, path_to_text,
                        parse_path, remove_leaf)


class SddError(Exception):
    pass


class SddStore:

    def __init__(self, vtree):
        if not isinstance(vtree, Vtree):
            raise SddError("store needs a vtree")
        self.vtree = vtree
        self.paths = node_table(vtree)
        self.vars_at = {path: node.variables for path, node in self.paths.items()}
        self.leaf_path = {node.var: path for path, node in self.paths.items()
                          if node.is_leaf}
        self.children = {path: (path + "L", path + "R")
                         for path, node in self.paths.items()
                         if not node.is_leaf}
        self.nodes = []       # id -> descriptor
        self.node_path = []   # id -> path the node is bound to
        self.unique = {}
        self.cache = {}
        self.counts = {}      # id -> model count over vars_at[path of id]
        self._true_at = {}
        self._false_at = {}
        self._embedded = {}   # (path, literal) -> sdd_literal's node at path

    # ------------------------------------------------------------- plumbing

    def _intern(self, descriptor, path):
        found = self.unique.get(descriptor)
        if found is None:
            self.nodes.append(descriptor)
            self.node_path.append(path)
            found = len(self.nodes) - 1
            self.unique[descriptor] = found
        return found

    def atom(self, descriptor):
        path = descriptor[1]
        node = self.paths.get(path)
        if node is None or not node.is_leaf:
            raise SddError("atom path %r is not a leaf" % path)
        if descriptor[0] == "lit" and abs(descriptor[2]) != node.var:
            raise SddError("literal %d does not match leaf x%d"
                           % (descriptor[2], node.var))
        return self._intern(descriptor, path)

    def literal(self, lit):
        path = self.leaf_path.get(abs(lit))
        if path is None:
            raise SddError("variable %d not in vtree" % abs(lit))
        return self.atom(("lit", path, lit))

    def true_at(self, path):
        return self._constant_at(path, True)

    def false_at(self, path):
        return self._constant_at(path, False)

    def _constant_at(self, path, value):
        """true_at or false_at; inside, the element (true, same constant)."""
        memo = self._true_at if value else self._false_at
        found = memo.get(path)
        if found is None:
            if self.paths[path].is_leaf:
                found = self.atom(("true" if value else "false", path))
            else:
                found = self.mk_dec(path, (
                    (self._constant_at(path + "L", True),
                     self._constant_at(path + "R", value)),))
            memo[path] = found
        return found

    def mk_dec(self, path, elements):
        """Compress and intern a decision node bound to path.

        Elements with an unsatisfiable prime are dropped and elements sharing
        a sub are merged by disjoining their primes; callers guarantee that
        the primes form a partition (deserialization validates explicitly).
        """
        children = self.children.get(path)
        if children is None:
            raise SddError("decision node path %r is not internal" % path)
        left, right = children
        false_left = self.false_at(left)
        kept = []
        for prime, sub in elements:
            if self.node_path[prime] != left:
                raise SddError("prime not normalized to the left child")
            if self.node_path[sub] != right:
                raise SddError("sub not normalized to the right child")
            if prime != false_left:
                kept.append((prime, sub))
        return self._compress(path, kept)

    def _compress(self, path, elements):
        """Merge elements sharing a sub, in element order, and intern the
        node; the elements are normalized and have satisfiable primes.

        Only a repeated sub needs the merge: elements with distinct subs
        are just sorted, and two elements sharing a sub take one or."""
        n = len(elements)
        if n == 1:
            compressed = tuple(elements)
        elif n == 2:
            (prime_1, sub_1), (prime_2, sub_2) = elements
            if sub_1 == sub_2:
                compressed = ((self._apply("or", prime_1, prime_2), sub_1),)
            else:
                compressed = tuple(sorted(elements))
        elif n and len({sub for _, sub in elements}) == n:
            compressed = tuple(sorted(elements))
        else:
            merged = {}
            for prime, sub in elements:
                other = merged.get(sub)
                merged[sub] = prime if other is None \
                    else self._apply("or", other, prime)
            if not merged:
                raise SddError("decision node with no satisfiable prime")
            compressed = tuple(sorted((prime, sub)
                                      for sub, prime in merged.items()))
        descriptor = ("dec", path, compressed)
        found = self.unique.get(descriptor)
        if found is None:
            found = self._intern(descriptor, path)
        return found

    # ------------------------------------------------------------ operations

    def apply(self, op, a, b):
        if op not in ("and", "or"):
            raise SddError("unknown operation %r" % op)
        if self.node_path[a] != self.node_path[b]:
            raise SddError("operands bound to different vtree nodes")
        return self._apply(op, a, b)

    def _apply(self, op, a, b):
        """apply without the entry checks: op is "and" or "or" and both
        operands are bound to one vtree node, as all recursive calls are."""
        if a == b:
            return a
        key = (op, a, b) if a <= b else (op, b, a)
        found = self.cache.get(key)
        if found is not None:
            # only a miss at this path caches, and it made the constants
            return found
        path = self.node_path[a]
        true_here = self._true_at.get(path)
        if true_here is None:
            true_here = self.true_at(path)
        false_here = self._false_at.get(path)
        if false_here is None:
            false_here = self.false_at(path)
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
            # a is a decision node here, so mk_dec has made false_at(left)
            false_left = self._false_at[children[0]]
            apply = self._apply
            elements_b = self.nodes[b][2]
            elements = []
            for prime_a, sub_a in self.nodes[a][2]:
                for prime_b, sub_b in elements_b:
                    # apply returns an equal pair's node before any work
                    prime = prime_a if prime_a == prime_b \
                        else apply("and", prime_a, prime_b)
                    if prime != false_left:
                        elements.append((prime, sub_a if sub_a == sub_b
                                         else apply(op, sub_a, sub_b)))
            result = self._compress(path, elements)
        self.cache[key] = result
        return result

    def embed(self, path, literal):
        """sdd_literal's node at a path whose variables hold the literal."""
        found = self._embedded.get((path, literal))
        if found is not None:
            return found
        children = self.children.get(path)
        if children is None:
            found = self.literal(literal)
        else:
            left, right = children
            if abs(literal) in self.vars_at[left]:
                found = self.mk_dec(path, (
                    (self.embed(left, literal), self.true_at(right)),
                    (self.embed(left, -literal), self.false_at(right))))
            else:
                found = self.mk_dec(path, (
                    (self.true_at(left), self.embed(right, literal)),))
        self._embedded[(path, literal)] = found
        return found

    def _leaf_values(self, u):
        kind = self.nodes[u][0]
        if kind == "true":
            return {0, 1}
        if kind == "false":
            return set()
        lit = self.nodes[u][2]
        return {1} if lit > 0 else {0}

    def _values_atom(self, values, path):
        if values == {0, 1}:
            return self.atom(("true", path))
        if not values:
            return self.atom(("false", path))
        var = self.paths[path].var
        return self.atom(("lit", path, var if values == {1} else -var))

    def _leaf_apply(self, op, a, b, path):
        va, vb = self._leaf_values(a), self._leaf_values(b)
        return self._values_atom(va & vb if op == "and" else va | vb, path)

    def negate(self, u):
        key = ("not", u)
        found = self.cache.get(key)
        if found is not None:
            return found
        descriptor = self.nodes[u]
        if descriptor[0] == "dec":
            path = descriptor[1]
            result = self.mk_dec(path, tuple(
                (prime, self.negate(sub)) for prime, sub in descriptor[2]))
        else:
            path = descriptor[1]
            result = self._values_atom({0, 1} - self._leaf_values(u), path)
        self.cache[key] = result
        self.cache[("not", result)] = u
        return result

    def restrict(self, u, assignment):
        """u with the assignment's variables fixed.

        Only nodes bound to a vtree node with an assigned variable are
        visited: any other node is its own restriction, and so is a
        constant and a node whose elements all are."""
        assigned = frozenset(assignment)
        path = self.node_path[u]
        if self.vars_at[path].isdisjoint(assigned) \
                or u == self._true_at.get(path) \
                or u == self._false_at.get(path):
            return u
        return self._restrict(u, assignment, assigned, {})

    def _restrict(self, t, assignment, assigned, memo):
        """restrict below its entry checks; memo maps the nodes done."""
        found = memo.get(t)
        if found is not None:
            return found
        descriptor = self.nodes[t]
        if descriptor[0] == "dec":
            path = descriptor[1]
            left, right = self.children[path]
            on_left = not self.vars_at[left].isdisjoint(assigned)
            on_right = not self.vars_at[right].isdisjoint(assigned)
            # t is a decision node, so mk_dec has made false_at(left)
            false_left = self._false_at[left]
            elements = []
            for prime, sub in descriptor[2]:
                if on_left:
                    prime = self._restrict(prime, assignment, assigned, memo)
                    if prime == false_left:
                        continue
                if on_right:
                    sub = self._restrict(sub, assignment, assigned, memo)
                elements.append((prime, sub))
            # restrictions keep their paths, so the elements are
            # normalized, and t's own elements would only find t again
            result = t if tuple(elements) == descriptor[2] \
                else self._compress(path, elements)
        elif descriptor[0] == "lit":
            satisfied = assignment[abs(descriptor[2])] == \
                (1 if descriptor[2] > 0 else 0)
            result = self.atom(("true" if satisfied else "false",
                                descriptor[1]))
        else:
            result = t
        memo[t] = result
        return result

    def count(self, u):
        """Models over the variables of the vtree node u is bound to."""
        found = self.counts.get(u)
        if found is not None:
            return found
        descriptor = self.nodes[u]
        if descriptor[0] == "dec":
            result = sum(self.count(prime) * self.count(sub)
                         for prime, sub in descriptor[2])
        else:
            result = len(self._leaf_values(u))
        self.counts[u] = result
        return result

    def collect(self, roots):
        """Free every node that neither a root nor a true_at or false_at
        node reaches: its table slots, its unique-table entry and each
        cached result, count and literal embedding that names it.  Ids
        are never reused, so a node that stays keeps its id."""
        nodes = self.nodes
        live = self.reachable(
            *roots, *self._true_at.values(), *self._false_at.values())
        unique = {}
        for descriptor, t in self.unique.items():
            if t in live:
                unique[descriptor] = t
            else:
                nodes[t] = self.node_path[t] = None
        self.unique = unique
        # keys are (op, a, b) or ("not", u)
        self.cache = {key: t for key, t in self.cache.items()
                      if t in live and key[1] in live and key[-1] in live}
        self.counts = {t: c for t, c in self.counts.items() if t in live}
        self._embedded = {key: t for key, t in self._embedded.items()
                          if t in live}

    def reachable(self, *roots):
        """Ids of the nodes the roots reach, roots and atoms included."""
        nodes = self.nodes
        seen = set(roots)
        stack = list(roots)
        while stack:
            descriptor = nodes[stack.pop()]
            if descriptor[0] == "dec":
                for element in descriptor[2]:
                    for t in element:
                        if t not in seen:
                            seen.add(t)
                            stack.append(t)
        return seen

    def size(self, u):
        """Distinct reachable nodes, atoms included."""
        return len(self.reachable(u))

    def mentioned_vars(self, u):
        nodes = self.nodes
        return {abs(nodes[t][2]) for t in self.reachable(u)
                if nodes[t][0] == "lit"}


class SddRef:
    """A diagram normalized at its store's vtree root."""

    __slots__ = ("store", "node")

    def __init__(self, store, node):
        if store.node_path[node] != "":
            raise SddError("diagram is not normalized at the root")
        self.store = store
        self.node = node

    def __eq__(self, other):
        return isinstance(other, SddRef) and \
            self.store is other.store and self.node == other.node

    def __hash__(self):
        return hash((id(self.store), self.node))

    def __repr__(self):
        return "SddRef(node=%d)" % self.node


def _same_store(d1, d2):
    if d1.store is not d2.store:
        raise SddError("operands live in different stores")


# -------------------------------------------------------------- constructors

def sdd_const(store, value):
    return SddRef(store, store.true_at("") if value else store.false_at(""))


def sdd_literal(store, lit):
    """The single-literal function, normalized at the root."""
    if abs(lit) not in store.vtree.variables:
        raise SddError("variable %d not in vtree" % abs(lit))
    return SddRef(store, store.embed("", lit))


def sdd_from_clause(store, clause):
    acc = sdd_const(store, False)
    for lit in clause:
        acc = sdd_apply("or", acc, sdd_literal(store, lit))
    return acc


# ---------------------------------------------------------------- operations

def sdd_apply(op, d1, d2):
    _same_store(d1, d2)
    return SddRef(d1.store, d1.store.apply(op, d1.node, d2.node))


def sdd_restrict(d, assignment):
    return SddRef(d.store, d.store.restrict(d.node, assignment))


def sdd_is_false(d):
    """Syntactic: is this the canonical constant-false diagram."""
    return d.node == d.store.false_at("")


def sdd_count(d, over):
    over = set(over)
    leaves = d.store.vtree.variables
    # the store holds literals of its leaves only, so over covering the
    # leaves covers every variable the diagram mentions
    if not leaves <= over and not d.store.mentioned_vars(d.node) <= over:
        raise SddError("count asked over a set missing mentioned variables")
    base = d.store.count(d.node)
    extra = len(over - leaves)
    surplus = len(leaves - over)
    if surplus:
        if base & ((1 << surplus) - 1):
            raise SddError("excluded vtree variables are not free in the diagram")
        base >>= surplus
    return base << extra


def sdd_equal(d1, d2):
    """Equality by node id.  One node is one function, and compressed
    diagrams normalized at one vtree node are canonical (Darwiche, IJCAI
    2011), so equal functions in one store share their node."""
    _same_store(d1, d2)
    return d1.node == d2.node


def sdd_entails(d1, d2):
    """D1 entails D2 exactly when D1 and D2 is D1."""
    _same_store(d1, d2)
    return d1.store.apply("and", d1.node, d2.node) == d1.node


def sdd_size(d):
    return d.store.size(d.node)


def rebind(target, d):
    """Re-express a diagram in a store over another vtree, preserving the
    function.  Every variable the diagram mentions must be a leaf of the
    target vtree; the result is normalized at the target root.

    When the two vtrees differ by one leaf move, the diagram takes one
    Shannon step instead of a rebuild: each restriction on the moved
    variable x is carried over the vtree without x by drop_leaf and
    insert_leaf, and (~x & f0) | (x & f1) joins the halves in the target.
    The restrictions add nodes to the source store.  Any other pair of
    vtrees rebuilds every node with root-level applies.  Both ways give
    the same node, since equal functions share one node in a store.
    """
    x = _moved_leaf(d.store, target)
    if x is not None:
        common = SddStore(remove_leaf(target.vtree, x))
        low, high = (insert_leaf(target, drop_leaf(
            common, sdd_restrict(d, {x: value}), x), x) for value in (0, 1))
        return sdd_apply("or",
                         sdd_apply("and", sdd_literal(target, -x), low),
                         sdd_apply("and", sdd_literal(target, x), high))
    return SddRef(target, _rebuild(d.store, target, d.node, {}))


def _rebuild(store, target, t, memo):
    """rebind's node-by-node rebuild of t; memo maps the nodes done."""
    found = memo.get(t)
    if found is not None:
        return found
    descriptor = store.nodes[t]
    if descriptor[0] == "lit":
        result = sdd_literal(target, descriptor[2]).node
    elif descriptor[0] == "true":
        result = target.true_at("")
    elif descriptor[0] == "false":
        result = target.false_at("")
    else:
        result = target.false_at("")
        for prime, sub in descriptor[2]:
            piece = target.apply("and", _rebuild(store, target, prime, memo),
                                 _rebuild(store, target, sub, memo))
            result = target.apply("or", result, piece)
    memo[t] = result
    return result


def _moved_leaf(source, target):
    """A variable x whose leaf, removed from both stores' vtrees, leaves
    the same vtree, or None.  A move that changes the vtree changes the
    path of x's leaf, so only leaves whose paths differ are tried."""
    if source.vtree.variables != target.vtree.variables:
        return None
    for var, path in source.leaf_path.items():
        if target.leaf_path[var] != path and \
                remove_leaf(source.vtree, var) == remove_leaf(target.vtree,
                                                              var):
            return var
    return None


def insert_leaf(target, d, var):
    """Re-express a diagram in a store over its vtree with var's leaf
    inserted, the inverse of drop_leaf: d's vtree must be target's vtree
    without var (structure.remove_leaf).  Linear in the diagram.

    Every node keeps its elements; the nodes bound to var's sibling s
    and below move down one step, and a node n bound to s is wrapped at
    the new parent p of var's leaf: as ((true, n),) when var is p's left
    child, and as ((n, true), (~n, false)) when it is the right child,
    where mk_dec leaves one element for a constant n.  One ascending pass
    over the reachable ids maps every child before its parents.
    """
    store = d.store
    leaf, parent, sibling, var_left = _leaf_frame(target, store, var,
                                                  "target", "source")
    true_x, false_x = target.true_at(leaf), target.false_at(leaf)
    mapped = {}
    for t in sorted(store.reachable(d.node)):
        descriptor = store.nodes[t]
        path = descriptor[1]
        if path.startswith(parent):
            path = sibling + path[len(parent):]
        node = _copy(target, descriptor, path, mapped)
        if path == sibling:
            node = target.mk_dec(parent, ((true_x, node),) if var_left else
                                 ((node, true_x),
                                  (target.negate(node), false_x)))
        mapped[t] = node
    return SddRef(target, mapped[d.node])


def drop_leaf(target, d, var):
    """Re-express a diagram that does not mention var in a store over its
    vtree with var's leaf removed (structure.remove_leaf), in time linear
    in the diagram.

    Every node keeps its elements; the node bound to the parent p of
    var's leaf is spliced out, and the nodes below var's sibling move up
    one step.  When var is p's left child, p has the one element
    (true, s) and becomes s; when it is the right child, p becomes the
    prime whose sub is true, or false.  Children have smaller ids than
    their parents, so one ascending pass over the reachable ids maps
    every child before its parents.
    """
    store = d.store
    leaf, parent, sibling, var_left = _leaf_frame(store, target, var,
                                                  "source", "target")
    mapped = {}
    for t in sorted(store.reachable(d.node)):
        descriptor = store.nodes[t]
        path = descriptor[1]
        if path == leaf:
            if descriptor[0] == "lit":
                raise SddError("diagram mentions x%d" % var)
            continue  # a constant under p, consumed when p is mapped
        if path == parent:
            # its primes or subs are constants: a literal raised above
            elements = descriptor[2]
            if var_left:
                if len(elements) != 1:
                    raise SddError("diagram depends on x%d" % var)
                mapped[t] = mapped[elements[0][1]]
            else:
                primes = [prime for prime, sub in elements
                          if store.nodes[sub][0] == "true"]
                mapped[t] = mapped[primes[0]] if primes \
                    else target.false_at(parent)
            continue
        if path.startswith(sibling):
            path = parent + path[len(sibling):]
        mapped[t] = _copy(target, descriptor, path, mapped)
    return SddRef(target, mapped[d.node])


def _leaf_frame(full, reduced, var, full_role, reduced_role):
    """Paths of var's leaf, parent and sibling in full's vtree, and whether
    the leaf is a left child; reduced's vtree must be full's without it.
    The roles name the two stores in the error."""
    try:
        expected = remove_leaf(full.vtree, var)
    except StructureError as exc:
        raise SddError(str(exc))
    if reduced.vtree != expected:
        raise SddError("%s vtree is not the %s vtree without x%d"
                       % (reduced_role, full_role, var))
    leaf = full.leaf_path[var]
    parent, var_left = leaf[:-1], leaf[-1] == "L"
    return leaf, parent, parent + ("R" if var_left else "L"), var_left


def _copy(target, descriptor, path, mapped):
    """descriptor's node at path in target, its children read in mapped."""
    if descriptor[0] == "dec":
        return target.mk_dec(path, tuple(
            (mapped[prime], mapped[sub]) for prime, sub in descriptor[2]))
    return target.atom((descriptor[0], path) + descriptor[2:])


# -------------------------------------------------------------- serialization

def sdd_to_lines(d):
    """Node statements, each after those of the nodes it names, then the
    root statement.  Writing may create a path's `true_at` or `false_at`
    node, since a decision node equal to one is written as that atom."""
    store = d.store
    nodes, node_path = store.nodes, store.node_path
    true_memo, false_memo = store._true_at, store._false_at
    lines = []
    emitted = set()
    stack = [d.node]  # nodes to write, and decision lines due after theirs
    while stack:
        t = stack.pop()
        if type(t) is str:
            lines.append(t)
            continue
        if t in emitted:
            continue
        emitted.add(t)
        descriptor = nodes[t]
        kind = descriptor[0]
        path = node_path[t]
        path_text = path_to_text(path)
        if kind == "lit":
            lines.append(f"a {t} {path_text} lit {descriptor[2]}")
            continue
        if kind != "dec":
            lines.append(f"a {t} {path_text} {kind}")
            continue
        # the store's true_at and false_at only on a memo miss, where they
        # create the node
        true_here = true_memo.get(path)
        if true_here is None:
            true_here = store.true_at(path)
        if t == true_here:
            lines.append(f"a {t} {path_text} true")
            continue
        false_here = false_memo.get(path)
        if false_here is None:
            false_here = store.false_at(path)
        if t == false_here:
            lines.append(f"a {t} {path_text} false")
            continue
        elements = descriptor[2]
        pairs = "".join([f"({prime} {sub})" for prime, sub in elements])
        stack.append(f"s {t} {path_text} {pairs}")
        # written nodes are skipped here only to keep the stack short
        for prime, sub in reversed(elements):
            if sub not in emitted:
                stack.append(sub)
            if prime not in emitted:
                stack.append(prime)
    lines.append(f"root {d.node}")
    return lines


def _validate_partition(store, path, primes):
    left = path + "L"
    n_left = len(store.vars_at[left])
    total = 0
    fold = store.false_at(left)
    for prime in primes:
        if store.count(prime) == 0:
            raise SddError("unsatisfiable prime in decision node")
        total += store.count(prime)
        fold = store.apply("or", fold, prime)
    if total != (1 << n_left) or store.count(fold) != (1 << n_left):
        raise SddError("primes do not partition the left assignment space")


def sdd_from_lines(store, lines):
    """Rebuild a diagram from statements, validating the partition property
    of every decision node bottom-up."""
    ids = {}
    root = None
    for line in lines:
        # one split per statement: a decision's elements stay one field,
        # and an atom's kind and literal are the words of its last field
        parts = line.split(None, 3)
        if not parts:
            continue
        if parts[0] == "a":
            atom = parts[3].split() if len(parts) == 4 else []
            if atom in (["true"], ["false"]):
                label, path_text, kind = parts[1], parts[2], atom[0]
                path = parse_path(path_text)
                if path not in store.paths:
                    raise SddError("unknown vtree path %r" % path_text)
                node = store.true_at(path) if kind == "true" else store.false_at(path)
            elif len(atom) == 2 and atom[0] == "lit":
                label, path_text = parts[1], parts[2]
                path = parse_path(path_text)
                try:
                    lit = int(atom[1])
                except ValueError:
                    raise SddError("bad literal in %r" % line)
                node = store.literal(lit)
                if store.node_path[node] != path:
                    raise SddError("literal %d not at path %r" % (lit, path_text))
            else:
                raise SddError("malformed atom statement %r" % line)
            if label in ids:
                raise SddError("node label %r reused" % label)
            ids[label] = node
        elif parts[0] == "s":
            if len(parts) != 4:
                raise SddError("malformed decision statement %r" % line)
            label, path_text = parts[1], parts[2]
            if label in ids:
                raise SddError("node label %r reused" % label)
            path = parse_path(path_text)
            children = store.children.get(path)
            if children is None:
                raise SddError("decision node at non-internal path %r" % path_text)
            left, right = children
            elements = []
            for chunk in parts[3].split(")"):
                chunk = chunk.strip()
                if not chunk:
                    continue
                if not chunk.startswith("("):
                    raise SddError("malformed elements in %r" % line)
                pair = chunk[1:].split()
                if len(pair) != 2:
                    raise SddError("malformed element %r" % chunk)
                element = (ids.get(pair[0]), ids.get(pair[1]))
                if None in element:
                    raise SddError("reference to undefined node %r"
                                   % pair[element.index(None)])
                elements.append(element)
            if not elements:
                raise SddError("decision node with no elements in %r" % line)
            for prime, sub in elements:
                if store.node_path[prime] != left:
                    raise SddError("prime of %r not at the left child" % label)
                if store.node_path[sub] != right:
                    raise SddError("sub of %r not at the right child" % label)
            # a held node is a valid partition by construction; a statement
            # with duplicates, shared subs or false primes never matches one
            node = store.unique.get(("dec", path, tuple(sorted(elements))))
            if node is None:
                _validate_partition(store, path,
                                    [prime for prime, _ in elements])
                node = store.mk_dec(path, tuple(elements))
            ids[label] = node
        elif parts[0] == "root":
            if len(parts) != 2 or root is not None:
                raise SddError("malformed root statement %r" % line)
            root = ids.get(parts[1])
            if root is None:
                raise SddError("reference to undefined node %r" % parts[1])
        else:
            raise SddError("unknown statement %r" % line)
    if root is None:
        raise SddError("missing root statement")
    if store.node_path[root] != "":
        raise SddError("root is not normalized at the vtree root")
    return SddRef(store, root)


def sdd_to_text(d):
    from .structure import vtree_to_text
    header = "vtree %s" % vtree_to_text(d.store.vtree)
    return "\n".join([header] + sdd_to_lines(d)) + "\n"


def parse_sdd(text):
    from .structure import parse_vtree
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("vtree "):
        raise SddError("missing vtree line")
    store = SddStore(parse_vtree(lines[0][len("vtree "):]))
    return sdd_from_lines(store, lines[1:])
