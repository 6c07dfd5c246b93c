"""Structured decision diagrams over a fixed vtree.

A store owns one vtree.  Every diagram handed out is normalized at the vtree
root; every decision node is bound to exactly one vtree node, its primes
normalized to the left child and its subs to the right child, with the primes
partitioning the left assignment space.  Nodes are hash-consed and kept
compressed (no two elements of one node share a sub), and the constant
functions have one canonical node per vtree node, so "is this the false
diagram" is an id comparison.  Equality of arbitrary diagrams is decided by
the counting method, not by ids.

Work that never changes under a fixed vtree is done once: each store
memoises literal embeddings on (path, literal) and keeps the child paths of
every internal vtree node, and each vtree node caches its variable set when
it is built.  Hash-consing makes the cached results the nodes a fresh
computation would find, so no node id depends on the caches.

Node descriptors:
  ("lit", path, lit)        literal atom at a leaf
  ("true", path)            canonical constant-true at a leaf
  ("false", path)           canonical constant-false at a leaf
  ("dec", path, elements)   decision node; elements = ((prime, sub), ...)
Internal constant-true/false are ordinary decision nodes reachable through
true_at/false_at and are canonical by hash-consing.
"""

from .structure import Vtree, node_table, path_to_text, parse_path


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
        found = self._true_at.get(path)
        if found is None:
            node = self.paths[path]
            if node.is_leaf:
                found = self.atom(("true", path))
            else:
                found = self.mk_dec(path, (
                    (self.true_at(path + "L"), self.true_at(path + "R")),))
            self._true_at[path] = found
        return found

    def false_at(self, path):
        found = self._false_at.get(path)
        if found is None:
            node = self.paths[path]
            if node.is_leaf:
                found = self.atom(("false", path))
            else:
                found = self.mk_dec(path, (
                    (self.true_at(path + "L"), self.false_at(path + "R")),))
            self._false_at[path] = found
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
        merged = {}
        for prime, sub in elements:
            if self.node_path[prime] != left:
                raise SddError("prime not normalized to the left child")
            if self.node_path[sub] != right:
                raise SddError("sub not normalized to the right child")
            if prime == false_left:
                continue
            if sub in merged:
                merged[sub] = self.apply("or", merged[sub], prime)
            else:
                merged[sub] = prime
        compressed = tuple(sorted((prime, sub) for sub, prime in merged.items()))
        if not compressed:
            raise SddError("decision node with no satisfiable prime")
        return self._intern(("dec", path, compressed), path)

    # ------------------------------------------------------------ operations

    def apply(self, op, a, b):
        if op not in ("and", "or"):
            raise SddError("unknown operation %r" % op)
        path = self.node_path[a]
        if self.node_path[b] != path:
            raise SddError("operands bound to different vtree nodes")
        if a == b:
            return a
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
        key = (op, a, b) if a <= b else (op, b, a)
        found = self.cache.get(key)
        if found is not None:
            return found
        children = self.children.get(path)
        if children is None:
            result = self._leaf_apply(op, a, b, path)
        else:
            # a is a decision node here, so mk_dec has made false_at(left)
            false_left = self.false_at(children[0])
            apply = self.apply
            elements_b = self.nodes[b][2]
            elements = []
            for prime_a, sub_a in self.nodes[a][2]:
                for prime_b, sub_b in elements_b:
                    prime = apply("and", prime_a, prime_b)
                    if prime == false_left:
                        continue
                    elements.append((prime, apply(op, sub_a, sub_b)))
            result = self.mk_dec(path, elements)
        self.cache[key] = result
        return result

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
        memo = {}

        def rec(t):
            if t in memo:
                return memo[t]
            descriptor = self.nodes[t]
            if descriptor[0] == "lit":
                var = abs(descriptor[2])
                if var in assignment:
                    satisfied = assignment[var] == (1 if descriptor[2] > 0 else 0)
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

    def size(self, u):
        """Distinct reachable nodes, atoms included."""
        seen = set()
        stack = [u]
        while stack:
            t = stack.pop()
            if t in seen:
                continue
            seen.add(t)
            descriptor = self.nodes[t]
            if descriptor[0] == "dec":
                for prime, sub in descriptor[2]:
                    stack.append(prime)
                    stack.append(sub)
        return len(seen)

    def mentioned_vars(self, u):
        seen = set()
        variables = set()
        stack = [u]
        while stack:
            t = stack.pop()
            if t in seen:
                continue
            seen.add(t)
            descriptor = self.nodes[t]
            if descriptor[0] == "lit":
                variables.add(abs(descriptor[2]))
            elif descriptor[0] == "dec":
                for prime, sub in descriptor[2]:
                    stack.append(prime)
                    stack.append(sub)
        return variables


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

    memo = store._embedded

    def embed(path, literal):
        found = memo.get((path, literal))
        if found is not None:
            return found
        children = store.children.get(path)
        if children is None:
            found = store.literal(literal)
        else:
            left, right = children
            if abs(literal) in store.vars_at[left]:
                found = store.mk_dec(path, (
                    (embed(left, literal), store.true_at(right)),
                    (embed(left, -literal), store.false_at(right))))
            else:
                found = store.mk_dec(path, (
                    (store.true_at(left), embed(right, literal)),))
        memo[(path, literal)] = found
        return found

    if abs(lit) not in store.vtree.variables:
        raise SddError("variable %d not in vtree" % abs(lit))
    return SddRef(store, embed("", lit))


def sdd_from_clause(store, clause):
    acc = sdd_const(store, False)
    for lit in clause:
        acc = sdd_apply("or", acc, sdd_literal(store, lit))
    return acc


def sdd_from_term(store, assignment):
    acc = sdd_const(store, True)
    for var in sorted(assignment):
        lit = var if assignment[var] else -var
        acc = sdd_apply("and", acc, sdd_literal(store, lit))
    return acc


# ---------------------------------------------------------------- operations

def sdd_apply(op, d1, d2):
    _same_store(d1, d2)
    return SddRef(d1.store, d1.store.apply(op, d1.node, d2.node))


def sdd_negate(d):
    return SddRef(d.store, d.store.negate(d.node))


def sdd_restrict(d, assignment):
    return SddRef(d.store, d.store.restrict(d.node, assignment))


def sdd_is_false(d):
    """Syntactic: is this the canonical constant-false diagram."""
    return d.node == d.store.false_at("")


def sdd_is_unsat(d):
    return d.store.count(d.node) == 0


def sdd_count(d, over):
    over = set(over)
    leaves = d.store.vtree.variables
    mentioned = d.store.mentioned_vars(d.node)
    if not mentioned <= over:
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
    """Counting method: #D1 = #D2 = #(D1 and D2)."""
    _same_store(d1, d2)
    if d1.node == d2.node:
        return True
    store = d1.store
    c1, c2 = store.count(d1.node), store.count(d2.node)
    if c1 != c2:
        return False
    return store.count(store.apply("and", d1.node, d2.node)) == c1


def sdd_entails(d1, d2):
    _same_store(d1, d2)
    store = d1.store
    return store.count(store.apply("and", d1.node, d2.node)) == store.count(d1.node)


def sdd_size(d):
    return d.store.size(d.node)


def sdd_mentioned_vars(d):
    return d.store.mentioned_vars(d.node)


def rebind(target, d):
    """Rebuild a diagram in a store over another vtree, preserving the
    function.  Every variable the diagram mentions must be a leaf of the
    target vtree; the result is normalized at the target root."""
    store = d.store
    memo = {}

    def rec(t):
        if t in memo:
            return memo[t]
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
                piece = target.apply("and", rec(prime), rec(sub))
                result = target.apply("or", result, piece)
        memo[t] = result
        return result

    return SddRef(target, rec(d.node))


def sdd_truth_mask(d, num_vars):
    """Truth-table bitmask over variables 1..num_vars (test oracle hook)."""
    from .cnf import var_mask, full_mask

    store = d.store
    ones = full_mask(num_vars)
    memo = {}

    def rec(t):
        if t in memo:
            return memo[t]
        descriptor = store.nodes[t]
        if descriptor[0] == "lit":
            vm = var_mask(abs(descriptor[2]), num_vars)
            result = vm if descriptor[2] > 0 else ones ^ vm
        elif descriptor[0] == "true":
            result = ones
        elif descriptor[0] == "false":
            result = 0
        else:
            result = 0
            for prime, sub in descriptor[2]:
                result |= rec(prime) & rec(sub)
        memo[t] = result
        return result

    return rec(d.node)


# --------------------------------------------------------------- compilation

def sdd_compile_cnf(phi, store):
    """Clause-by-clause left-fold conjunction of phi inside the store.

    Returns (final diagram, trace).  The trace is a list of steps
    ("init", clause_index, ref) and ("join", i, j, ref) with i, j indexing
    earlier steps; the last step holds the final diagram.
    """
    for clause in phi.clauses:
        for lit in clause:
            if abs(lit) not in store.vtree.variables:
                raise SddError("formula variable %d not in vtree" % abs(lit))
    trace = []
    acc = None
    for index, clause in enumerate(phi.clauses):
        ref = sdd_from_clause(store, clause)
        trace.append(("init", index, ref))
        if acc is None:
            acc = ref
        else:
            joined = sdd_apply("and", acc, ref)
            # the accumulator is the step before the init just appended
            trace.append(("join", len(trace) - 2, len(trace) - 1, joined))
            acc = joined
    if acc is None:
        acc = sdd_const(store, True)
    return acc, trace


# -------------------------------------------------------------- serialization

def sdd_to_lines(d):
    store = d.store
    lines = []
    emitted = set()

    def walk(t):
        if t in emitted:
            return
        emitted.add(t)
        descriptor = store.nodes[t]
        path_text = path_to_text(store.node_path[t])
        if descriptor[0] == "dec":
            if t == store.true_at(store.node_path[t]):
                lines.append("a %d %s true" % (t, path_text))
                return
            if t == store.false_at(store.node_path[t]):
                lines.append("a %d %s false" % (t, path_text))
                return
            for prime, sub in descriptor[2]:
                walk(prime)
                walk(sub)
            elements = "".join("(%d %d)" % element for element in descriptor[2])
            lines.append("s %d %s %s" % (t, path_text, elements))
        elif descriptor[0] == "lit":
            lines.append("a %d %s lit %d" % (t, path_text, descriptor[2]))
        else:
            lines.append("a %d %s %s" % (t, path_text, descriptor[0]))

    walk(d.node)
    lines.append("root %d" % d.node)
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

    def lookup(token):
        if token not in ids:
            raise SddError("reference to undefined node %r" % token)
        return ids[token]

    root = None
    for line in lines:
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "a":
            if len(parts) == 4 and parts[3] in ("true", "false"):
                label, path_text, kind = parts[1], parts[2], parts[3]
                path = parse_path(path_text)
                if path not in store.paths:
                    raise SddError("unknown vtree path %r" % path_text)
                node = store.true_at(path) if kind == "true" else store.false_at(path)
            elif len(parts) == 5 and parts[3] == "lit":
                label, path_text = parts[1], parts[2]
                path = parse_path(path_text)
                try:
                    lit = int(parts[4])
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
            fields = line.split(None, 3)
            if len(fields) != 4:
                raise SddError("malformed decision statement %r" % line)
            label, path_text = fields[1], fields[2]
            if label in ids:
                raise SddError("node label %r reused" % label)
            path = parse_path(path_text)
            if path not in store.paths or store.paths[path].is_leaf:
                raise SddError("decision node at non-internal path %r" % path_text)
            elements = []
            for chunk in fields[3].split(")"):
                chunk = chunk.strip()
                if not chunk:
                    continue
                if not chunk.startswith("("):
                    raise SddError("malformed elements in %r" % line)
                pair = chunk[1:].split()
                if len(pair) != 2:
                    raise SddError("malformed element %r" % chunk)
                elements.append((lookup(pair[0]), lookup(pair[1])))
            if not elements:
                raise SddError("decision node with no elements in %r" % line)
            for prime, sub in elements:
                if store.node_path[prime] != path + "L":
                    raise SddError("prime of %r not at the left child" % label)
                if store.node_path[sub] != path + "R":
                    raise SddError("sub of %r not at the right child" % label)
            _validate_partition(store, path, [prime for prime, _ in elements])
            ids[label] = store.mk_dec(path, tuple(elements))
        elif parts[0] == "root":
            if len(parts) != 2 or root is not None:
                raise SddError("malformed root statement %r" % line)
            root = lookup(parts[1])
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
