"""Reduced ordered binary decision diagrams.

A store owns one variable order and a node table with a unique table, so
diagrams are canonical: two references in the same store compute the same
function exactly when their root ids coincide.  There are no complement
edges.  Node ids 0 and 1 are the constant-false and constant-true sinks;
every other id is an internal (var, lo, hi) node.  Ids are handed out in
creation order and never reused; collect frees the nodes that no given
root reaches, and a freed id's slot holds None.
"""

from .structure import StructureError, order_to_text, parse_order


class ObddError(Exception):
    pass


def _apply_worker(zero):
    """The recursion of one binary operation: zero absorbs and the other
    sink is the unit, so zero 0 conjoins and zero 1 disjoins.

    The memo holds one operation's steps, under (smaller id, larger id).
    lo is computed before hi, which fixes the order in which nodes, and so
    their ids, appear.  A result node is interned without mk's checks,
    since it branches above both children by construction.
    """
    one = 1 - zero

    def work(store, a, b):
        if a == zero or b == zero:
            return zero
        if a == one:
            return b
        if b == one or a == b:
            return a
        key = (a, b) if a < b else (b, a)
        memo = store.memo
        found = memo.get(key)
        if found is not None:
            return found
        levels = store.levels
        la = levels[a]
        lb = levels[b]
        if la <= lb:
            var, a_lo, a_hi = store.nodes[a]
            level = la
        else:
            a_lo = a_hi = a
        if lb <= la:
            var, b_lo, b_hi = store.nodes[b]
            level = lb
        else:
            b_lo = b_hi = b
        lo = work(store, a_lo, b_lo)
        hi = work(store, a_hi, b_hi)
        if lo == hi:
            result = lo
        else:
            node = (var, lo, hi)
            result = store.unique.get(node)
            if result is None:
                result = len(store.nodes)
                store.nodes.append(node)
                levels.append(level)
                store.unique[node] = result
        memo[key] = result
        return result

    return work


def _rebuild(source, target, u, memo, assignment=()):
    """u rebuilt bottom-up in target with target.mk, lo before hi.  memo
    starts with the images of source's two sinks; a variable in
    assignment is skipped to its branch."""
    found = memo.get(u)
    if found is not None:
        return found
    var, lo, hi = source.nodes[u]
    if var in assignment:
        result = _rebuild(source, target, hi if assignment[var] else lo,
                          memo, assignment)
    else:
        result = target.mk(var, _rebuild(source, target, lo, memo, assignment),
                           _rebuild(source, target, hi, memo, assignment))
    memo[u] = result
    return result


class ObddStore:

    FALSE = 0
    TRUE = 1

    def __init__(self, order):
        order = tuple(order)
        if len(set(order)) != len(order):
            raise ObddError("order repeats a variable")
        self.order = order
        self.level = {var: i for i, var in enumerate(order)}
        self.nodes = [None, None]  # id -> (var, lo, hi) for internal nodes
        # id -> level of the node's variable; both sinks sit below them all
        self.levels = [len(order), len(order)]
        self.unique = {}
        # whole-operation results, under (op, smaller id, larger id); kept
        # until collect frees a node they name
        self.cache = {}
        # the recursion memo of the one operation running now, emptied when
        # it returns: across operations it hits almost never, and a
        # recomputed step only meets nodes that already exist
        self.memo = {}

    def is_terminal(self, u):
        return u == self.FALSE or u == self.TRUE

    def node(self, u):
        return self.nodes[u]

    def mk(self, var, lo, hi):
        # only validated keys enter the unique table, so a hit needs no checks
        key = (var, lo, hi)
        found = self.unique.get(key)
        if found is not None:
            return found
        level = self.level.get(var)
        if level is None:
            raise ObddError("variable %d not in order" % var)
        if lo == hi:
            return lo
        levels = self.levels
        if levels[lo] <= level or levels[hi] <= level:
            raise ObddError("children must branch on later variables")
        found = len(self.nodes)
        self.nodes.append(key)
        levels.append(level)
        self.unique[key] = found
        return found

    # ---------------------------------------------------------- operations

    def apply(self, op, a, b):
        if op == "and":
            worker = self._and
        elif op == "or":
            worker = self._or
        else:
            raise ObddError("unknown operation %r" % op)
        key = (op, a, b) if a < b else (op, b, a)
        found = self.cache.get(key)
        if found is not None:
            return found
        try:
            result = worker(a, b)
        finally:
            self.memo.clear()
        self.cache[key] = result
        return result

    # apply's two workers, alike but for which sink absorbs
    _and = _apply_worker(0)
    _or = _apply_worker(1)

    def restrict(self, u, assignment):
        return _rebuild(self, self, u, {0: 0, 1: 1}, assignment)

    def support(self, u):
        nodes = self.nodes
        return {nodes[t][0] for t in self.reachable(u)
                if nodes[t] is not None}

    def reachable(self, *roots):
        nodes = self.nodes
        seen = set(roots)
        stack = list(roots)
        while stack:
            node = nodes[stack.pop()]
            if node is not None:
                _, lo, hi = node
                if lo not in seen:
                    seen.add(lo)
                    stack.append(lo)
                if hi not in seen:
                    seen.add(hi)
                    stack.append(hi)
        return seen

    def collect(self, roots):
        """Free every node that no root reaches: its table slot, its
        unique-table entry and each cached result that names it.  Ids
        are never reused, so a node that stays keeps its id."""
        nodes = self.nodes
        live = self.reachable(self.FALSE, self.TRUE, *roots)
        unique = {}
        for key, u in self.unique.items():
            if u in live:
                unique[key] = u
            else:
                nodes[u] = None
        self.unique = unique
        # keys are (op, a, b)
        self.cache = {key: u for key, u in self.cache.items()
                      if u in live and key[1] in live and key[2] in live}

    def count(self, u, over):
        over = set(over)
        nodes = self.nodes
        levels = self.levels
        # models of each node over the order from its level on; children
        # have smaller ids than their parents, so one ascending pass does
        counts = {0: 0, 1: 1}
        for t in sorted(self.reachable(u)):
            if t > 1:
                var, lo, hi = nodes[t]
                if var not in over:
                    raise ObddError(
                        "count asked over a set missing support variables")
                below = levels[t] + 1
                counts[t] = (counts[lo] << (levels[lo] - below)) \
                    + (counts[hi] << (levels[hi] - below))
        # over the whole order, then over `over`: an order variable outside
        # the support doubles the count as any other free variable does
        total = counts[u] << levels[u]
        shift = len(over) - len(self.order)
        return total << shift if shift >= 0 else total >> -shift


class ObddRef:
    """A diagram: store handle plus root id."""

    __slots__ = ("store", "node")

    def __init__(self, store, node):
        self.store = store
        self.node = node

    def __eq__(self, other):
        return isinstance(other, ObddRef) and \
            self.store is other.store and self.node == other.node

    def __hash__(self):
        return hash((id(self.store), self.node))

    def __repr__(self):
        return "ObddRef(node=%d, order=%s)" % (self.node, list(self.store.order))


# -------------------------------------------------------------- constructors

def obdd_const(store, value):
    return ObddRef(store, store.TRUE if value else store.FALSE)


def obdd_from_clause(store, clause):
    """Canonical OBDD of a disjunction of literals, built sink-up."""
    level = store.level
    by_var = {abs(lit): lit for lit in clause}
    for var in by_var:
        if var not in level:
            # dropping the literal would claim a stronger clause
            raise ObddError("variable %d not in order" % var)
    if len(by_var) != len(set(clause)):
        # some variable occurs with both signs: x or not x
        return obdd_const(store, True)
    acc = store.FALSE
    for var in sorted(by_var, key=level.__getitem__, reverse=True):
        lit = by_var[var]
        if lit > 0:
            acc = store.mk(var, acc, store.TRUE)
        else:
            acc = store.mk(var, store.TRUE, acc)
    return ObddRef(store, acc)


# ---------------------------------------------------------------- operations

def _same_store(d1, d2):
    if d1.store is not d2.store:
        raise ObddError("operands live in different stores")


def obdd_apply(op, d1, d2):
    _same_store(d1, d2)
    return ObddRef(d1.store, d1.store.apply(op, d1.node, d2.node))


def obdd_restrict(d, assignment):
    return ObddRef(d.store, d.store.restrict(d.node, assignment))


def obdd_count(d, over):
    return d.store.count(d.node, over)


def obdd_entails(d1, d2):
    _same_store(d1, d2)
    return d1.store.apply("and", d1.node, d2.node) == d1.node


def obdd_equal(d1, d2):
    if d1.store is d2.store:
        return d1.node == d2.node
    if d1.store.order != d2.store.order:
        raise ObddError("equality requires a common order")
    return migrate(d1.store, d2).node == d1.node


def obdd_size(d):
    """Internal nodes reachable from the root."""
    return sum(1 for u in d.store.reachable(d.node) if not d.store.is_terminal(u))


def migrate(target, d):
    """Rebuild d inside another store.  The target order must keep the
    relative order of d's support variables."""
    src = d.store
    support = src.support(d.node)
    svars = [v for v in src.order if v in support]
    if [v for v in target.order if v in support] != svars:
        raise ObddError("target order disagrees on the support variables")
    return ObddRef(target, _rebuild(src, target, d.node,
                                    {src.FALSE: target.FALSE,
                                     src.TRUE: target.TRUE}))


# -------------------------------------------------------------- serialization

def obdd_to_lines(d):
    """Node statements in bottom-up order plus the root statement."""
    nodes = d.store.nodes
    lines = []
    names = {ObddStore.FALSE: "F", ObddStore.TRUE: "T"}  # emitted so far
    stack = [d.node] if d.node not in names else []
    while stack:  # depth first, lo before hi, each node after its children
        t = stack[-1]
        var, lo, hi = nodes[t]
        if lo not in names:
            stack.append(lo)
        elif hi not in names:
            stack.append(hi)
        else:
            stack.pop()
            name = names[t] = str(t)
            lines.append(f"n {name} {var} {names[lo]} {names[hi]}")
    lines.append("root " + names[d.node])
    return lines


def obdd_from_lines(store, lines, sized=False):
    """Rebuild a diagram from node statements; ids are file-local labels.

    With sized, return the diagram and its size, the nodes the root
    reaches, sinks included.  One backward sweep over the parsed
    (id, lo, hi) triples from the root counts them: mk makes no node that
    no statement names, so every node the root reaches is a sink or a
    statement's id, and a statement comes after those of its children."""
    ids = {"F": store.FALSE, "T": store.TRUE}
    mk = store.mk
    triples = []
    root = None
    for line in lines:
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "n":
            if len(parts) != 5:
                raise ObddError("malformed node statement %r" % line)
            _, label, var_text, lo_text, hi_text = parts
            if label in ids:
                raise ObddError("node label %r reused" % label)
            try:
                var = int(var_text)
            except ValueError:
                raise ObddError("bad variable in %r" % line)
            lo = ids.get(lo_text)
            if lo is None:
                raise ObddError("reference to undefined node %r" % lo_text)
            hi = ids.get(hi_text)
            if hi is None:
                raise ObddError("reference to undefined node %r" % hi_text)
            u = ids[label] = mk(var, lo, hi)
            triples.append((u, lo, hi))
        elif parts[0] == "root":
            if len(parts) != 2 or root is not None:
                raise ObddError("malformed root statement %r" % line)
            root = ids.get(parts[1])
            if root is None:
                raise ObddError("reference to undefined node %r" % parts[1])
        else:
            raise ObddError("unknown statement %r" % line)
    if root is None:
        raise ObddError("missing root statement")
    if not sized:
        return ObddRef(store, root)
    reached = {root}
    add = reached.add
    for u, lo, hi in reversed(triples):
        if u in reached:
            add(lo)
            add(hi)
    return ObddRef(store, root), len(reached)


def obdd_to_text(d):
    order_line = "o " + order_to_text(d.store.order)
    return "\n".join([order_line] + obdd_to_lines(d)) + "\n"


def parse_obdd(text):
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("o "):
        raise ObddError("missing order line")
    try:
        order = parse_order(lines[0][2:])
    except StructureError as exc:
        raise ObddError(str(exc))
    return obdd_from_lines(ObddStore(order), lines[1:])
