"""Reduced ordered binary decision diagrams.

A store owns one variable order and an append-only node table with a unique
table, so diagrams are canonical: two references in the same store compute
the same function exactly when their root ids coincide.  There are no
complement edges.  Node ids 0 and 1 are the constant-false and constant-true
sinks; every other id is an internal (var, lo, hi) node.
"""

from .structure import single_variable_move


class ObddError(Exception):
    pass


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
        self.cache = {}

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
            return self._and(a, b)
        if op == "or":
            return self._or(a, b)
        raise ObddError("unknown operation %r" % op)

    # One worker per operation, the same but for the constant cases: sink
    # ids are written as 0 and 1, and a result node is interned without
    # mk's checks, since it branches above both children by construction.
    # The memo key is (op, smaller id, larger id); lo is computed before
    # hi, which fixes the order in which nodes, and so their ids, appear.

    def _and(self, a, b):
        if a == 0 or b == 0:
            return 0
        if a == 1:
            return b
        if b == 1 or a == b:
            return a
        key = ("and", a, b) if a < b else ("and", b, a)
        found = self.cache.get(key)
        if found is not None:
            return found
        levels = self.levels
        la = levels[a]
        lb = levels[b]
        if la <= lb:
            var, a_lo, a_hi = self.nodes[a]
            level = la
        else:
            a_lo = a_hi = a
        if lb <= la:
            var, b_lo, b_hi = self.nodes[b]
            level = lb
        else:
            b_lo = b_hi = b
        lo = self._and(a_lo, b_lo)
        hi = self._and(a_hi, b_hi)
        if lo == hi:
            result = lo
        else:
            node = (var, lo, hi)
            result = self.unique.get(node)
            if result is None:
                result = len(self.nodes)
                self.nodes.append(node)
                levels.append(level)
                self.unique[node] = result
        self.cache[key] = result
        return result

    def _or(self, a, b):
        if a == 1 or b == 1:
            return 1
        if a == 0:
            return b
        if b == 0 or a == b:
            return a
        key = ("or", a, b) if a < b else ("or", b, a)
        found = self.cache.get(key)
        if found is not None:
            return found
        levels = self.levels
        la = levels[a]
        lb = levels[b]
        if la <= lb:
            var, a_lo, a_hi = self.nodes[a]
            level = la
        else:
            a_lo = a_hi = a
        if lb <= la:
            var, b_lo, b_hi = self.nodes[b]
            level = lb
        else:
            b_lo = b_hi = b
        lo = self._or(a_lo, b_lo)
        hi = self._or(a_hi, b_hi)
        if lo == hi:
            result = lo
        else:
            node = (var, lo, hi)
            result = self.unique.get(node)
            if result is None:
                result = len(self.nodes)
                self.nodes.append(node)
                levels.append(level)
                self.unique[node] = result
        self.cache[key] = result
        return result

    def negate(self, u):
        if u == self.FALSE:
            return self.TRUE
        if u == self.TRUE:
            return self.FALSE
        key = ("not", u)
        found = self.cache.get(key)
        if found is not None:
            return found
        var, lo, hi = self.nodes[u]
        result = self.mk(var, self.negate(lo), self.negate(hi))
        self.cache[key] = result
        return result

    def restrict(self, u, assignment):
        memo = {}

        def rec(t):
            if self.is_terminal(t):
                return t
            if t in memo:
                return memo[t]
            var, lo, hi = self.nodes[t]
            if var in assignment:
                result = rec(hi if assignment[var] else lo)
            else:
                result = self.mk(var, rec(lo), rec(hi))
            memo[t] = result
            return result

        return rec(u)

    def support(self, u):
        seen = set()
        variables = set()
        stack = [u]
        while stack:
            t = stack.pop()
            if self.is_terminal(t) or t in seen:
                continue
            seen.add(t)
            var, lo, hi = self.nodes[t]
            variables.add(var)
            stack.append(lo)
            stack.append(hi)
        return variables

    def reachable(self, u):
        nodes = self.nodes
        seen = {u}
        stack = [u]
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

    def count(self, u, over):
        over = set(over)
        supp = self.support(u)
        if not supp <= over:
            raise ObddError("count asked over a set missing support variables")
        svars = [v for v in self.order if v in supp]
        rank = {v: i for i, v in enumerate(svars)}
        m = len(svars)
        if self.is_terminal(u):
            return (1 << len(over)) if u == self.TRUE else 0
        memo = {}

        def rec(t):
            # models over the support variables from this node's rank onward
            if t == self.FALSE:
                return 0
            if t == self.TRUE:
                return 1
            if t in memo:
                return memo[t]
            var, lo, hi = self.nodes[t]
            r = rank[var]
            total = 0
            for child in (lo, hi):
                sub = rec(child)
                child_rank = m if self.is_terminal(child) else rank[self.nodes[child][0]]
                total += sub << (child_rank - r - 1)
            memo[t] = total
            return total

        return rec(u) << (len(over) - m)


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


def obdd_literal(store, lit):
    var = abs(lit)
    if lit > 0:
        return ObddRef(store, store.mk(var, store.FALSE, store.TRUE))
    return ObddRef(store, store.mk(var, store.TRUE, store.FALSE))


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


def obdd_from_term(store, assignment):
    """Canonical OBDD of a conjunction of literals given as var -> 0/1."""
    acc = store.TRUE
    for var in reversed(store.order):
        if var not in assignment:
            continue
        if assignment[var]:
            acc = store.mk(var, store.FALSE, acc)
        else:
            acc = store.mk(var, acc, store.FALSE)
    return ObddRef(store, acc)


# ---------------------------------------------------------------- operations

def _same_store(d1, d2):
    if d1.store is not d2.store:
        raise ObddError("operands live in different stores")


def obdd_apply(op, d1, d2):
    _same_store(d1, d2)
    return ObddRef(d1.store, d1.store.apply(op, d1.node, d2.node))


def obdd_negate(d):
    return ObddRef(d.store, d.store.negate(d.node))


def obdd_restrict(d, assignment):
    return ObddRef(d.store, d.store.restrict(d.node, assignment))


def obdd_count(d, over):
    return d.store.count(d.node, over)


def obdd_is_unsat(d):
    return d.node == d.store.FALSE


def obdd_entails(d1, d2):
    _same_store(d1, d2)
    store = d1.store
    return store.apply("and", d1.node, store.negate(d2.node)) == store.FALSE


def obdd_equal(d1, d2):
    if d1.store is d2.store:
        return d1.node == d2.node
    if d1.store.order != d2.store.order:
        raise ObddError("equality requires a common order")
    return migrate(d1.store, d2).node == d1.node


def obdd_support(d):
    return d.store.support(d.node)


def obdd_size(d):
    """Internal nodes reachable from the root."""
    return sum(1 for u in d.store.reachable(d.node) if not d.store.is_terminal(u))


def obdd_total_size(d):
    """All reachable nodes, sinks included."""
    return len(d.store.reachable(d.node))


def migrate(target, d):
    """Rebuild d inside another store.  The target order must keep the
    relative order of d's support variables."""
    src = d.store
    svars = [v for v in src.order if v in src.support(d.node)]
    kept = [v for v in target.order if v in set(svars)]
    if kept != svars:
        raise ObddError("target order disagrees on the support variables")
    memo = {src.FALSE: target.FALSE, src.TRUE: target.TRUE}

    def rec(t):
        if t in memo:
            return memo[t]
        var, lo, hi = src.nodes[t]
        result = target.mk(var, rec(lo), rec(hi))
        memo[t] = result
        return result

    return ObddRef(target, rec(d.node))


def obdd_move_var(d, x, pos):
    """The same function, canonical under the order where x moved to pos.

    Realized by the two restrictions on x recombined in a fresh store, so the
    result is correct by construction rather than by node surgery.
    """
    store = d.store
    if x not in store.level:
        raise ObddError("variable %d not in order" % x)
    new_order = single_variable_move(store.order, x, pos)
    target = ObddStore(new_order)
    zero = migrate(target, obdd_restrict(d, {x: 0}))
    one = migrate(target, obdd_restrict(d, {x: 1}))
    x_ref = obdd_literal(target, x)
    return obdd_apply(
        "or",
        obdd_apply("and", obdd_negate(x_ref), zero),
        obdd_apply("and", x_ref, one))


def obdd_check_move(d, d_prime, x):
    """Equivalence across two orders that agree once x is deleted: both
    restrictions on x live in the common reduced order, where canonical
    comparison decides equality.  True exactly when the functions agree."""
    rest1 = [v for v in d.store.order if v != x]
    rest2 = [v for v in d_prime.store.order if v != x]
    if rest1 != rest2:
        raise ObddError("orders differ in more than the position of %d" % x)
    common = ObddStore(tuple(rest1))
    for value in (0, 1):
        a = migrate(common, obdd_restrict(d, {x: value}))
        b = migrate(common, obdd_restrict(d_prime, {x: value}))
        if a.node != b.node:
            return False
    return True


def obdd_reorder_chain(d, new_order):
    """Diagrams along single-variable moves from d's order to new_order.

    Step i places new_order[i] at position i, so the chain has at most n
    steps; already-placed variables are skipped.  The last element (or d
    itself when no step is needed) carries exactly new_order.
    """
    if set(new_order) != set(d.store.order):
        raise ObddError("orders are over different variables")
    chain = []
    current = d
    for pos, var in enumerate(new_order):
        if current.store.order[pos] == var:
            continue
        current = obdd_move_var(current, var, pos)
        chain.append(current)
    return chain


def obdd_truth_mask(d, num_vars):
    """Truth-table bitmask of the diagram over variables 1..num_vars,
    in the row convention of cnf.var_mask."""
    from .cnf import var_mask, full_mask

    store = d.store
    ones = full_mask(num_vars)
    memo = {store.FALSE: 0, store.TRUE: ones}

    def rec(t):
        if t in memo:
            return memo[t]
        var, lo, hi = store.nodes[t]
        vm = var_mask(var, num_vars)
        result = ((ones ^ vm) & rec(lo)) | (vm & rec(hi))
        memo[t] = result
        return result

    return rec(d.node)


# -------------------------------------------------------------- serialization

def obdd_to_lines(d):
    """Node statements in bottom-up order plus the root statement."""
    nodes = d.store.nodes
    lines = []
    names = {ObddStore.FALSE: "F", ObddStore.TRUE: "T"}  # emitted so far

    def walk(t):
        var, lo, hi = nodes[t]
        if lo not in names:
            walk(lo)
        if hi not in names:
            walk(hi)
        name = names[t] = str(t)
        lines.append("n %s %d %s %s" % (name, var, names[lo], names[hi]))

    if d.node not in names:
        walk(d.node)
    lines.append("root " + names[d.node])
    return lines


def obdd_from_lines(store, lines):
    """Rebuild a diagram from node statements; ids are file-local labels."""
    ids = {"F": store.FALSE, "T": store.TRUE}
    mk = store.mk
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
            ids[label] = mk(var, lo, hi)
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
    return ObddRef(store, root)


def obdd_to_text(d):
    order_line = "o " + " ".join("x%d" % v for v in d.store.order)
    return "\n".join([order_line] + obdd_to_lines(d)) + "\n"


def parse_obdd(text):
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("o "):
        raise ObddError("missing order line")
    order = []
    for tok in lines[0][2:].split():
        if not tok.startswith("x"):
            raise ObddError("bad order token %r" % tok)
        order.append(int(tok[1:]))
    store = ObddStore(tuple(order))
    return obdd_from_lines(store, lines[1:])
