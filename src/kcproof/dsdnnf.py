"""Structured deterministic DNNF circuits.

Gates live in an append-only table; gate i is a tuple:

    ("and", a, b)   conjunction of two earlier gates
    ("or", a, b)    disjunction of two earlier gates
    ("lit", l)      signed literal leaf
    ("true",)       constant
    ("false",)      constant

Negation appears only on literal leaves.  Gates are binary; wider
conjunctions and disjunctions are built as folds.  A circuit optionally
carries the vtree it was built against; validators can also be pointed
at a caller-supplied vtree.

Each circuit is analysed at most once per state (root and table length):
the reachable gate ids in ascending order and, when first needed, the
variable mask of each reachable gate.  Per vtree the analysis adds each
gate's binding, the lowest vtree node covering its variables, computed
bottom-up (a literal binds to its leaf, a gate to the common prefix of
its children's bindings, a gate mentioning no variable to the leftmost
leaf), together with the first and-gate whose children are not split at
its node and the first or-gate whose children mention different variable
sets.  The validators, the product conjoin, counting and the size and
variable queries all read that one analysis, so a circuit validated once
is not walked again when it is conjoined or counted.

Determinism is checked by a fused product-and-satisfiability recursion
over child pairs of every or-gate; the pair memo is capped so
pathological inputs raise a resource error instead of running away, and
so is the product memo of a checked entailment.
"""

import sys
from functools import partial

from kcproof.cnf import DEFAULT_CHECK_CAP, CapExceeded
from kcproof.sdd import (SddStore, sdd_apply, sdd_const, sdd_from_clause,
                         sdd_literal)
from kcproof.structure import node_table, right_linear_vtree, vtree_to_text


class DsdnnfError(Exception):
    pass


class Circuit:

    def __init__(self, vtree=None):
        self.gates = []
        self.vtree = vtree
        self.root = None
        self._index = {}
        self._analysis = None

    def add(self, gate):
        """Append a gate verbatim (no folding); returns its id."""
        for child in gate[1:] if gate[0] in ("and", "or") else ():
            if not (0 <= child < len(self.gates)):
                raise DsdnnfError("gate child %r not yet defined" % (child,))
        self.gates.append(gate)
        return len(self.gates) - 1

    def _cons(self, gate):
        found = self._index.get(gate)
        if found is not None:
            return found
        self.gates.append(gate)
        self._index[gate] = len(self.gates) - 1
        return len(self.gates) - 1

    def mk_true(self):
        return self._cons(("true",))

    def mk_false(self):
        return self._cons(("false",))

    def mk_lit(self, lit):
        if lit == 0:
            raise DsdnnfError("literal 0")
        return self._cons(("lit", lit))

    def mk_and(self, a, b):
        if self.gates[a][0] == "false" or self.gates[b][0] == "false":
            return self.mk_false()
        if self.gates[a][0] == "true":
            return b
        if self.gates[b][0] == "true":
            return a
        return self._cons(("and", a, b))

    def mk_or(self, a, b):
        if self.gates[a][0] == "false":
            return b
        if self.gates[b][0] == "false":
            return a
        return self._cons(("or", a, b))


class _Analysis:
    """What one state of a circuit says about its structure.

    `order` holds the reachable gate ids, ascending.  `masks` (0 for
    unreachable gates), `bits`, each variable's bit in order of first
    appearance along `order`, so no mask is wider than the circuit, and
    `undecomposable`, the first reachable and-gate whose children share a
    variable, are filled in on first use.  `trees` maps id(vtree) to
    (vtree, binding per gate id, first and-gate error, first or-gate
    error), an error being a pair (gate id, message); holding the vtree
    keeps its id from being reused.
    """

    __slots__ = ("key", "order", "masks", "bits", "undecomposable", "trees")

    def __init__(self, key, order):
        self.key = key
        self.order = order
        self.masks = self.bits = None
        self.undecomposable = None
        self.trees = {}


def _analysis(circuit):
    """The circuit's analysis, with the reachable gates found.

    Gates are only ever appended, so the root and the table length fix
    what is reachable and every gate's variables.
    """
    key = (circuit.root, len(circuit.gates))
    a = circuit._analysis
    if a is None or a.key != key:
        a = circuit._analysis = _Analysis(key, _reachable(circuit))
    return a


def _reachable(circuit):
    """Reachable gate ids, ascending; children precede their parents."""
    if circuit.root is None:
        raise DsdnnfError("circuit has no root")
    gates = circuit.gates
    live = [False] * len(gates)
    live[circuit.root] = True
    for i in range(circuit.root, -1, -1):
        if live[i]:
            gate = gates[i]
            if gate[0] == "and" or gate[0] == "or":
                live[gate[1]] = live[gate[2]] = True
    return [i for i in range(circuit.root + 1) if live[i]]


def _masked(circuit):
    """The circuit's analysis, with variable masks of its reachable gates."""
    a = _analysis(circuit)
    if a.masks is None:
        gates = circuit.gates
        masks = [0] * len(gates)
        bits = {}
        for i in a.order:
            gate = gates[i]
            if gate[0] == "lit":
                masks[i] = bits.setdefault(abs(gate[1]), 1 << len(bits))
            elif gate[0] == "and" or gate[0] == "or":
                m1, m2 = masks[gate[1]], masks[gate[2]]
                if m1 & m2 and gate[0] == "and" and a.undecomposable is None:
                    a.undecomposable = i
                masks[i] = m1 | m2
        a.masks, a.bits = masks, bits
    return a


def _decomposable(circuit):
    """The circuit's analysis with masks; raises naming the first reachable
    and-gate whose children share a variable."""
    a = _masked(circuit)
    if a.undecomposable is not None:
        raise DsdnnfError("and-gate %d is not decomposable" % a.undecomposable)
    return a


def circuit_size(circuit):
    """Number of gates reachable from the root."""
    return len(_analysis(circuit).order)


def circuit_vars(circuit):
    """Variables mentioned by gates reachable from the root."""
    gates = circuit.gates
    return {abs(gates[i][1]) for i in _analysis(circuit).order
            if gates[i][0] == "lit"}


def check_vtree_leaves(circuit, tree):
    """Reject any literal gate whose variable is not a leaf of the vtree.

    Run it before binding, which reads every literal's leaf.
    """
    leaves = tree.variables
    for i, gate in enumerate(circuit.gates):
        if gate[0] == "lit" and abs(gate[1]) not in leaves:
            raise DsdnnfError("gate %d: variable %d is not a leaf of the vtree"
                              % (i, abs(gate[1])))


def _vtree_table(tree):
    """What `_bind` reads of a vtree: the variable masks of the two halves
    of each internal node, keyed by path, the path of each variable's
    leaf, and the path of the leftmost leaf.  A variable's bit is its rank
    among the leaves, so no mask is wider than the vtree."""
    rank = {v: i for i, v in enumerate(sorted(tree.variables))}
    masks = {}
    halves = {}
    leaf = {}
    # reverse preorder: both children of a node come before it
    for path, node in reversed(node_table(tree).items()):
        if node.is_leaf:
            masks[path] = 1 << rank[node.var]
            leaf[node.var] = path
        else:
            left, right = masks[path + "L"], masks[path + "R"]
            halves[path] = left, right
            masks[path] = left | right
    bottom = ""
    while bottom in halves:
        bottom += "L"
    return halves, leaf, bottom


def _bind(circuit, a, tree):
    """Bind every reachable gate to the lowest vtree node covering its
    variables, bottom-up, and find the first gate of each kind that breaks
    a structural condition.

    An and-gate must sit on an internal node whose left and right subtrees
    cover its first and second child; an or-gate's children must mention
    equal variable sets.  Masks here are in the vtree's bits: a literal's
    is its leaf's half of the parent node.
    """
    # one table per vtree object, kept on it as Vtree.variables keeps its
    # set: an attribute, not a field, so == and hash do not see it
    table = getattr(tree, "_bind_table", None)
    if table is None:
        table = _vtree_table(tree)
        object.__setattr__(tree, "_bind_table", table)
    halves, leaf, bottom = table
    gates = circuit.gates
    masks = [0] * len(gates)
    binding = [None] * len(gates)
    and_error = or_error = None
    for i in a.order:
        gate = gates[i]
        kind = gate[0]
        if kind == "lit":
            path = binding[i] = leaf[abs(gate[1])]
            masks[i] = halves[path[:-1]][path[-1] == "R"] if path else 1
            continue
        if kind != "and" and kind != "or":
            binding[i] = bottom
            continue
        m1, m2 = masks[gate[1]], masks[gate[2]]
        if not m1:
            path = binding[gate[2]]
        elif not m2:
            path = binding[gate[1]]
        else:
            path = _common_prefix(binding[gate[1]], binding[gate[2]])
        binding[i] = path
        masks[i] = m1 | m2
        if kind == "and":
            if and_error is None:
                split = halves.get(path)
                if split is None:
                    and_error = (i, "and-gate %d: children not split by any "
                                 "node" % i)
                elif m1 & m2:
                    and_error = (i, "and-gate %d is not decomposable" % i)
                elif m1 & ~split[0] or m2 & ~split[1]:
                    and_error = (i, "and-gate %d: children not split at its "
                                 "node" % i)
        elif or_error is None and m1 != m2:
            or_error = (i, "or-gate %d: children variable sets differ" % i)
    return tree, binding, and_error, or_error


def _checked(circuit, tree, check_or_sets):
    """The circuit's analysis and its binding on the vtree, computed at most
    once per circuit state and vtree object.

    Raises for the first offending gate in table order: an and-gate not
    split at its node and, with check_or_sets, an or-gate whose children
    mention different variable sets.
    """
    a = _analysis(circuit)
    entry = a.trees.get(id(tree))
    if entry is None:
        check_vtree_leaves(circuit, tree)
        entry = a.trees[id(tree)] = _bind(circuit, a, tree)
    _, binding, and_error, or_error = entry
    if or_error is not None and check_or_sets \
            and (and_error is None or or_error[0] < and_error[0]):
        raise DsdnnfError(or_error[1])
    if and_error is not None:
        raise DsdnnfError(and_error[1])
    return a, binding


def validate_structured(circuit, tree):
    """Check the circuit respects the vtree; return the gate binding.

    The binding maps each reachable gate id to the path of the lowest
    vtree node covering its variables.  Raises naming the first
    offending gate in table order.
    """
    a, binding = _checked(circuit, tree, check_or_sets=True)
    return {i: binding[i] for i in a.order}


def _sat_bits(circuit):
    """Per-gate satisfiability of the reachable gates, which must all be
    decomposable."""
    a = _decomposable(circuit)
    gates = circuit.gates
    sat = [False] * len(gates)
    for i in a.order:
        gate = gates[i]
        if gate[0] == "lit" or gate[0] == "true":
            sat[i] = True
        elif gate[0] == "and":
            sat[i] = sat[gate[1]] and sat[gate[2]]
        elif gate[0] == "or":
            sat[i] = sat[gate[1]] or sat[gate[2]]
    return sat


def validate_deterministic(circuit, tree, cap=DEFAULT_CHECK_CAP):
    """Check every or-gate has mutually exclusive children.

    For each or-gate the conjunction of its children is tested for
    satisfiability by a product recursion over gate pairs; the shared
    pair memo is capped at `cap` entries.
    """
    a, binding = _checked(circuit, tree, check_or_sets=False)
    sat = _sat_bits(circuit)
    gates = circuit.gates
    memo = {}

    def pair_sat(u, w):
        gu, gw = gates[u], gates[w]
        if gu[0] == "false" or gw[0] == "false":
            return False
        if gu[0] == "true":
            return sat[w]
        if gw[0] == "true":
            return sat[u]
        key = (u, w)
        if key in memo:
            return memo[key]
        if len(memo) >= cap:
            raise CapExceeded("determinism check exceeded %d gate pairs" % cap)
        memo[key] = False
        if gu[0] == "or":
            result = pair_sat(gu[1], w) or pair_sat(gu[2], w)
        elif gw[0] == "or":
            result = pair_sat(u, gw[1]) or pair_sat(u, gw[2])
        else:
            pu, pw = binding[u], binding[w]
            if pu == pw:
                if gu[0] == "lit":
                    result = gu[1] == gw[1]
                else:
                    result = pair_sat(gu[1], gw[1]) and pair_sat(gu[2], gw[2])
            elif pw.startswith(pu):
                if pw[len(pu)] == "L":
                    result = pair_sat(gu[1], w) and sat[gu[2]]
                else:
                    result = sat[gu[1]] and pair_sat(gu[2], w)
            elif pu.startswith(pw):
                if pu[len(pw)] == "L":
                    result = pair_sat(u, gw[1]) and sat[gw[2]]
                else:
                    result = sat[gw[1]] and pair_sat(u, gw[2])
            else:
                result = sat[u] and sat[w]
        memo[key] = result
        return result

    try:
        for i in a.order:
            gate = gates[i]
            if gate[0] == "or" and pair_sat(gate[1], gate[2]):
                return False
        return True
    finally:
        # emptying pair_sat's own cell leaves no reference cycle; it stays
        # nested like prod, which ran 30-44% slower when passed its tables
        del pair_sat


def dsdnnf_conjoin(d1, d2, tree, cap=None):
    """Product circuit for the conjunction of two circuits on one vtree.

    Output gate count is at most (|d1|+2)*(|d2|+2) counting reachable
    gates.  Both inputs must respect `tree`; determinism of the inputs
    is assumed and is preserved.  With a cap, the product memo holds at
    most `cap` gate pairs.
    """
    if cap is None:
        cap = sys.maxsize
    _, bind1 = _checked(d1, tree, check_or_sets=True)
    _, bind2 = _checked(d2, tree, check_or_sets=True)
    out = Circuit(tree)
    gates1, gates2 = d1.gates, d2.gates
    copy1, copy2 = (partial(_rebuild, out, d, memo={}) for d in (d1, d2))
    memo = {}

    def prod(u, w):
        gu, gw = gates1[u], gates2[w]
        if gu[0] == "false" or gw[0] == "false":
            return out.mk_false()
        if gu[0] == "true":
            return copy2(w)
        if gw[0] == "true":
            return copy1(u)
        key = (u, w)
        if key in memo:
            return memo[key]
        if len(memo) >= cap:
            raise CapExceeded("product conjoin exceeded %d gate pairs" % cap)
        if gu[0] == "or":
            r = out.mk_or(prod(gu[1], w), prod(gu[2], w))
        elif gw[0] == "or":
            r = out.mk_or(prod(u, gw[1]), prod(u, gw[2]))
        else:
            pu, pw = bind1[u], bind2[w]
            if pu == pw:
                if gu[0] == "lit":
                    r = out.mk_lit(gu[1]) if gu[1] == gw[1] else out.mk_false()
                else:
                    r = out.mk_and(prod(gu[1], gw[1]), prod(gu[2], gw[2]))
            elif pw.startswith(pu):
                if pw[len(pu)] == "L":
                    r = out.mk_and(prod(gu[1], w), copy1(gu[2]))
                else:
                    r = out.mk_and(copy1(gu[1]), prod(gu[2], w))
            elif pu.startswith(pw):
                if pu[len(pw)] == "L":
                    r = out.mk_and(prod(u, gw[1]), copy2(gw[2]))
                else:
                    r = out.mk_and(copy2(gw[1]), prod(u, gw[2]))
            else:
                left_first = pu[len(_common_prefix(pu, pw))] == "L"
                a = copy1(u)
                b = copy2(w)
                r = out.mk_and(a, b) if left_first else out.mk_and(b, a)
        memo[key] = r
        return r

    try:
        out.root = prod(d1.root, d2.root)
    finally:
        del prod  # as validate_deterministic releases pair_sat
    return out


def _common_prefix(a, b):
    if b.startswith(a):
        return a
    if a.startswith(b):
        return b
    n = 0
    while a[n] == b[n]:
        n += 1
    return a[:n]


def dsdnnf_restrict(d, assignment):
    """Rebuild with assigned literal leaves replaced by constants.

    Constant propagation is applied, so the result still respects the
    original vtree and any vtree differing from it only at assigned
    leaves.
    """
    out = Circuit(d.vtree)
    out.root = _rebuild(out, d, d.root, {}, assignment)
    return out


def _rebuild(out, d, i, memo, assignment=()):
    """Gate i of d copied into out, children first, memo mapping the gates
    done; a literal on a variable in assignment becomes a constant."""
    found = memo.get(i)
    if found is not None:
        return found
    gate = d.gates[i]
    if gate[0] == "and" or gate[0] == "or":
        a = _rebuild(out, d, gate[1], memo, assignment)
        b = _rebuild(out, d, gate[2], memo, assignment)
        r = out.mk_and(a, b) if gate[0] == "and" else out.mk_or(a, b)
    elif gate[0] == "lit" and abs(gate[1]) in assignment:
        satisfied = assignment[abs(gate[1])] == (1 if gate[1] > 0 else 0)
        r = out.mk_true() if satisfied else out.mk_false()
    elif gate[0] == "lit":
        r = out.mk_lit(gate[1])
    elif gate[0] == "true":
        r = out.mk_true()
    else:
        r = out.mk_false()
    memo[i] = r
    return r


def dsdnnf_count(d, over):
    """Exact model count over a variable set containing vars(d).

    Bottom-up with per-gate variable sets: and-gates multiply, or-gates
    add children counts scaled by the variables missing from each child
    relative to the union.  Requires determinism; decomposability is
    checked first.
    """
    a = _decomposable(d)
    masks = a.masks
    counts = [0] * len(d.gates)
    for i in a.order:
        gate = d.gates[i]
        if gate[0] in ("lit", "true"):
            counts[i] = 1
        elif gate[0] == "false":
            counts[i] = 0
        elif gate[0] == "and":
            counts[i] = counts[gate[1]] * counts[gate[2]]
        else:
            union = masks[gate[1]] | masks[gate[2]]
            counts[i] = sum(
                counts[c] << (union & ~masks[c]).bit_count()
                for c in (gate[1], gate[2]))
    own, over = a.bits.keys(), set(over)
    if not own <= over:
        raise DsdnnfError("circuit mentions variables outside the count set")
    return counts[d.root] << len(over) - len(own)


def _shared_vtree(*circuits):
    trees = [c.vtree for c in circuits if c.vtree is not None]
    if not trees:
        raise DsdnnfError("no vtree attached to any operand")
    for t in trees[1:]:
        if t != trees[0]:
            raise DsdnnfError("operands bound to different vtrees")
    return trees[0]


def dsdnnf_implies(d1, d2, cap=None):
    """Does d1 entail d2?  It does when their product has as many models
    as d1, counted over the shared vtree's leaves.  This is the one test
    of a check that builds a product; its memo holds at most `cap` gate
    pairs."""
    tree = _shared_vtree(d1, d2)
    return dsdnnf_count(dsdnnf_conjoin(d1, d2, tree, cap), tree.variables) \
        == dsdnnf_count(d1, tree.variables)


def dsdnnf_equiv(d1, d2, cap=None):
    leaves = _shared_vtree(d1, d2).variables
    return dsdnnf_count(d1, leaves) == dsdnnf_count(d2, leaves) \
        and dsdnnf_implies(d1, d2, cap)


def dsdnnf_join_check(d1, d2, d3, clause=None, cap=None):
    """Is d3 the conjunction of d1 and d2?  Each product memo holds at most
    `cap` gate pairs.

    Without a clause, d3 is compared with the product of d1 and d2, which
    takes a second product.  With the clause that d2 is, and a d3 that
    entails it (the caller's test), one product suffices: d3 is d1 and
    the clause when it has as many models as d1 and the clause, that is
    #d1 less the models of d1 on the clause's falsifying assignment, and
    entails d1.  A clause with both x and not x has no falsifying
    assignment.
    """
    tree = _shared_vtree(d1, d2, d3)
    if clause is None:
        return dsdnnf_equiv(dsdnnf_conjoin(d1, d2, tree, cap), d3, cap)
    leaves = tree.variables
    models = dsdnnf_count(d1, leaves)
    falsifying = {abs(lit): int(lit < 0) for lit in clause}
    if len(falsifying) == len(set(clause)):
        models -= dsdnnf_count(dsdnnf_restrict(d1, falsifying),
                               leaves.difference(falsifying))
    return dsdnnf_count(d3, leaves) == models \
        and dsdnnf_implies(d3, d1, cap)


def sdd_to_dsdnnf(d):
    """Convert a decision diagram into a circuit on the same vtree.

    True atoms, which sit at leaves only, become smoothing gadgets
    x or not x, so every or-gate keeps equal child variable sets;
    elements with false subs are dropped.  Trivial decision layers at the
    root (a single live element whose prime or sub is a true atom) are
    peeled off, which is safe only there since no or-gate sits above the
    root.  Gate count is at most 2*(nodes + element pairs) + 4*(2n - 1)
    + 2 for n variables.
    """
    store = d.store
    out = Circuit(store.vtree)
    top = d.node
    while store.nodes[top][0] == "dec":
        live = [(p, s) for p, s in store.nodes[top][2]
                if store.nodes[s][0] != "false"]
        if len(live) != 1:
            break
        prime, sub = live[0]
        if store.nodes[sub][0] == "true":
            top = prime
        elif store.nodes[prime][0] == "true":
            top = sub
        else:
            break
    out.root = _convert(store, out, top, {})
    return out


def _convert(store, out, node, memo):
    """sdd_to_dsdnnf's gate for node, built in out; memo maps nodes done."""
    found = memo.get(node)
    if found is not None:
        return found
    descriptor = store.nodes[node]
    if descriptor[0] == "lit":
        r = out.mk_lit(descriptor[2])
    elif descriptor[0] == "true":
        v = store.paths[descriptor[1]].var
        r = out.mk_or(out.mk_lit(v), out.mk_lit(-v))
    elif descriptor[0] == "false":
        r = out.mk_false()
    else:
        r = out.mk_false()
        for prime, sub in descriptor[2]:
            sc = _convert(store, out, sub, memo)
            if out.gates[sc][0] == "false":
                continue
            r = out.mk_or(r, out.mk_and(_convert(store, out, prime, memo), sc))
    memo[node] = r
    return r


def clause_circuit(clause, tree):
    """Deterministic structured circuit for a single clause on a vtree."""
    store = SddStore(tree)
    return sdd_to_dsdnnf(sdd_from_clause(store, clause))


def obdd_to_dsdnnf(ref):
    """Convert an ordered decision diagram into a right-linear circuit.

    Each reachable node, children first (ascending ids), is rebuilt as
    (~x & lo) | (x & hi) in an SDD store on right_linear_vtree(order),
    and the result is exported by sdd_to_dsdnnf, so the circuit carries
    that vtree.
    """
    store = ref.store
    target = SddStore(right_linear_vtree(store.order))
    built = {store.FALSE: sdd_const(target, False),
             store.TRUE: sdd_const(target, True)}
    for node in sorted(store.reachable(ref.node) - set(built)):
        var, lo, hi = store.nodes[node]
        built[node] = sdd_apply(
            "or", sdd_apply("and", sdd_literal(target, -var), built[lo]),
            sdd_apply("and", sdd_literal(target, var), built[hi]))
    return sdd_to_dsdnnf(built[ref.node])


def circuit_to_lines(circuit):
    """The gate and root lines; circuit_to_text adds the vtree line."""
    lines = []
    for i, gate in enumerate(circuit.gates):
        kind = gate[0]
        if kind == "and":
            lines.append(f"g {i} AND {gate[1]} {gate[2]}")
        elif kind == "or":
            lines.append(f"g {i} OR {gate[1]} {gate[2]}")
        elif kind == "lit":
            lines.append(f"g {i} LIT {gate[1]}")
        else:
            lines.append(f"g {i} {kind.upper()}")
    if circuit.root is None:
        raise DsdnnfError("circuit has no root")
    lines.append(f"root {circuit.root}")
    return lines


def circuit_from_lines(lines):
    from kcproof.structure import parse_vtree

    circuit = Circuit()
    ids = {}
    root = None
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("c "):
            continue
        parts = line.split()
        if parts[0] == "vtree":
            if circuit.vtree is not None:
                raise DsdnnfError("second vtree line %r" % line)
            circuit.vtree = parse_vtree(line[len("vtree"):].strip())
            continue
        if parts[0] == "root":
            if len(parts) != 2 or parts[1] not in ids:
                raise DsdnnfError("bad root line %r" % line)
            if root is not None:
                raise DsdnnfError("second root line %r" % line)
            root = ids[parts[1]]
            continue
        if parts[0] != "g" or len(parts) < 3:
            raise DsdnnfError("unrecognized line %r" % line)
        if parts[1] in ids:
            raise DsdnnfError("duplicate gate id %s" % parts[1])
        kind = parts[2]
        if kind in ("AND", "OR"):
            if len(parts) != 5 or parts[3] not in ids or parts[4] not in ids:
                raise DsdnnfError("bad gate line %r" % line)
            gate = (kind.lower(), ids[parts[3]], ids[parts[4]])
        elif kind == "LIT":
            try:
                lit = int(parts[3]) if len(parts) == 4 else 0
            except ValueError:
                lit = 0
            if lit == 0:
                raise DsdnnfError("bad literal line %r" % line)
            gate = ("lit", lit)
        elif kind in ("TRUE", "FALSE"):
            if len(parts) != 3:
                raise DsdnnfError("bad constant line %r" % line)
            gate = (kind.lower(),)
        else:
            raise DsdnnfError("unknown gate kind %r" % kind)
        circuit.gates.append(gate)
        ids[parts[1]] = len(circuit.gates) - 1
    if root is None:
        raise DsdnnfError("missing root line")
    circuit.root = root
    return circuit


def circuit_to_text(circuit):
    lines = circuit_to_lines(circuit)
    if circuit.vtree is not None:
        lines.insert(0, "vtree " + vtree_to_text(circuit.vtree))
    return "\n".join(lines) + "\n"


def parse_circuit(text):
    return circuit_from_lines(text.splitlines())
