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

Structural validation assigns each gate the lowest vtree node covering
its variables and checks the split condition for and-gates and the
equal-variable-set condition for or-gates.  Determinism is checked by a
fused product-and-satisfiability recursion over child pairs of every
or-gate; the pair memo is capped so pathological inputs raise a
resource error instead of running away.
"""

from kcproof.cnf import CapExceeded
from kcproof.sdd import SddStore, sdd_from_clause
from kcproof.structure import right_linear_vtree, vtree_to_text


class DsdnnfError(Exception):
    pass


class Circuit:

    def __init__(self, vtree=None):
        self.gates = []
        self.vtree = vtree
        self.root = None
        self._index = {}

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


def _gate_children(gate):
    return gate[1:] if gate[0] in ("and", "or") else ()


def _reachable(circuit):
    if circuit.root is None:
        raise DsdnnfError("circuit has no root")
    seen = set()
    stack = [circuit.root]
    while stack:
        i = stack.pop()
        if i in seen:
            continue
        seen.add(i)
        stack.extend(_gate_children(circuit.gates[i]))
    return seen


def circuit_size(circuit):
    """Number of gates reachable from the root."""
    return len(_reachable(circuit))


def _var_masks(circuit):
    """Per-gate variable sets as bitmasks (bit v-1 for variable v)."""
    masks = [0] * len(circuit.gates)
    for i, gate in enumerate(circuit.gates):
        if gate[0] == "lit":
            masks[i] = 1 << (abs(gate[1]) - 1)
        elif gate[0] in ("and", "or"):
            masks[i] = masks[gate[1]] | masks[gate[2]]
    return masks


def circuit_vars(circuit):
    """Variables mentioned by gates reachable from the root."""
    gates = circuit.gates
    return {abs(gates[i][1]) for i in _reachable(circuit)
            if gates[i][0] == "lit"}


def check_vtree_leaves(circuit, tree):
    """Reject any literal gate whose variable is not a leaf of the vtree.

    Run it before any mask is built: a mask costs a bit per variable up to
    the largest one, so an unchecked literal could cost unbounded memory.
    """
    leaves = tree.variables
    for i, gate in enumerate(circuit.gates):
        if gate[0] == "lit" and abs(gate[1]) not in leaves:
            raise DsdnnfError("gate %d: variable %d is not a leaf of the vtree"
                              % (i, abs(gate[1])))


def _vtree_masks(tree):
    """Map vtree path -> bitmask of leaf variables under it."""
    table = {}

    def walk(node, path):
        if node.var is not None:
            table[path] = 1 << (node.var - 1)
            return table[path]
        table[path] = walk(node.left, path + "L") | walk(node.right, path + "R")
        return table[path]

    walk(tree, "")
    return table


def _lowest_path(mask, vam):
    path = ""
    while path + "L" in vam:
        if mask & ~vam[path + "L"] == 0:
            path += "L"
        elif mask & ~vam[path + "R"] == 0:
            path += "R"
        else:
            break
    return path


def _bindings(circuit, tree, check_or_sets):
    """Assign each gate its lowest covering vtree node; check conditions.

    And-gate children must split across the binding node; with
    check_or_sets, or-gate children must mention equal variable sets.
    Returns (binding path per gate id, variable mask per gate id).
    """
    check_vtree_leaves(circuit, tree)
    vam = _vtree_masks(tree)
    masks = _var_masks(circuit)
    binding = {}
    for i in sorted(_reachable(circuit)):
        gate = circuit.gates[i]
        path = _lowest_path(masks[i], vam)
        if gate[0] == "and":
            if path + "L" not in vam:
                raise DsdnnfError("and-gate %d: children not split by any node" % i)
            if masks[gate[1]] & masks[gate[2]]:
                raise DsdnnfError("and-gate %d is not decomposable" % i)
            if masks[gate[1]] & ~vam[path + "L"] or masks[gate[2]] & ~vam[path + "R"]:
                raise DsdnnfError("and-gate %d: children not split at its node" % i)
        elif gate[0] == "or" and check_or_sets:
            if masks[gate[1]] != masks[gate[2]]:
                raise DsdnnfError("or-gate %d: children variable sets differ" % i)
        binding[i] = path
    return binding, masks


def validate_structured(circuit, tree):
    """Check the circuit respects the vtree; return the gate binding.

    The binding maps each reachable gate id to the path of the lowest
    vtree node covering its variables.  Raises naming the first
    offending gate in table order.
    """
    binding, _ = _bindings(circuit, tree, check_or_sets=True)
    return binding


def _sat_bits(circuit, masks, needed):
    """Per-gate satisfiability under decomposability.

    Decomposability is enforced only for gates in `needed`; dead gates
    left behind by constant folding are computed but not judged.
    """
    sat = [False] * len(circuit.gates)
    for i, gate in enumerate(circuit.gates):
        if gate[0] in ("lit", "true"):
            sat[i] = True
        elif gate[0] == "and":
            if i in needed and masks[gate[1]] & masks[gate[2]]:
                raise DsdnnfError("and-gate %d is not decomposable" % i)
            sat[i] = sat[gate[1]] and sat[gate[2]]
        elif gate[0] == "or":
            sat[i] = sat[gate[1]] or sat[gate[2]]
    return sat


def validate_deterministic(circuit, tree, cap=10 ** 7):
    """Check every or-gate has mutually exclusive children.

    For each or-gate the conjunction of its children is tested for
    satisfiability by a product recursion over gate pairs; the shared
    pair memo is capped at `cap` entries.
    """
    binding, masks = _bindings(circuit, tree, check_or_sets=False)
    sat = _sat_bits(circuit, masks, _reachable(circuit))
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

    for i in sorted(_reachable(circuit)):
        gate = gates[i]
        if gate[0] == "or" and pair_sat(gate[1], gate[2]):
            return False
    return True


def dsdnnf_conjoin(d1, d2, tree):
    """Product circuit for the conjunction of two circuits on one vtree.

    Output gate count is at most (|d1|+2)*(|d2|+2) counting reachable
    gates.  Both inputs must respect `tree`; determinism of the inputs
    is assumed and is preserved.
    """
    bind1, masks1 = _bindings(d1, tree, check_or_sets=True)
    bind2, masks2 = _bindings(d2, tree, check_or_sets=True)
    out = Circuit(tree)
    gates1, gates2 = d1.gates, d2.gates
    copy1, copy2 = {}, {}

    def copy(source, memo, i):
        if i in memo:
            return memo[i]
        gate = source.gates[i]
        if gate[0] == "and":
            r = out.mk_and(copy(source, memo, gate[1]), copy(source, memo, gate[2]))
        elif gate[0] == "or":
            r = out.mk_or(copy(source, memo, gate[1]), copy(source, memo, gate[2]))
        elif gate[0] == "lit":
            r = out.mk_lit(gate[1])
        elif gate[0] == "true":
            r = out.mk_true()
        else:
            r = out.mk_false()
        memo[i] = r
        return r

    memo = {}

    def prod(u, w):
        gu, gw = gates1[u], gates2[w]
        if gu[0] == "false" or gw[0] == "false":
            return out.mk_false()
        if gu[0] == "true":
            return copy(d2, copy2, w)
        if gw[0] == "true":
            return copy(d1, copy1, u)
        key = (u, w)
        if key in memo:
            return memo[key]
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
                    r = out.mk_and(prod(gu[1], w), copy(d1, copy1, gu[2]))
                else:
                    r = out.mk_and(copy(d1, copy1, gu[1]), prod(gu[2], w))
            elif pu.startswith(pw):
                if pu[len(pw)] == "L":
                    r = out.mk_and(prod(u, gw[1]), copy(d2, copy2, gw[2]))
                else:
                    r = out.mk_and(copy(d2, copy2, gw[1]), prod(u, gw[2]))
            else:
                left_first = pu[len(_common_prefix(pu, pw))] == "L"
                a = copy(d1, copy1, u)
                b = copy(d2, copy2, w)
                r = out.mk_and(a, b) if left_first else out.mk_and(b, a)
        memo[key] = r
        return r

    out.root = prod(d1.root, d2.root)
    return out


def _common_prefix(a, b):
    n = 0
    while n < len(a) and n < len(b) and a[n] == b[n]:
        n += 1
    return a[:n]


def dsdnnf_restrict(d, assignment):
    """Rebuild with assigned literal leaves replaced by constants.

    Constant propagation is applied, so the result still respects the
    original vtree and any vtree differing from it only at assigned
    leaves.
    """
    out = Circuit(d.vtree)
    memo = {}

    def rec(i):
        if i in memo:
            return memo[i]
        gate = d.gates[i]
        if gate[0] == "and":
            r = out.mk_and(rec(gate[1]), rec(gate[2]))
        elif gate[0] == "or":
            r = out.mk_or(rec(gate[1]), rec(gate[2]))
        elif gate[0] == "lit":
            v = abs(gate[1])
            if v in assignment:
                wanted = 1 if gate[1] > 0 else 0
                r = out.mk_true() if assignment[v] == wanted else out.mk_false()
            else:
                r = out.mk_lit(gate[1])
        elif gate[0] == "true":
            r = out.mk_true()
        else:
            r = out.mk_false()
        memo[i] = r
        return r

    out.root = rec(d.root)
    return out


def dsdnnf_count(d, over):
    """Exact model count over a variable set containing vars(d).

    Bottom-up with per-gate variable sets: and-gates multiply, or-gates
    add children counts scaled by the variables missing from each child
    relative to the union.  Requires determinism; decomposability is
    checked on the way up.
    """
    masks = _var_masks(d)
    counts = [0] * len(d.gates)
    needed = _reachable(d)
    for i in sorted(needed):
        gate = d.gates[i]
        if gate[0] in ("lit", "true"):
            counts[i] = 1
        elif gate[0] == "false":
            counts[i] = 0
        elif gate[0] == "and":
            if masks[gate[1]] & masks[gate[2]]:
                raise DsdnnfError("and-gate %d is not decomposable" % i)
            counts[i] = counts[gate[1]] * counts[gate[2]]
        else:
            union = masks[gate[1]] | masks[gate[2]]
            counts[i] = sum(
                counts[c] << (union & ~masks[c]).bit_count()
                for c in (gate[1], gate[2]))
    over_mask = 0
    for v in over:
        over_mask |= 1 << (v - 1)
    root_mask = masks[d.root]
    if root_mask & ~over_mask:
        raise DsdnnfError("circuit mentions variables outside the count set")
    return counts[d.root] << (over_mask & ~root_mask).bit_count()


def dsdnnf_count_own_vars(d):
    """Model count over circuit_vars(d).

    The variables are renamed to 1..k in increasing order first, so no
    mask is wider than the k variables, however large their numbers.
    """
    rank = {v: i for i, v in enumerate(sorted(circuit_vars(d)), start=1)}
    dense = Circuit()
    for gate in d.gates:
        if gate[0] == "lit":
            v = rank.get(abs(gate[1]))
            # a literal missing from rank is unreachable: any gate will do
            gate = ("true",) if v is None else ("lit", v if gate[1] > 0 else -v)
        dense.gates.append(gate)
    dense.root = d.root
    return dsdnnf_count(dense, rank.values())


def dsdnnf_is_unsat(d):
    masks = _var_masks(d)
    return not _sat_bits(d, masks, _reachable(d))[d.root]


def dsdnnf_clausal_entails(d, clause):
    """Does every model of the circuit satisfy the clause?"""
    falsifying = {abs(lit): 0 if lit > 0 else 1 for lit in clause}
    if len(falsifying) != len(set(clause)):
        return True  # some variable occurs with both signs: x or not x
    return dsdnnf_is_unsat(dsdnnf_restrict(d, falsifying))


def _shared_vtree(*circuits):
    trees = [c.vtree for c in circuits if c.vtree is not None]
    if not trees:
        raise DsdnnfError("no vtree attached to any operand")
    for t in trees[1:]:
        if t != trees[0]:
            raise DsdnnfError("operands bound to different vtrees")
    return trees[0]


def dsdnnf_implies(d1, d2):
    tree = _shared_vtree(d1, d2)
    over = circuit_vars(d1) | circuit_vars(d2)
    joint = dsdnnf_conjoin(d1, d2, tree)
    return dsdnnf_count(joint, over) == dsdnnf_count(d1, over)


def dsdnnf_equiv(d1, d2):
    tree = _shared_vtree(d1, d2)
    over = circuit_vars(d1) | circuit_vars(d2)
    c1 = dsdnnf_count(d1, over)
    c2 = dsdnnf_count(d2, over)
    if c1 != c2:
        return False
    joint = dsdnnf_conjoin(d1, d2, tree)
    return dsdnnf_count(joint, over) == c1


def dsdnnf_join_check(d1, d2, d3):
    tree = _shared_vtree(d1, d2, d3)
    joint = dsdnnf_conjoin(d1, d2, tree)
    joint.vtree = tree
    return dsdnnf_equiv(joint, d3)


def _true_gadget(out, vam, cache, path):
    """Circuit for constant true mentioning exactly the variables under path."""
    if path in cache:
        return cache[path]
    if path + "L" in vam:
        r = out.mk_and(_true_gadget(out, vam, cache, path + "L"),
                       _true_gadget(out, vam, cache, path + "R"))
    else:
        v = vam[path].bit_length()
        r = out.mk_or(out.mk_lit(v), out.mk_lit(-v))
    cache[path] = r
    return r


def sdd_to_dsdnnf(d):
    """Convert a decision diagram into a circuit on the same vtree.

    True atoms become smoothing gadgets over their vtree node, so every
    or-gate keeps equal child variable sets; elements with false subs
    are dropped.  Trivial decision layers at the root (a single live
    element whose prime or sub is a true atom) are peeled off, which is
    safe only there since no or-gate sits above the root.  Gate count is
    at most 2*(nodes + element pairs) + 4*(2n - 1) + 2 for n variables.
    """
    store = d.store
    out = Circuit(store.vtree)
    vam = _vtree_masks(store.vtree)
    gadgets = {}
    memo = {}

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

    def conv(node):
        if node in memo:
            return memo[node]
        descriptor = store.nodes[node]
        if descriptor[0] == "lit":
            r = out.mk_lit(descriptor[2])
        elif descriptor[0] == "true":
            r = _true_gadget(out, vam, gadgets, descriptor[1])
        elif descriptor[0] == "false":
            r = out.mk_false()
        else:
            r = out.mk_false()
            for prime, sub in descriptor[2]:
                sc = conv(sub)
                if out.gates[sc][0] == "false":
                    continue
                r = out.mk_or(r, out.mk_and(conv(prime), sc))
        memo[node] = r
        return r

    out.root = conv(top)
    return out


def clause_circuit(clause, tree):
    """Deterministic structured circuit for a single clause on a vtree."""
    store = SddStore(tree)
    return sdd_to_dsdnnf(sdd_from_clause(store, clause))


def obdd_to_dsdnnf(ref):
    """Convert an ordered decision diagram into a right-linear circuit.

    The result carries right_linear_vtree(order); skipped levels are
    padded with smoothing gadgets so or-gate children keep equal
    variable sets.
    """
    store = ref.store
    order = store.order
    position = {v: i for i, v in enumerate(order)}
    n = len(order)
    out = Circuit(right_linear_vtree(order))
    leaf_gadgets = {}
    suffix = {}

    def leaf_gadget(pos):
        if pos not in leaf_gadgets:
            v = order[pos]
            leaf_gadgets[pos] = out.mk_or(out.mk_lit(v), out.mk_lit(-v))
        return leaf_gadgets[pos]

    def true_from(pos):
        if pos == n:
            return out.mk_true()
        if pos not in suffix:
            suffix[pos] = out.mk_and(leaf_gadget(pos), true_from(pos + 1))
        return suffix[pos]

    memo = {}

    def conv(node):
        if node in memo:
            return memo[node]
        var, lo, hi = store.nodes[node]
        pos = position[var]
        lo_c = branch(lo, pos + 1)
        hi_c = branch(hi, pos + 1)
        r = out.mk_or(out.mk_and(out.mk_lit(-var), lo_c),
                      out.mk_and(out.mk_lit(var), hi_c))
        memo[node] = r
        return r

    def branch(node, from_pos):
        if node == store.FALSE:
            return out.mk_false()
        if node == store.TRUE:
            return true_from(from_pos)
        target_pos = position[store.nodes[node][0]]
        r = conv(node)
        for pos in range(target_pos - 1, from_pos - 1, -1):
            r = out.mk_and(leaf_gadget(pos), r)
        return r

    out.root = branch(ref.node, 0)
    return out


def circuit_to_lines(circuit):
    lines = []
    if circuit.vtree is not None:
        lines.append("vtree " + vtree_to_text(circuit.vtree))
    for i, gate in enumerate(circuit.gates):
        if gate[0] == "lit":
            lines.append("g %d LIT %d" % (i, gate[1]))
        elif gate[0] in ("true", "false"):
            lines.append("g %d %s" % (i, gate[0].upper()))
        else:
            lines.append("g %d %s %d %d" % (i, gate[0].upper(), gate[1], gate[2]))
    if circuit.root is None:
        raise DsdnnfError("circuit has no root")
    lines.append("root %d" % circuit.root)
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
            circuit.vtree = parse_vtree(line[len("vtree"):].strip())
            continue
        if parts[0] == "root":
            if len(parts) != 2 or parts[1] not in ids:
                raise DsdnnfError("bad root line %r" % line)
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
    return "\n".join(circuit_to_lines(circuit)) + "\n"


def parse_circuit(text):
    return circuit_from_lines(text.splitlines())
