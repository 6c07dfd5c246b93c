"""Test oracles: brute force over truth tables, the diagram helpers that
only the tests call, the restriction of formulas and proofs, and the
translation of resolution into OBDD proofs with join and weakening.

`kcp` never runs this code, so it lives here and not in the package: the
modules a check enters (`kcproof.cnf`, `kcproof.structure` and the
diagram modules) hold only what the command line, the producers and the
checker use.

An n-variable function is a 2^n-bit integer: bit r is the value under the
assignment where variable i takes bit (i-1) of r.  AND/OR/NOT of functions
are the integer bitwise operations, and model counting is popcount.
"""

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from kcproof.cnf import CapExceeded, Clause, CnfError, CnfFormula
from kcproof.dsdnnf import DsdnnfError
from kcproof.obdd import (ObddError, ObddRef, ObddStore, _rebuild, migrate,
                          obdd_apply, obdd_restrict)
from kcproof.proofs import (BACKENDS, Proof, ProofError, ProofSystem,
                            _Session, diagram_payload)
from kcproof.refute import fold_trace
from kcproof.resolution import _resolution_clauses, check_resolution
from kcproof.sdd import SddRef, sdd_apply, sdd_const, sdd_literal
from kcproof.structure import StructureError, VarOrder, Vtree, path_to_text

Assignment = Dict[int, int]  # variable -> 0 or 1

DEFAULT_BRUTE_FORCE_CAP = 24


# ------------------------------------------------------------- truth tables

def var_mask(var: int, num_vars: int) -> int:
    """Truth-table bits of the function 'variable var' over num_vars variables."""
    if not (1 <= var <= num_vars):
        raise CnfError("variable %d out of range 1..%d" % (var, num_vars))
    half = 1 << (var - 1)
    block = ((1 << half) - 1) << half  # ones in the upper half of one period
    width = half << 1
    total = 1 << num_vars
    while width < total:
        block |= block << width
        width <<= 1
    return block


def full_mask(num_vars: int) -> int:
    return (1 << (1 << num_vars)) - 1


def clause_mask(clause: Clause, num_vars: int) -> int:
    mask = 0
    ones = full_mask(num_vars)
    for lit in clause:
        vm = var_mask(abs(lit), num_vars)
        mask |= vm if lit > 0 else (ones ^ vm)
    return mask


def formula_mask(phi: CnfFormula, cap: int = DEFAULT_BRUTE_FORCE_CAP) -> int:
    if phi.num_vars > cap:
        raise CapExceeded("%d variables exceeds brute-force cap %d"
                          % (phi.num_vars, cap))
    mask = full_mask(phi.num_vars)
    for clause in phi.clauses:
        mask &= clause_mask(clause, phi.num_vars)
        if mask == 0:
            break
    return mask


def brute_force_models(phi: CnfFormula, cap: int = DEFAULT_BRUTE_FORCE_CAP) -> int:
    """Exact model count over all num_vars variables."""
    return formula_mask(phi, cap).bit_count()


def all_models(phi: CnfFormula, cap: int = DEFAULT_BRUTE_FORCE_CAP) -> List[Assignment]:
    """Every satisfying total assignment, in row order."""
    mask = formula_mask(phi, cap)
    out = []
    row = 0
    while mask:
        trailing = (mask & -mask).bit_length() - 1
        row = trailing
        out.append(row_assignment(row, phi.num_vars))
        mask &= mask - 1
    return out


def row_assignment(row: int, num_vars: int) -> Assignment:
    return {var: (row >> (var - 1)) & 1 for var in range(1, num_vars + 1)}


def is_minimally_unsat(phi: CnfFormula, cap: int = DEFAULT_BRUTE_FORCE_CAP) -> bool:
    """Unsatisfiable, and deleting any single clause restores satisfiability."""
    if phi.num_vars > cap:
        raise CapExceeded("%d variables exceeds brute-force cap %d"
                          % (phi.num_vars, cap))
    m = phi.num_clauses
    if m == 0:
        return False
    masks = [clause_mask(c, phi.num_vars) for c in phi.clauses]
    ones = full_mask(phi.num_vars)
    prefix = [ones]
    for cm in masks:
        prefix.append(prefix[-1] & cm)
    if prefix[m] != 0:
        return False
    suffix = [ones] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] & masks[i]
    return all(prefix[i] & suffix[i + 1] != 0 for i in range(m))


def kl_profile(phi: CnfFormula) -> Tuple[int, int]:
    """(max clause width, max number of clauses any one variable occurs in)."""
    width = max((len(c) for c in phi.clauses), default=0)
    occurrences: Dict[int, int] = {}
    for clause in phi.clauses:
        for lit in clause:
            occurrences[abs(lit)] = occurrences.get(abs(lit), 0) + 1
    return width, max(occurrences.values(), default=0)


# --------------------------------------------------------------- structures

def validate_vtree(tree: Vtree, variables) -> bool:
    # full binary shape and leaf disjointness are enforced by the constructor;
    # what remains is the bijection onto the requested variable set
    return tree.variables == frozenset(variables)


def single_variable_move(order: VarOrder, var: int, pos: int) -> VarOrder:
    """Remove var from the order and reinsert it at index pos."""
    if var not in order:
        raise StructureError("variable %d not in order" % var)
    rest = [v for v in order if v != var]
    if not (0 <= pos <= len(rest)):
        raise StructureError("position %d out of range" % pos)
    rest.insert(pos, var)
    return tuple(rest)


# --------------------------------------------------------------- restriction

def restrict_clause(clause: Clause, a: Assignment) -> Optional[Clause]:
    """Restricted clause, or None when some literal is satisfied by a."""
    out = []
    for lit in clause:
        var = abs(lit)
        if var in a:
            if a[var] == (1 if lit > 0 else 0):
                return None
        else:
            out.append(lit)
    return tuple(out)


def restrict_cnf(phi: CnfFormula, a: Assignment) -> CnfFormula:
    """Drop satisfied clauses, delete falsified literals from the rest.

    The variable space is unchanged; assigned variables simply stop being
    mentioned.  A clause whose literals are all falsified survives as the
    empty clause.
    """
    for var in a:
        if not (1 <= var <= phi.num_vars):
            raise CnfError("assignment mentions variable %d outside 1..%d"
                           % (var, phi.num_vars))
    kept = []
    for clause in phi.clauses:
        restricted = restrict_clause(clause, a)
        if restricted is not None:
            kept.append(restricted)
    return CnfFormula(phi.num_vars, tuple(kept))


def restriction_map(phi: CnfFormula, a: Assignment) -> Dict[int, Optional[int]]:
    """Old clause index -> new index in restrict_cnf(phi, a), None if satisfied."""
    mapping: Dict[int, Optional[int]] = {}
    new_index = 0
    for old_index, clause in enumerate(phi.clauses):
        if restrict_clause(clause, a) is None:
            mapping[old_index] = None
        else:
            mapping[old_index] = new_index
            new_index += 1
    return mapping


def restrict_proof(phi, proof, assignment):
    """Apply a partial assignment through a weakening-free proof.

    Every diagram is restricted in place over its unchanged structure;
    init lines are re-targeted to the clause indices of the restricted
    formula.  A satisfied clause's line turns into the constant-true
    diagram and is dropped, references to a dropped line are redirected
    to its surviving join antecedent, and the tail of the proof after
    the line now carrying the final diagram is cut.  The result refutes
    restrict_cnf(phi, assignment).
    """
    if "weaken" in proof.system.rules:
        raise ProofError("restriction needs a weakening-free proof")
    if not proof.lines:
        raise ProofError("empty proof")
    clause_map = restriction_map(phi, assignment)
    session = _Session(proof, cap=10 ** 9)
    out = Proof(proof.system)
    # mapped[n] is the new line number carrying line n's restricted
    # diagram, or None when that diagram is constant true and dropped.
    mapped = {}
    sid_map = {}

    def out_sid(sid):
        if sid not in sid_map:
            sid_map[sid] = out.add_structure(proof.structures[sid])
        return sid_map[sid]

    def out_diagram(line):
        d = session.diagram(line.diagram_id)
        restricted = session.backend.restrict(d, assignment)
        sid = session.diagram_structure(line.diagram_id)
        return out.add_diagram(out_sid(sid), diagram_payload(restricted))

    last_kept = None
    for line in proof.lines:
        if line.rule == "init":
            new_index = clause_map.get(line.clause_index)
            if new_index is None:
                mapped[line.n] = None
                continue
            mapped[line.n] = out.add_init(new_index, out_diagram(line))
        elif line.rule == "join":
            a, b = mapped[line.refs[0]], mapped[line.refs[1]]
            if a is None and b is None:
                mapped[line.n] = None
                continue
            if a is None or b is None:
                mapped[line.n] = a if b is None else b
                continue
            mapped[line.n] = out.add_join(a, b, out_diagram(line))
        elif line.rule in ("move", "reorder"):
            ref = mapped[line.refs[0]]
            if ref is None:
                mapped[line.n] = None
                continue
            sid = out_sid(line.structure_id)  # numbered before the diagram's
            mapped[line.n] = out._append(replace(
                line, n=len(out.lines) + 1, refs=(ref,), structure_id=sid,
                diagram_id=out_diagram(line), cert_ids=()))
        else:
            raise ProofError("line %d: unexpected rule %r"
                             % (line.n, line.rule))
        last_kept = mapped[line.n]
    final = mapped[proof.lines[-1].n]
    if final is None:
        raise ProofError("restriction drops every line of the proof")
    if final != last_kept:
        # The original final line collapsed onto an earlier antecedent;
        # everything after that antecedent is dead weight for the
        # refutation, so cut the tail.
        out.lines = out.lines[:final]
    return out


# -------------------------------------------------------------------- OBDDs

def obdd_literal(store, lit):
    var = abs(lit)
    if lit > 0:
        return ObddRef(store, store.mk(var, store.FALSE, store.TRUE))
    return ObddRef(store, store.mk(var, store.TRUE, store.FALSE))


def obdd_negate(d):
    return ObddRef(d.store, _rebuild(d.store, d.store, d.node, {0: 1, 1: 0}))


def obdd_is_unsat(d):
    return d.node == d.store.FALSE


def obdd_total_size(d):
    """Nodes the root reaches, sinks included."""
    return len(d.store.reachable(d.node))


def obdd_support(d):
    return d.store.support(d.node)


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


def obdd_truth_mask(d, num_vars):
    """Truth-table bitmask of the diagram over variables 1..num_vars,
    in the row convention of var_mask."""
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


# --------------------------------------------------------------------- SDDs

def sdd_from_term(store, assignment):
    acc = sdd_const(store, True)
    for var in sorted(assignment):
        lit = var if assignment[var] else -var
        acc = sdd_apply("and", acc, sdd_literal(store, lit))
    return acc


def sdd_negate(d):
    return SddRef(d.store, d.store.negate(d.node))


def sdd_is_unsat(d):
    return d.store.count(d.node) == 0


def sdd_mentioned_vars(d):
    return d.store.mentioned_vars(d.node)


def sdd_truth_mask(d, num_vars):
    """Truth-table bitmask over variables 1..num_vars."""
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


def sdd_compile_cnf(phi, store):
    """Clause-by-clause left-fold conjunction of phi inside the store.

    Returns (final diagram, trace) as kcproof.refute.fold_trace does: the
    trace is a list of steps ("init", clause_index, ref) and
    ("join", i, j, ref) with i, j indexing earlier steps.
    """
    return fold_trace(BACKENDS["sdd"], store, phi.clauses)


# ---------------------------------------------------------- payload writers
# The package's writers as they were before each statement became one
# f-string: the reference that every payload byte is compared with.

def obdd_to_lines_reference(d):
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
            lines.append("n %s %d %s %s" % (name, var, names[lo], names[hi]))
    lines.append("root " + names[d.node])
    return lines


def sdd_to_lines_reference(d):
    """Calls true_at and false_at on every decision node it writes."""
    store = d.store
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
        descriptor = store.nodes[t]
        path_text = path_to_text(store.node_path[t])
        if descriptor[0] == "dec":
            if t == store.true_at(store.node_path[t]):
                lines.append("a %d %s true" % (t, path_text))
            elif t == store.false_at(store.node_path[t]):
                lines.append("a %d %s false" % (t, path_text))
            else:
                elements = "".join("(%d %d)" % e for e in descriptor[2])
                stack.append("s %d %s %s" % (t, path_text, elements))
                for prime, sub in reversed(descriptor[2]):
                    if sub not in emitted:
                        stack.append(sub)
                    if prime not in emitted:
                        stack.append(prime)
        elif descriptor[0] == "lit":
            lines.append("a %d %s lit %d" % (t, path_text, descriptor[2]))
        else:
            lines.append("a %d %s %s" % (t, path_text, descriptor[0]))
    lines.append("root %d" % d.node)
    return lines


def circuit_to_lines_reference(circuit):
    lines = []
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


# --------------------------------------------------------------- resolution

def _clause_obdd(store, clause):
    """Clause diagram tolerant of duplicate and clashing literals."""
    result = ObddRef(store, store.FALSE)
    for lit in sorted(set(clause), key=lambda l: (abs(l), l < 0)):
        result = obdd_apply("or", result, obdd_literal(store, lit))
    return result


def resolution_to_obddw(phi, r, order=None):
    """Translate a resolution refutation into a checkable obdd proof.

    Inputs become init lines; each resolution step becomes the join of
    its antecedent lines followed by a weakening to the resolvent's
    clause diagram, so the output has (inputs) + 2*(resolution steps)
    lines over the single given order (default: 1..num_vars).
    """
    verdict = check_resolution(phi, r)
    if not verdict.accepted:
        raise ProofError("resolution proof rejected: %s" % verdict.reason)
    clauses, _ = _resolution_clauses(phi, r)
    if order is None:
        order = tuple(range(1, phi.num_vars + 1))
    proof = Proof(ProofSystem("obdd", frozenset(("join", "weaken"))))
    sid = proof.add_structure(tuple(order))
    store = ObddStore(tuple(order))
    line_of = {}
    for n, step in enumerate(r.steps, start=1):
        if step[0] == "input":
            did = proof.add_diagram(
                sid, diagram_payload(_clause_obdd(store, clauses[n - 1])))
            line_of[n] = proof.add_init(step[1], did)
        else:
            _, i, j, _pivot = step
            joint = obdd_apply(
                "and",
                _clause_obdd(store, clauses[i - 1]),
                _clause_obdd(store, clauses[j - 1]))
            join_did = proof.add_diagram(sid, diagram_payload(joint))
            join_n = proof.add_join(line_of[i], line_of[j], join_did)
            weak_did = proof.add_diagram(
                sid, diagram_payload(_clause_obdd(store, clauses[n - 1])))
            line_of[n] = proof.add_weaken(join_n, weak_did)
    return proof
