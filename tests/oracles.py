"""Test oracles: brute force over truth tables, and the diagram helpers
that only the tests call.

`kcp` never runs this code, so it lives here and not in the package: the
modules a check enters (`kcproof.cnf`, `kcproof.structure` and the
diagram modules) hold only what the command line, the producers and the
checker use.

An n-variable function is a 2^n-bit integer: bit r is the value under the
assignment where variable i takes bit (i-1) of r.  AND/OR/NOT of functions
are the integer bitwise operations, and model counting is popcount.
"""

from typing import Dict, List, Tuple

from kcproof.cnf import Assignment, CapExceeded, Clause, CnfError, CnfFormula
from kcproof.obdd import (ObddError, ObddRef, ObddStore, migrate, obdd_apply,
                          obdd_literal, obdd_restrict)
from kcproof.proofs import BACKENDS
from kcproof.refute import fold_trace
from kcproof.sdd import SddRef, sdd_apply, sdd_const, sdd_literal
from kcproof.structure import StructureError, VarOrder, Vtree

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


# -------------------------------------------------------------------- OBDDs

def obdd_negate(d):
    return ObddRef(d.store, d.store.negate(d.node))


def obdd_is_unsat(d):
    return d.node == d.store.FALSE


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
